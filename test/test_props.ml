(* Cross-cutting property tests: random weakly-connected knowledge
   graphs, arbitrary seeds, every push-capable algorithm — discovery must
   always complete, and the cost accounting must balance. Also pins the
   regression cases discovered during development. *)

open Repro_util
open Repro_graph
open Repro_discovery

(* Generator: a uniformly-random directed spanning structure (each node
   i>0 gets one edge touching an earlier node, in a random direction)
   plus extra random edges — weakly connected by construction, with
   arbitrary edge directions. *)
let random_weak_topology_gen =
  QCheck2.Gen.(
    let* n = int_range 2 120 in
    let* spine =
      flatten_l
        (List.init (n - 1) (fun i ->
             let v = i + 1 in
             let* u = int_range 0 i in
             let* forward = bool in
             return (if forward then (u, v) else (v, u))))
    in
    let* extra =
      list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let* seed = int_range 0 5000 in
    return (n, spine @ extra, seed))

(* Every run in this suite executes under the online trace invariant
   checker: conservation, liveness discipline, monotonicity and final
   metrics agreement are asserted event-by-event, for free, across all
   the random instances below. *)
let checked_exec spec algo topo =
  let inv = Repro_engine.Trace.Invariants.create () in
  let r =
    Run.exec_spec
      { spec with Run.trace = Repro_engine.Trace.Invariants.sink inv }
      algo topo
  in
  Repro_engine.Trace.Invariants.final_check inv r.Run.metrics;
  r

let push_algorithms =
  [
    Swamping.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
    Rand_gossip.algorithm;
    Hm_gossip.algorithm;
    Hm_gossip.with_variant ~upward:Hm_gossip.Full ();
  ]

let completes_on_random_weak (algo : Algorithm.t) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s completes on random weakly-connected graphs" algo.Algorithm.name)
    ~count:60 random_weak_topology_gen
    (fun (n, edges, seed) ->
      let topology = Topology.create ~n ~edges in
      assert (Analyze.is_weakly_connected topology);
      let r =
        checked_exec { Run.default_spec with Run.seed; max_rounds = Some 3000 } algo topology
      in
      r.Run.completed)

let accounting_balances =
  QCheck2.Test.make ~name:"message accounting balances under loss" ~count:40
    QCheck2.Gen.(
      let* seed = int_range 0 1000 in
      let* p10 = int_range 0 5 in
      return (seed, float_of_int p10 /. 10.0))
    (fun (seed, p) ->
      let topology = Generate.of_seed (Generate.K_out 3) ~n:64 ~seed in
      let fault = Repro_engine.Fault.with_loss Repro_engine.Fault.none ~p in
      let r =
        checked_exec
          { Run.default_spec with Run.seed; fault; max_rounds = Some 3000 }
          Hm_gossip.algorithm topology
      in
      r.Run.completed && r.Run.messages = r.Run.delivered + r.Run.dropped)

let final_knowledge_exact =
  (* On completion, every node's knowledge must be exactly the universe:
     nothing missing, nothing fabricated (capacity enforces the latter,
     cardinality the former). *)
  QCheck2.Test.make ~name:"completed knowledge is exactly the universe" ~count:40
    random_weak_topology_gen
    (fun (n, edges, seed) ->
      let topology = Topology.create ~n ~edges in
      let _, instances = Exec.instances ~seed Hm_gossip.algorithm topology in
      let handlers =
        {
          Repro_engine.Sim.round_begin =
            (fun ~node ~round ~send -> instances.(node).Algorithm.round ~round ~send);
          deliver = (fun ~node ~src ~round:_ p -> instances.(node).Algorithm.receive ~src p);
        }
      in
      let inv = Repro_engine.Trace.Invariants.create () in
      let outcome =
        Repro_engine.Sim.run ~n
          ~config:
            {
              Repro_engine.Sim.default_config with
              Repro_engine.Sim.max_rounds = 3000;
              trace = Repro_engine.Trace.Invariants.sink inv;
            }
          ~handlers ~measure:Payload.measure
          ~stop:(fun ~round:_ ~alive:_ ->
            Array.for_all (fun i -> Knowledge.is_complete i.Algorithm.knowledge) instances)
          ()
      in
      Repro_engine.Trace.Invariants.final_check inv outcome.Repro_engine.Sim.metrics;
      outcome.Repro_engine.Sim.completed
      && Array.for_all
           (fun i ->
             let k = i.Algorithm.knowledge in
             Knowledge.cardinal k = n
             && Array.length (Cset.to_array (Knowledge.contents k)) = n)
           instances)

(* --- regression cases --- *)

(* During development, hm's delta reports stranded knowledge at a
   peripheral head pocket on long paths (a two-node pocket at the path
   end never learned the global minimum, and vice versa). This exact
   instance stalled forever before the custody rules were added. *)
let test_path_pocket_regression () =
  let r =
    checked_exec
      { Run.default_spec with Run.seed = 3; max_rounds = Some 200 }
      Hm_gossip.algorithm (Generate.path 1024)
  in
  Alcotest.(check bool) "completed" true r.Run.completed;
  Alcotest.(check bool) "well under the old stall" true (r.Run.rounds < 60)

(* The faithful HLL99 pointer-jump must still fail where pull-only
   transfer is hopeless: a node whose identifier nobody holds can never
   be discovered. *)
let test_pull_only_hopeless_regression () =
  let r =
    checked_exec
      { Run.default_spec with Run.seed = 1; max_rounds = Some 300 }
      Pointer_jump.algorithm (Generate.inward_star 64)
  in
  Alcotest.(check bool) "pull-only cannot finish" false r.Run.completed

(* rand_gossip with unacknowledged push deltas is unsound: rumors can go
   extinct. Keep the ablation honestly broken. *)
let test_unacked_delta_unsound () =
  let algo =
    match Registry.find "rand:push/f1/delta" with Ok a -> a | Error e -> Alcotest.fail e
  in
  let failures =
    List.length
      (List.filter
         (fun seed ->
           let topo = Generate.of_seed (Generate.K_out 3) ~n:256 ~seed in
           not
             (checked_exec { Run.default_spec with Run.seed; max_rounds = Some 400 } algo topo)
               .Run.completed)
         [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check bool) "stalls on some seeds" true (failures > 0)

let () =
  Alcotest.run "props"
    [
      ( "random weak topologies",
        List.map QCheck_alcotest.to_alcotest
          (List.map completes_on_random_weak push_algorithms) );
      ( "global invariants",
        List.map QCheck_alcotest.to_alcotest [ accounting_balances; final_knowledge_exact ] );
      ( "regressions",
        [
          Alcotest.test_case "path pocket custody bug" `Quick test_path_pocket_regression;
          Alcotest.test_case "pull-only hopeless input" `Quick test_pull_only_hopeless_regression;
          Alcotest.test_case "unacked delta gossip unsound" `Quick test_unacked_delta_unsound;
        ] );
    ]
