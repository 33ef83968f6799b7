(* Tests for the Run driver: completion predicates, growth tracking,
   and result plumbing. *)

open Repro_graph
open Repro_discovery

let kout ~n ~seed = Generate.of_seed (Generate.K_out 3) ~n ~seed

let test_result_fields () =
  let r = Run.exec_spec { Run.default_spec with Run.seed = 4 } Hm_gossip.algorithm (kout ~n:64 ~seed:4) in
  Alcotest.(check string) "algorithm name" "hm" r.Run.algorithm;
  Alcotest.(check int) "n" 64 r.Run.n;
  Alcotest.(check int) "seed" 4 r.Run.seed;
  Alcotest.(check bool) "completed" true r.Run.completed;
  Alcotest.(check bool) "rounds positive" true (r.Run.rounds > 0);
  Alcotest.(check int) "delivered + dropped = sent" r.Run.messages (r.Run.delivered + r.Run.dropped);
  Alcotest.(check bool) "peak <= total" true (r.Run.max_round_messages <= r.Run.messages);
  Alcotest.(check int) "alive length" 64 (Array.length r.Run.alive);
  Alcotest.(check bool) "all alive" true (Array.for_all (fun b -> b) r.Run.alive);
  Alcotest.(check int) "no growth tracking by default" 0 (Array.length r.Run.mean_knowledge_series)

let test_growth_tracking () =
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed = 4; track_growth = true }
      Hm_gossip.algorithm (kout ~n:64 ~seed:4)
  in
  Alcotest.(check int) "one sample per round" r.Run.rounds (Array.length r.Run.mean_knowledge_series);
  let series = r.Run.mean_knowledge_series in
  Array.iteri
    (fun i v ->
      if i > 0 && v < series.(i - 1) -. 1e-9 then Alcotest.fail "growth series not monotone")
    series;
  Alcotest.(check (float 1e-6)) "ends complete" 64.0 series.(Array.length series - 1)

let test_trivial_instances () =
  (* n = 1: already complete, zero rounds *)
  let t1 = Repro_graph.Topology.create ~n:1 ~edges:[] in
  let r = Run.exec_spec Run.default_spec Hm_gossip.algorithm t1 in
  Alcotest.(check bool) "completed" true r.Run.completed;
  Alcotest.(check int) "zero rounds" 0 r.Run.rounds;
  (* complete graph: one round of any push algorithm suffices *)
  let r2 = Run.exec_spec Run.default_spec Name_dropper.algorithm (Generate.complete 8) in
  Alcotest.(check bool) "complete graph" true r2.Run.completed

let test_leader_completion_weaker () =
  (* leader completion can only be reached at or before strong completion *)
  List.iter
    (fun (algo : Algorithm.t) ->
      let topo = kout ~n:128 ~seed:9 in
      let spec = { Run.default_spec with Run.seed = 9 } in
      let strong = Run.exec_spec { spec with Run.completion = Run.Strong } algo topo in
      let leader = Run.exec_spec { spec with Run.completion = Run.Leader } algo topo in
      Alcotest.(check bool) "both complete" true (strong.Run.completed && leader.Run.completed);
      if leader.Run.rounds > strong.Run.rounds then
        Alcotest.failf "%s: leader completion (%d) later than strong (%d)" algo.Algorithm.name
          leader.Run.rounds strong.Run.rounds)
    [ Hm_gossip.algorithm; Min_pointer.algorithm; Name_dropper.algorithm ]

let test_survivors_predicate_ignores_dead_knowledge () =
  (* Survivors_strong must not require anyone to know crashed nodes that
     nobody ever heard of: crash a node at round 1 on a seeded-directory
     graph where only the node itself knows its id at the start. *)
  let n = 64 and seed = 3 in
  let rng = Repro_util.Rng.substream ~seed ~index:0x70b0 in
  let topo = Generate.seeded_directory ~rng ~n ~seeds:8 ~fanout:2 in
  (* victim: a client node, whose id only the client itself knows *)
  let fault = Repro_engine.Fault.with_crash Repro_engine.Fault.none ~node:(n - 1) ~round:1 in
  let r =
    Run.exec_spec
      {
        Run.default_spec with
        Run.seed;
        fault;
        completion = Run.Survivors_strong;
        max_rounds = Some 2000;
      }
      Hm_gossip.algorithm topo
  in
  Alcotest.(check bool) "survivors complete without the ghost" true r.Run.completed

let test_max_rounds_respected () =
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed = 1; max_rounds = Some 2 }
      Name_dropper.algorithm (kout ~n:256 ~seed:1)
  in
  Alcotest.(check bool) "did not finish in 2 rounds" false r.Run.completed;
  Alcotest.(check int) "stopped at budget" 2 r.Run.rounds

let () =
  Alcotest.run "run"
    [
      ( "driver",
        [
          Alcotest.test_case "result fields" `Quick test_result_fields;
          Alcotest.test_case "growth tracking" `Quick test_growth_tracking;
          Alcotest.test_case "trivial instances" `Quick test_trivial_instances;
          Alcotest.test_case "max rounds respected" `Quick test_max_rounds_respected;
        ] );
      ( "completion predicates",
        [
          Alcotest.test_case "leader is weaker than strong" `Quick test_leader_completion_weaker;
          Alcotest.test_case "survivors ignore unknown ghosts" `Quick
            test_survivors_predicate_ignores_dead_knowledge;
        ] );
    ]
