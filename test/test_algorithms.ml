(* End-to-end correctness of every algorithm: completion on the topology
   families where completion is guaranteed, documented non-completion
   elsewhere, and the knowledge-soundness invariants. *)

open Repro_util
open Repro_graph
open Repro_discovery

let build family ~n ~seed =
  let rng = Rng.substream ~seed ~index:0x70b0 in
  Generate.build family ~rng ~n

let exec ?(n = 96) ?(seed = 1) ?max_rounds algo family =
  Run.exec_spec { Run.default_spec with Run.seed; max_rounds } algo (build family ~n ~seed)

let check_completes ?(n = 96) ?max_rounds algo family () =
  let r = exec ~n ?max_rounds algo family in
  if not r.Run.completed then
    Alcotest.failf "%s did not complete on %s within %d rounds" r.Run.algorithm
      (Generate.family_name family) r.Run.rounds

let check_dnf ?(n = 64) ~max_rounds algo family () =
  let r = exec ~n ~max_rounds algo family in
  if r.Run.completed then
    Alcotest.failf "%s unexpectedly completed on %s in %d rounds" r.Run.algorithm
      (Generate.family_name family) r.Run.rounds

(* The families on which complete discovery is achievable by every
   algorithm class (symmetric, or strongly connected). *)
let universal_families =
  [
    Generate.Path;
    Generate.Cycle;
    Generate.Directed_cycle;
    Generate.Star;
    Generate.Binary_tree;
    Generate.Grid;
    Generate.Hypercube;
    Generate.Lollipop;
    Generate.K_out 3;
    Generate.Clustered (4, 2);
  ]

(* Families that are only weakly connected: push-capable algorithms
   complete, flooding and pull-only RPJ provably cannot. *)
let weak_only_families = [ Generate.Inward_star; Generate.Seeded_directory (8, 2) ]

let completion_cases (algo : Algorithm.t) =
  List.map
    (fun family ->
      Alcotest.test_case
        (Printf.sprintf "%s on %s" algo.Algorithm.name (Generate.family_name family))
        `Quick
        (check_completes ~max_rounds:2000 algo family))
    universal_families

let push_algorithms =
  [
    Swamping.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
    Rand_gossip.algorithm;
    Hm_gossip.algorithm;
  ]

let weak_only_cases =
  List.concat_map
    (fun family ->
      List.map
        (fun (algo : Algorithm.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" algo.Algorithm.name (Generate.family_name family))
            `Quick
            (check_completes ~max_rounds:2000 algo family))
        push_algorithms
      @ [
          Alcotest.test_case
            (Printf.sprintf "flooding cannot finish on %s" (Generate.family_name family))
            `Quick
            (check_dnf ~max_rounds:400 Flooding.algorithm family);
          Alcotest.test_case
            (Printf.sprintf "pointer_jump cannot finish on %s" (Generate.family_name family))
            `Quick
            (check_dnf ~max_rounds:400 Pointer_jump.algorithm family);
        ])
    weak_only_families

(* Invariant harness: run an algorithm with a wrapper that checks
   per-round invariants. *)
let check_invariants (algo : Algorithm.t) family () =
  let n = 64 and seed = 2 in
  let topology = build family ~n ~seed in
  let _, instances = Exec.instances ~seed algo topology in
  let prev_card = Array.make n 0 in
  let handlers =
    {
      Repro_engine.Sim.round_begin =
        (fun ~node ~round ~send -> instances.(node).Algorithm.round ~round ~send);
      deliver =
        (fun ~node ~src ~round:_ payload -> instances.(node).Algorithm.receive ~src payload);
    }
  in
  let stop ~round:_ ~alive:_ =
    Array.iteri
      (fun v inst ->
        let k = inst.Algorithm.knowledge in
        let card = Knowledge.cardinal k in
        (* monotone growth *)
        if card < prev_card.(v) then Alcotest.failf "node %d knowledge shrank" v;
        prev_card.(v) <- card;
        (* self-knowledge and initial neighbors never lost *)
        if not (Knowledge.knows k v) then Alcotest.failf "node %d forgot itself" v;
        Array.iter
          (fun u ->
            if not (Knowledge.knows k u) then Alcotest.failf "node %d forgot a neighbor" v)
          (Topology.out_neighbors topology v))
      instances;
    Array.for_all (fun i -> Knowledge.is_complete i.Algorithm.knowledge) instances
  in
  let outcome =
    Repro_engine.Sim.run ~n
      ~config:{ Repro_engine.Sim.default_config with Repro_engine.Sim.max_rounds = 2000 }
      ~handlers ~measure:Payload.measure ~stop ()
  in
  Alcotest.(check bool) "completed" true outcome.Repro_engine.Sim.completed

let invariant_cases =
  List.concat_map
    (fun (algo : Algorithm.t) ->
      List.map
        (fun family ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" algo.Algorithm.name (Generate.family_name family))
            `Quick (check_invariants algo family))
        [ Generate.K_out 3; Generate.Path; Generate.Directed_cycle ])
    Registry.all

(* hm ablation sanity *)
let test_hm_nobroadcast_stalls () =
  check_dnf ~n:96 ~max_rounds:300 (Hm_gossip.with_variant ~broadcast:Hm_gossip.Off ()) (Generate.K_out 3) ()

let test_hm_full_completes () =
  check_completes ~n:96 ~max_rounds:100 (Hm_gossip.with_variant ~upward:Hm_gossip.Full ())
    (Generate.K_out 3) ()

let test_hm_cap_completes_slowly () =
  (* a generous cap still completes, just not quickly *)
  let capped = Hm_gossip.with_variant ~broadcast:(Hm_gossip.Cap 32) () in
  let r_cap = exec ~n:96 ~max_rounds:2000 capped (Generate.K_out 3) in
  let r_full = exec ~n:96 ~max_rounds:2000 Hm_gossip.algorithm (Generate.K_out 3) in
  Alcotest.(check bool) "capped completes" true r_cap.Run.completed;
  Alcotest.(check bool) "uncapped no slower" true (r_full.Run.rounds <= r_cap.Run.rounds)

let test_rand_modes_complete () =
  List.iter
    (fun spec ->
      match Registry.find spec with
      | Error e -> Alcotest.fail e
      | Ok algo -> check_completes ~n:96 ~max_rounds:500 algo (Generate.K_out 3) ())
    [ "rand:push/f1"; "rand:pull/f1"; "rand:push_pull/f2"; "rand:push_pull/f1/nbr" ]

(* Complexity shape guards: cheap regression tests asserting the
   qualitative ordering the paper claims, on a mid-size instance. *)
let test_round_ordering () =
  let n = 1024 in
  let rounds algo =
    let r = exec ~n ~max_rounds:2000 algo (Generate.K_out 3) in
    Alcotest.(check bool) (algo.Algorithm.name ^ " completed") true r.Run.completed;
    r.Run.rounds
  in
  let hm = rounds Hm_gossip.algorithm in
  let rand = rounds Rand_gossip.algorithm in
  let nd = rounds Name_dropper.algorithm in
  if not (hm < rand && rand < nd) then
    Alcotest.failf "expected hm (%d) < rand_gossip (%d) < name_dropper (%d)" hm rand nd;
  if hm > 12 then Alcotest.failf "hm took %d rounds at n=%d — sub-logarithmic claim broken" hm n

let test_swamping_message_blowup () =
  let n = 256 in
  let r_sw = exec ~n Swamping.algorithm (Generate.K_out 3) in
  let r_hm = exec ~n Hm_gossip.algorithm (Generate.K_out 3) in
  Alcotest.(check bool) "swamping quadratic vs hm near-linear" true
    (r_sw.Run.messages > 10 * r_hm.Run.messages)

let () =
  Alcotest.run "algorithms"
    [
      ("flooding completes", completion_cases Flooding.algorithm);
      ("swamping completes", completion_cases Swamping.algorithm);
      ("pointer_jump completes", completion_cases Pointer_jump.algorithm);
      ("name_dropper completes", completion_cases Name_dropper.algorithm);
      ("min_pointer completes", completion_cases Min_pointer.algorithm);
      ("rand_gossip completes", completion_cases Rand_gossip.algorithm);
      ("hm completes", completion_cases Hm_gossip.algorithm);
      ("weakly-connected-only inputs", weak_only_cases);
      ("per-round invariants", invariant_cases);
      ( "variants",
        [
          Alcotest.test_case "hm without broadcast stalls" `Quick test_hm_nobroadcast_stalls;
          Alcotest.test_case "hm full reports complete" `Quick test_hm_full_completes;
          Alcotest.test_case "hm capped broadcast completes" `Quick test_hm_cap_completes_slowly;
          Alcotest.test_case "rand_gossip modes complete" `Quick test_rand_modes_complete;
        ] );
      ( "complexity shapes",
        [
          Alcotest.test_case "round ordering hm < rand < nd" `Slow test_round_ordering;
          Alcotest.test_case "swamping message blowup" `Quick test_swamping_message_blowup;
        ] );
    ]
