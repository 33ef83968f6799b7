(* Tests for local termination detection: quiescence is reached, is safe
   (knowledge complete when the nodes stop), actually silences the
   system, and is reversible when late joiners arrive after the Halt
   wave. *)

open Repro_graph
open Repro_engine
open Repro_discovery

let build family ~n ~seed = Generate.of_seed family ~n ~seed

(* run hm with direct access to the instances *)
let drive ?(fault = Fault.none) ?(max_rounds = 2000) ~family ~n ~seed ~stop () =
  let topology = build family ~n ~seed in
  let _, instances = Exec.instances ~seed Hm_gossip.algorithm topology in
  let handlers =
    {
      Sim.round_begin = (fun ~node ~round ~send -> instances.(node).Algorithm.round ~round ~send);
      deliver = (fun ~node ~src ~round:_ p -> instances.(node).Algorithm.receive ~src p);
    }
  in
  let outcome =
    Sim.run ~n
      ~config:{ Sim.default_config with Sim.max_rounds; fault; engine_seed = seed }
      ~handlers ~measure:Payload.measure ~stop:(stop instances) ()
  in
  (instances, outcome)

let all_quiescent instances ~alive =
  let ok = ref true in
  Array.iteri
    (fun v i -> if alive v && not (i.Algorithm.is_quiescent ()) then ok := false)
    instances;
  !ok

let test_quiescence_safe () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let instances, outcome =
            drive ~family ~n:128 ~seed
              ~stop:(fun instances ~round:_ ~alive -> all_quiescent instances ~alive)
              ()
          in
          if not outcome.Sim.completed then
            Alcotest.failf "quiescence not reached on %s seed=%d" (Generate.family_name family)
              seed;
          Array.iteri
            (fun v i ->
              if not (Knowledge.is_complete i.Algorithm.knowledge) then
                Alcotest.failf "%s seed=%d: node %d halted with incomplete knowledge"
                  (Generate.family_name family) seed v)
            instances)
        [ 1; 2; 3 ])
    [ Generate.K_out 3; Generate.Path; Generate.Binary_tree; Generate.Star ]

let test_system_goes_silent () =
  (* run well past quiescence: the per-round message series must decay to
     exactly zero and stay there *)
  let _, outcome =
    drive ~family:(Generate.K_out 3) ~n:128 ~seed:1 ~max_rounds:60
      ~stop:(fun _ ~round:_ ~alive:_ -> false)
      ()
  in
  let series = Metrics.sent_series outcome.Sim.metrics in
  let last_active = ref 0 in
  Array.iteri (fun i sent -> if sent > 0 then last_active := i + 1) series;
  if !last_active >= 40 then
    Alcotest.failf "messages still flowing at round %d" !last_active;
  Alcotest.(check int) "total rounds ran" 60 outcome.Sim.rounds

let test_quiescent_after_complete () =
  let spec = { Run.default_spec with Run.seed = 3 } in
  let r_strong =
    Run.exec_spec spec Hm_gossip.algorithm (build (Generate.K_out 3) ~n:256 ~seed:3)
  in
  let r_quiet =
    Run.exec_spec
      { spec with Run.completion = Run.Quiescent }
      Hm_gossip.algorithm
      (build (Generate.K_out 3) ~n:256 ~seed:3)
  in
  Alcotest.(check bool) "both complete" true (r_strong.Run.completed && r_quiet.Run.completed);
  Alcotest.(check bool) "quiescence after completion" true
    (r_quiet.Run.rounds >= r_strong.Run.rounds)

let test_baselines_never_quiescent () =
  List.iter
    (fun (algo : Algorithm.t) ->
      let r =
        Run.exec_spec
          {
            Run.default_spec with
            Run.seed = 1;
            completion = Run.Quiescent;
            max_rounds = Some 100;
          }
          algo
          (build (Generate.K_out 3) ~n:64 ~seed:1)
      in
      if r.Run.completed then
        Alcotest.failf "%s claims quiescence without termination detection" algo.Algorithm.name)
    (List.filter (fun a -> a.Algorithm.name <> "hm") Registry.all)

let test_wakeup_on_late_join () =
  (* a straggler joins long after the Halt wave: the system must wake,
     integrate it, and re-halt with complete knowledge *)
  let n = 128 and seed = 2 in
  let fault = Fault.with_join Fault.none ~node:77 ~round:40 in
  let instances, outcome =
    drive ~family:(Generate.K_out 3) ~n ~seed ~fault ~max_rounds:2000
      ~stop:(fun instances ~round ~alive ->
        round >= 41 && all_quiescent instances ~alive)
      ()
  in
  Alcotest.(check bool) "re-quiesced after the join" true outcome.Sim.completed;
  Array.iteri
    (fun v i ->
      if not (Knowledge.is_complete i.Algorithm.knowledge) then
        Alcotest.failf "node %d incomplete after late join integration" v)
    instances;
  Alcotest.(check bool) "joiner integrated" true
    (Knowledge.is_complete instances.(77).Algorithm.knowledge)

let test_quiescent_cli_mode () =
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed = 5; completion = Run.Quiescent }
      Hm_gossip.algorithm
      (build (Generate.Clustered (4, 2)) ~n:96 ~seed:5)
  in
  Alcotest.(check bool) "quiescent completion works through Run" true r.Run.completed

let () =
  Alcotest.run "termination"
    [
      ( "safety",
        [
          Alcotest.test_case "quiescence is reached and safe" `Quick test_quiescence_safe;
          Alcotest.test_case "system goes silent" `Quick test_system_goes_silent;
          Alcotest.test_case "quiescence after completion" `Quick test_quiescent_after_complete;
        ] );
      ( "interface",
        [
          Alcotest.test_case "baselines never quiescent" `Quick test_baselines_never_quiescent;
          Alcotest.test_case "Run.Quiescent" `Quick test_quiescent_cli_mode;
        ] );
      ( "reversibility",
        [ Alcotest.test_case "late joiner wakes a halted system" `Quick test_wakeup_on_late_join ]
      );
    ]
