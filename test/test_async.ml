(* Tests for the asynchronous engine and the algorithms running on it. *)

open Repro_engine
open Repro_graph
open Repro_discovery

let kout ~n ~seed = Generate.of_seed (Generate.K_out 3) ~n ~seed

(* --- engine semantics --- *)

let test_validation () =
  let handlers =
    {
      Sim.round_begin = (fun ~node:_ ~round:_ ~send:_ -> ());
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
    }
  in
  let run config =
    ignore
      (Async_sim.run ~n:1 ~config ~handlers ~measure:(fun _ -> 0)
         ~stop:(fun ~time:_ ~alive:_ -> false)
         ())
  in
  Alcotest.check_raises "horizon" (Invalid_argument "Async_sim.run: horizon must be positive")
    (fun () -> run { Async_sim.default_config with Async_sim.horizon = 0.0 });
  Alcotest.check_raises "jitter" (Invalid_argument "Async_sim.run: jitter must be in [0, 1)")
    (fun () -> run { Async_sim.default_config with Async_sim.tick_jitter = 1.0 });
  Alcotest.check_raises "latency" (Invalid_argument "Async_sim.run: invalid latency interval")
    (fun () -> run { Async_sim.default_config with Async_sim.latency_min = 0.5; latency_max = 0.1 })

let test_ticks_happen_at_period_rate () =
  let ticks_of = Array.make 2 0 in
  let handlers =
    {
      Sim.round_begin = (fun ~node ~round:_ ~send:_ -> ticks_of.(node) <- ticks_of.(node) + 1);
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
    }
  in
  let config = { Async_sim.default_config with Async_sim.horizon = 100.0; tick_jitter = 0.2 } in
  let outcome =
    Async_sim.run ~n:2 ~config ~handlers ~measure:(fun _ -> 0)
      ~stop:(fun ~time:_ ~alive:_ -> false)
      ()
  in
  Alcotest.(check bool) "ran to horizon" false outcome.Async_sim.completed;
  (* periods lie in [0.8, 1.2], so 100 time units give 83..125 ticks *)
  Array.iteri
    (fun v t ->
      if t < 80 || t > 130 then Alcotest.failf "node %d ticked %d times in 100 units" v t)
    ticks_of;
  Alcotest.(check int) "outcome counts all ticks" (ticks_of.(0) + ticks_of.(1))
    outcome.Async_sim.ticks

let test_messages_arrive_within_latency_bounds () =
  let send_time = Hashtbl.create 16 in
  let ok = ref true in
  let clock = ref 0.0 in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round ~send ->
          if node = 0 then begin
            Hashtbl.replace send_time round !clock;
            send ~dst:1 round
          end);
      deliver =
        (fun ~node:_ ~src:_ ~round:_ msg ->
          match Hashtbl.find_opt send_time msg with
          | None -> ok := false
          | Some _ -> ());
    }
  in
  (* the engine has no explicit clock exposure; we approximate by
     checking only causality (delivery after send) via the hashtable *)
  let config = { Async_sim.default_config with Async_sim.horizon = 50.0 } in
  let outcome =
    Async_sim.run ~n:2 ~config ~handlers ~measure:(fun _ -> 0)
      ~stop:(fun ~time ~alive:_ ->
        clock := time;
        false)
      ()
  in
  Alcotest.(check bool) "all deliveries causally follow sends" true !ok;
  Alcotest.(check bool) "messages flowed" true (Metrics.messages_delivered outcome.Async_sim.metrics > 0)

let test_determinism () =
  let run () =
    let r =
      Run_async.exec_spec
        { Run_async.default_spec with Run_async.seed = 7 }
        Hm_gossip.algorithm (kout ~n:96 ~seed:7)
    in
    (r.Run_async.completed, r.Run_async.time, r.Run_async.ticks, r.Run_async.messages)
  in
  Alcotest.(check bool) "identical outcomes" true (run () = run ())

let test_crash_in_async () =
  let fault = Fault.with_crash Fault.none ~node:0 ~round:3 in
  let r =
    Run_async.exec_spec
      {
        Run_async.default_spec with
        Run_async.seed = 2;
        fault;
        completion = Run.Survivors_strong;
      }
      Hm_gossip.algorithm (kout ~n:64 ~seed:2)
  in
  Alcotest.(check bool) "survivors complete" true r.Run_async.completed;
  Alcotest.(check bool) "victim dead" false r.Run_async.alive.(0)

(* --- algorithms under asynchrony --- *)

let test_algorithms_complete_async () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun seed ->
          let r =
            Run_async.exec_spec
              { Run_async.default_spec with Run_async.seed }
              algo (kout ~n:96 ~seed)
          in
          if not r.Run_async.completed then
            Alcotest.failf "%s seed=%d did not complete asynchronously (t=%.1f)"
              algo.Algorithm.name seed r.Run_async.time)
        [ 1; 2; 3 ])
    [
      Hm_gossip.algorithm;
      Name_dropper.algorithm;
      Rand_gossip.algorithm;
      Min_pointer.algorithm;
      Swamping.algorithm;
    ]

let test_async_tracks_sync_rounds () =
  (* completion time in time units should be within a small factor of the
     synchronous round count — asynchrony must not change the asymptotics *)
  let n = 256 and seed = 4 in
  let topo = kout ~n ~seed in
  let sync = Run.exec_spec { Run.default_spec with Run.seed } Hm_gossip.algorithm topo in
  let asyn =
    Run_async.exec_spec { Run_async.default_spec with Run_async.seed } Hm_gossip.algorithm topo
  in
  Alcotest.(check bool) "both complete" true (sync.Run.completed && asyn.Run_async.completed);
  let ratio = asyn.Run_async.time /. float_of_int sync.Run.rounds in
  if ratio > 4.0 then
    Alcotest.failf "async completion %.1f >> sync rounds %d" asyn.Run_async.time sync.Run.rounds

let test_async_with_loss_and_jitter () =
  let fault = Fault.with_loss Fault.none ~p:0.2 in
  let r =
    Run_async.exec_spec
      {
        Run_async.default_spec with
        Run_async.seed = 5;
        fault;
        tick_jitter = 0.3;
        latency = (0.1, 2.5);
      }
      Hm_gossip.algorithm (kout ~n:96 ~seed:5)
  in
  Alcotest.(check bool) "heavy asynchrony tolerated" true r.Run_async.completed

let () =
  Alcotest.run "async"
    [
      ( "engine",
        [
          Alcotest.test_case "config validation" `Quick test_validation;
          Alcotest.test_case "tick rate" `Quick test_ticks_happen_at_period_rate;
          Alcotest.test_case "delivery causality" `Quick test_messages_arrive_within_latency_bounds;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "crash" `Quick test_crash_in_async;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "all complete asynchronously" `Quick test_algorithms_complete_async;
          Alcotest.test_case "async time tracks sync rounds" `Quick test_async_tracks_sync_rounds;
          Alcotest.test_case "loss + heavy jitter" `Quick test_async_with_loss_and_jitter;
        ] );
    ]
