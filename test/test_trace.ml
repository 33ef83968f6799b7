(* Trace subsystem tests: golden JSONL regression traces (one per
   algorithm on a fixed 8-node topology), byte-stable reruns at any job
   count, the sink combinators, and the online invariant checker —
   positive runs under faults and hand-built violating event streams. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

let topology ~n ~seed =
  Generate.of_seed (Generate.K_out 3) ~n ~seed

let find name = match Registry.find name with Ok a -> a | Error e -> Alcotest.fail e

(* The trace of one synchronous run, as the JSONL string the CLI would
   write. Same spec shape as `discovery_cli trace`. *)
let sync_trace ?(fault = Fault.none) ?(completion = Run.Strong) ~seed algo topo =
  let buf = Buffer.create 4096 in
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed; fault; completion; trace = Trace.buffer buf }
      algo topo
  in
  (Buffer.contents buf, r)

let async_trace ?(fault = Fault.none) ?(completion = Run.Strong) ~seed algo topo =
  let buf = Buffer.create 4096 in
  let r =
    Run_async.exec_spec
      { Run_async.default_spec with Run_async.seed; fault; completion; trace = Trace.buffer buf }
      algo topo
  in
  (Buffer.contents buf, r)

(* --- golden traces ------------------------------------------------- *)

let golden_algos =
  [ "flooding"; "swamping"; "pointer_jump"; "name_dropper"; "min_pointer"; "rand_gossip"; "hm" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb when x = y -> go (i + 1) la lb
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of trace>")
    | [], y :: _ -> Some (i, "<end of trace>", y)
  in
  go 0 la lb

let check_traces_equal what a b =
  match first_divergence a b with
  | None -> ()
  | Some (i, x, y) ->
    Alcotest.failf "%s: traces diverge at event %d:\n  got      %s\n  expected %s" what i x y

let test_goldens () =
  List.iter
    (fun name ->
      let got, r = sync_trace ~seed:1 (find name) (topology ~n:8 ~seed:1) in
      Alcotest.(check bool) (name ^ " completed") true r.Run.completed;
      check_traces_equal name got (read_file (Filename.concat "golden" (name ^ ".jsonl"))))
    golden_algos

(* The committed async golden pins the Async_sim event stream of hm, and
   the live mux backend must reproduce it byte-for-byte through the
   cluster harness — the trace-identity contract of lib/net. *)
let test_golden_async () =
  let topo = topology ~n:8 ~seed:1 in
  let golden = read_file (Filename.concat "golden" "hm_async.jsonl") in
  let got, r = async_trace ~seed:1 (find "hm") topo in
  Alcotest.(check bool) "hm async completed" true r.Run_async.completed;
  check_traces_equal "hm async" got golden;
  let buf = Buffer.create 4096 in
  (* the cluster builds the same topology from (family, seed) *)
  let live =
    Repro_net.Cluster.run
      {
        (Repro_net.Cluster.default_spec (find "hm")) with
        backend = Repro_net.Backend.Mux;
        seed = 1;
        trace = Trace.buffer buf;
      }
  in
  Alcotest.(check bool) "mux completed" true live.Repro_net.Cluster.converged;
  check_traces_equal "mux vs async golden" (Buffer.contents buf) golden

let test_rerun_byte_identical () =
  let topo = topology ~n:8 ~seed:1 in
  List.iter
    (fun name ->
      let a, _ = sync_trace ~seed:1 (find name) topo in
      let b, _ = sync_trace ~seed:1 (find name) topo in
      Alcotest.(check string) (name ^ " sync rerun") a b)
    [ "hm"; "rand_gossip" ];
  let a, _ = async_trace ~seed:1 (find "hm") topo in
  let b, _ = async_trace ~seed:1 (find "hm") topo in
  Alcotest.(check string) "hm async rerun" a b

let test_jobs_invariance () =
  (* tracing through the domain pool: the per-seed traces must not
     depend on the worker count *)
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let trace_of seed =
    fst (sync_trace ~seed (find "hm") (topology ~n:8 ~seed))
  in
  let sequential = Pool.map ~jobs:1 trace_of seeds in
  let parallel = Pool.map ~jobs:4 trace_of seeds in
  List.iteri
    (fun i (a, b) -> check_traces_equal (Printf.sprintf "seed %d" (List.nth seeds i)) b a)
    (List.combine sequential parallel)

(* --- sinks --------------------------------------------------------- *)

let ev_send i = Trace.Send { src = i; dst = i + 1; pointers = i; bytes = i }

let test_null_sink () =
  Alcotest.(check bool) "null is null" true (Trace.is_null Trace.null);
  Trace.emit Trace.null (ev_send 1);
  (* emit on null is a no-op *)
  Trace.flush Trace.null;
  let buf = Buffer.create 16 in
  Alcotest.(check bool) "buffer sink is not null" false (Trace.is_null (Trace.buffer buf))

let test_json_encoding () =
  let cases =
    [
      (Trace.Round_begin { round = 3 }, {|{"ev":"round_begin","round":3}|});
      (Trace.Tick { node = 2; time = 1.5; count = 7 }, {|{"ev":"tick","node":2,"time":1.5,"count":7}|});
      (Trace.Send { src = 0; dst = 4; pointers = 3; bytes = 9 },
       {|{"ev":"send","src":0,"dst":4,"pointers":3,"bytes":9}|});
      (Trace.Deliver { src = 0; dst = 4 }, {|{"ev":"deliver","src":0,"dst":4}|});
      (Trace.Drop { src = 1; dst = 2; reason = Trace.Loss },
       {|{"ev":"drop","src":1,"dst":2,"reason":"loss"}|});
      (Trace.Drop { src = 1; dst = 2; reason = Trace.Dead_dst },
       {|{"ev":"drop","src":1,"dst":2,"reason":"dead_dst"}|});
      (Trace.Drop { src = 1; dst = 2; reason = Trace.Unjoined_dst },
       {|{"ev":"drop","src":1,"dst":2,"reason":"unjoined_dst"}|});
      (Trace.Crash { node = 5 }, {|{"ev":"crash","node":5}|});
      (Trace.Join { node = 6 }, {|{"ev":"join","node":6}|});
      (Trace.Complete, {|{"ev":"complete"}|});
      (Trace.Give_up, {|{"ev":"give_up"}|});
    ]
  in
  List.iter
    (fun (ev, json) -> Alcotest.(check string) json json (Trace_json.event ev))
    cases;
  (* %.12g: compact, trailing-zero-free, byte-stable across reruns *)
  Alcotest.(check string) "float formatting"
    {|{"ev":"tick","node":0,"time":0.3,"count":1}|}
    (Trace_json.event (Trace.Tick { node = 0; time = 0.3; count = 1 }));
  let t1 = Trace_json.event (Trace.Tick { node = 0; time = 0.1 +. 0.2; count = 1 }) in
  let t2 = Trace_json.event (Trace.Tick { node = 0; time = 0.1 +. 0.2; count = 1 }) in
  Alcotest.(check string) "equal floats print identically" t1 t2

let test_tee_and_callback () =
  let b1 = Buffer.create 64 and b2 = Buffer.create 64 in
  let flushed = ref 0 in
  let count = ref 0 in
  let counting = Trace.callback ~flush:(fun () -> incr flushed) (fun _ -> incr count) in
  let sink = Trace.tee (Trace.buffer b1) (Trace.tee (Trace.buffer b2) counting) in
  List.iter (Trace.emit sink) [ ev_send 0; ev_send 1; Trace.Complete ];
  Trace.flush sink;
  Alcotest.(check string) "tee duplicates" (Buffer.contents b1) (Buffer.contents b2);
  Alcotest.(check int) "callback saw every event" 3 !count;
  Alcotest.(check int) "flush propagates" 1 !flushed;
  (* tee with null collapses *)
  let s = Trace.buffer b1 in
  Alcotest.(check bool) "tee null s = s" false (Trace.is_null (Trace.tee Trace.null s));
  Alcotest.(check bool) "tee null null = null" true (Trace.is_null (Trace.tee Trace.null Trace.null))

let test_ring () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.Ring.create: capacity must be positive") (fun () ->
      ignore (Trace.Ring.create ~capacity:0));
  let ring = Trace.Ring.create ~capacity:4 in
  let sink = Trace.Ring.sink ring in
  Alcotest.(check int) "empty length" 0 (Trace.Ring.length ring);
  Trace.emit sink (ev_send 0);
  Trace.emit sink (ev_send 1);
  Alcotest.(check int) "partial length" 2 (Trace.Ring.length ring);
  Alcotest.(check int) "no drops yet" 0 (Trace.Ring.dropped ring);
  for i = 2 to 9 do
    Trace.emit sink (ev_send i)
  done;
  Alcotest.(check int) "bounded length" 4 (Trace.Ring.length ring);
  Alcotest.(check int) "overwrites counted" 6 (Trace.Ring.dropped ring);
  Alcotest.(check (list string)) "last events, oldest first"
    (List.map (fun i -> Trace_json.event (ev_send i)) [ 6; 7; 8; 9 ])
    (Array.to_list (Array.map Trace_json.event (Trace.Ring.contents ring)))

let test_ring_flight_recorder () =
  (* a ring on a real run holds exactly the trailing window *)
  let full = Buffer.create 4096 in
  let ring = Trace.Ring.create ~capacity:16 in
  let r =
    Run.exec_spec
      {
        Run.default_spec with
        Run.seed = 1;
        trace = Trace.tee (Trace.buffer full) (Trace.Ring.sink ring);
      }
      (find "hm") (topology ~n:8 ~seed:1)
  in
  Alcotest.(check bool) "completed" true r.Run.completed;
  let all = String.split_on_char '\n' (String.trim (Buffer.contents full)) in
  let tail =
    List.filteri (fun i _ -> i >= List.length all - 16) all
  in
  Alcotest.(check (list string)) "ring = trailing window" tail
    (Array.to_list (Array.map Trace_json.event (Trace.Ring.contents ring)));
  Alcotest.(check int) "dropped = total - capacity" (List.length all - 16)
    (Trace.Ring.dropped ring)

(* --- invariant checker: real runs --------------------------------- *)

let checked_sync ?fault ?completion ~seed algo topo =
  let inv = Trace.Invariants.create () in
  let fault = Option.value fault ~default:Fault.none in
  let completion = Option.value completion ~default:Run.Strong in
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed; fault; completion; trace = Trace.Invariants.sink inv }
      algo topo
  in
  Trace.Invariants.final_check inv r.Run.metrics;
  (inv, r)

let test_invariants_clean_runs () =
  List.iter
    (fun name ->
      let inv, r = checked_sync ~seed:1 (find name) (topology ~n:8 ~seed:1) in
      Alcotest.(check bool) (name ^ " completed") true r.Run.completed;
      Alcotest.(check bool) (name ^ " saw events") true (Trace.Invariants.events_seen inv > 0))
    golden_algos

let test_invariants_under_faults () =
  let topo = topology ~n:32 ~seed:2 in
  (* loss *)
  let _, r = checked_sync ~fault:(Fault.with_loss Fault.none ~p:0.3) ~seed:2 (find "hm") topo in
  Alcotest.(check bool) "loss run completed" true r.Run.completed;
  Alcotest.(check bool) "some drops" true (r.Run.dropped > 0);
  (* crashes *)
  let fault = Fault.with_random_crashes Fault.none ~seed:2 ~n:32 ~count:5 in
  let _, r = checked_sync ~fault ~completion:Run.Survivors_strong ~seed:2 (find "hm") topo in
  Alcotest.(check bool) "crash run completed" true r.Run.completed;
  (* late joins *)
  let fault = Fault.with_joins Fault.none [ (3, 4); (7, 6); (11, 4) ] in
  let _, r = checked_sync ~fault ~seed:2 (find "hm") topo in
  Alcotest.(check bool) "churn run completed" true r.Run.completed;
  (* a run that gives up must still satisfy every invariant *)
  let inv = Trace.Invariants.create () in
  let r =
    Run.exec_spec
      {
        Run.default_spec with
        Run.seed = 1;
        max_rounds = Some 5;
        trace = Trace.Invariants.sink inv;
      }
      (find "flooding") (Generate.path 64)
  in
  Alcotest.(check bool) "budget exhausted" false r.Run.completed;
  Trace.Invariants.final_check inv r.Run.metrics

let test_invariants_async () =
  let topo = topology ~n:16 ~seed:3 in
  let check ?(fault = Fault.none) ?(completion = Run.Strong) name =
    let inv = Trace.Invariants.create () in
    let r =
      Run_async.exec_spec
        { Run_async.default_spec with Run_async.seed = 3; fault; completion;
          trace = Trace.Invariants.sink inv }
        (find "hm") topo
    in
    Alcotest.(check bool) (name ^ " completed") true r.Run_async.completed;
    Trace.Invariants.final_check inv r.Run_async.metrics
  in
  check "clean";
  check ~fault:(Fault.with_loss Fault.none ~p:0.2) "lossy";
  check
    ~fault:(Fault.with_random_crashes Fault.none ~seed:3 ~n:16 ~count:3)
    ~completion:Run.Survivors_strong "crashy";
  check ~fault:(Fault.with_joins Fault.none [ (2, 3); (9, 5) ]) "churny"

(* --- invariant checker: violations -------------------------------- *)

let expect_violation name events =
  let inv = Trace.Invariants.create () in
  let sink = Trace.Invariants.sink inv in
  match List.iter (Trace.emit sink) events with
  | () -> Alcotest.failf "%s: no violation raised" name
  | exception Trace.Invariants.Violation _ -> ()

let test_violations () =
  let open Trace in
  expect_violation "round skip" [ Round_begin { round = 2 } ];
  expect_violation "round repeat"
    [ Round_begin { round = 1 }; Round_begin { round = 2 }; Round_begin { round = 2 } ];
  expect_violation "unresolved messages at round boundary"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Join { node = 1 };
      Send { src = 0; dst = 1; pointers = 1; bytes = 1 };
      Round_begin { round = 2 };
    ];
  expect_violation "unresolved messages at completion"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Send { src = 0; dst = 0; pointers = 1; bytes = 1 };
      Complete;
    ];
  expect_violation "send from unjoined node"
    [ Round_begin { round = 1 }; Send { src = 0; dst = 1; pointers = 1; bytes = 1 } ];
  expect_violation "send from crashed node"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Crash { node = 0 };
      Send { src = 0; dst = 1; pointers = 1; bytes = 1 };
    ];
  expect_violation "delivery without a send"
    [ Round_begin { round = 1 }; Join { node = 1 }; Deliver { src = 0; dst = 1 } ];
  expect_violation "delivery to crashed node"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Join { node = 1 };
      Crash { node = 1 };
      Send { src = 0; dst = 1; pointers = 1; bytes = 1 };
      Deliver { src = 0; dst = 1 };
    ];
  expect_violation "drop blamed on a live destination"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Join { node = 1 };
      Send { src = 0; dst = 1; pointers = 1; bytes = 1 };
      Drop { src = 0; dst = 1; reason = Dead_dst };
    ];
  expect_violation "drop blamed on unjoined destination that joined"
    [
      Round_begin { round = 1 };
      Join { node = 0 };
      Join { node = 1 };
      Send { src = 0; dst = 1; pointers = 1; bytes = 1 };
      Drop { src = 0; dst = 1; reason = Unjoined_dst };
    ];
  expect_violation "double join" [ Join { node = 0 }; Join { node = 0 } ];
  expect_violation "double crash"
    [ Join { node = 0 }; Crash { node = 0 }; Crash { node = 0 } ];
  expect_violation "join after crash" [ Crash { node = 0 }; Join { node = 0 } ];
  expect_violation "event after completion" [ Complete; Round_begin { round = 1 } ];
  expect_violation "time goes backwards"
    [
      Join { node = 0 };
      Tick { node = 0; time = 1.0; count = 1 };
      Tick { node = 0; time = 0.5; count = 2 };
    ];
  expect_violation "tick counts must be consecutive"
    [ Join { node = 0 }; Tick { node = 0; time = 0.5; count = 2 } ];
  expect_violation "tick from crashed node"
    [ Join { node = 0 }; Crash { node = 0 }; Tick { node = 0; time = 1.0; count = 1 } ]

let test_final_check_violations () =
  let expect name f =
    match f () with
    | () -> Alcotest.failf "%s: no violation raised" name
    | exception Trace.Invariants.Violation _ -> ()
  in
  (* no termination event *)
  expect "unterminated run" (fun () ->
      Trace.Invariants.final_check (Trace.Invariants.create ()) (Metrics.create ()));
  (* trace and metrics disagree *)
  expect "metrics disagreement" (fun () ->
      let inv = Trace.Invariants.create () in
      List.iter (Trace.emit (Trace.Invariants.sink inv)) [ Trace.Round_begin { round = 1 }; Trace.Complete ];
      let m = Metrics.create () in
      Metrics.begin_round m;
      Metrics.record_send m ~pointers:1 ~bytes:1;
      Metrics.record_delivery m;
      Trace.Invariants.final_check inv m);
  (* the happy path really is happy *)
  let inv = Trace.Invariants.create () in
  List.iter (Trace.emit (Trace.Invariants.sink inv)) [ Trace.Round_begin { round = 1 }; Trace.Complete ];
  Trace.Invariants.final_check inv (Metrics.create ());
  Alcotest.(check int) "events counted" 2 (Trace.Invariants.events_seen inv)

let () =
  Alcotest.run "trace"
    [
      ( "golden traces",
        [
          Alcotest.test_case "match committed goldens" `Quick test_goldens;
          Alcotest.test_case "async golden and mux identity" `Quick test_golden_async;
          Alcotest.test_case "reruns are byte-identical" `Quick test_rerun_byte_identical;
          Alcotest.test_case "jobs=1 and jobs=4 traces agree" `Quick test_jobs_invariance;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null" `Quick test_null_sink;
          Alcotest.test_case "json encoding" `Quick test_json_encoding;
          Alcotest.test_case "tee and callback" `Quick test_tee_and_callback;
          Alcotest.test_case "ring buffer" `Quick test_ring;
          Alcotest.test_case "ring as flight recorder" `Quick test_ring_flight_recorder;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean runs pass" `Quick test_invariants_clean_runs;
          Alcotest.test_case "fault runs pass" `Quick test_invariants_under_faults;
          Alcotest.test_case "async runs pass" `Quick test_invariants_async;
          Alcotest.test_case "violations detected" `Quick test_violations;
          Alcotest.test_case "final check" `Quick test_final_check_violations;
        ] );
    ]
