(* The benchmark's own checks: span arithmetic, metric names, and that
   observing a run (wrapped callbacks, trace sinks) leaves it unchanged. *)

open Perfbench

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let test_self_time () =
  let s = Spans.create () in
  let record kind parent start stop = Spans.record s ~kind ~parent ~start ~stop in
  let run = record Probe.k_run (-1) 0.0 10.0 in
  let round = record Probe.k_round run 1.0 5.0 in
  ignore (record Probe.k_send round 2.0 3.0 : int);
  ignore (record Probe.k_send round 3.5 4.0 : int);
  ignore (record Probe.k_receive run 6.0 8.0 : int);
  let tot = Spans.totals s ~kinds:Probe.kinds in
  let self k = tot.(k).Spans.self in
  Alcotest.(check (float 1e-12)) "round self excludes its sends" 2.5 (self Probe.k_round);
  Alcotest.(check (float 1e-12)) "send total" 1.5 tot.(Probe.k_send).total;
  Alcotest.(check int) "send calls" 2 tot.(Probe.k_send).count;
  Alcotest.(check (float 1e-12)) "run self" 4.0 (self Probe.k_run);
  Alcotest.(check (float 1e-12))
    "self times sum to the run" 10.0
    (Array.fold_left (fun a (t : Spans.totals) -> a +. t.self) 0.0 tot)

let test_enter_leave_nesting () =
  let s = Spans.create () in
  let outer = Spans.enter s Probe.k_run in
  let inner = Spans.enter s Probe.k_round in
  Spans.leave s inner;
  let sibling = Spans.enter s Probe.k_receive in
  Spans.leave s sibling;
  Spans.leave s outer;
  Alcotest.(check int) "inner under outer" outer (Spans.parent s inner);
  Alcotest.(check int) "sibling under outer" outer (Spans.parent s sibling);
  Alcotest.(check int) "outer at top" (-1) (Spans.parent s outer);
  let after = Spans.enter s Probe.k_run in
  Alcotest.(check int) "back at top level" (-1) (Spans.parent s after)

let test_scale () =
  let r = Reference.nominal in
  Alcotest.(check (float 1e-12)) "at the nominal speed" 2.0 (Reference.scale 2.0 ~before:r ~after:r);
  Alcotest.(check (float 1e-12))
    "a host half as fast" 2.0
    (Reference.scale 4.0 ~before:(2.0 *. r) ~after:(2.0 *. r));
  Alcotest.(check (float 1e-12))
    "the mean of before and after" 3.0
    (Reference.scale 4.0 ~before:r ~after:(5.0 *. r /. 3.0))

let test_name_rule () =
  List.iter
    (fun good -> Alcotest.(check bool) (good ^ " is accepted") true (Report.valid_name good))
    [ "wall_s"; "discovery.receive_mwords"; "a-b.c_9" ];
  List.iter
    (fun bad -> Alcotest.(check bool) (bad ^ " is rejected") false (Report.valid_name bad))
    [ ""; "a b"; "x/y"; "é" ]

(* The names a measurement reports are valid and used once. *)
let check_names values =
  let names = List.map fst values in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Report.valid_name n)) names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* Traced and untraced runs of one workload at a reduced size agree on
   every deterministic count, pass every check, and the traced run's
   layer self times add up to its span time. The metrics the two runs
   give have valid, distinct names. *)
let observation_is_free (w : Workloads.t) () =
  let p = w.prepare ~seed:3 in
  let plain = Measure.sample p None in
  let probe = Probe.create () in
  let traced = Measure.sample p (Some probe) in
  let o = plain.outcome and t = traced.outcome in
  Alcotest.(check (list string)) "untraced checks pass" [] o.failures;
  Alcotest.(check (list string)) "traced checks pass" [] t.failures;
  Alcotest.(check string) "fingerprint" o.fingerprint t.fingerprint;
  Alcotest.(check int) "messages" o.messages t.messages;
  Alcotest.(check int) "wire_bytes" o.wire_bytes t.wire_bytes;
  Alcotest.(check (float 0.0)) "rounds" o.rounds t.rounds;
  Alcotest.(check (float 0.0)) "max_lag" o.max_lag t.max_lag;
  Alcotest.(check bool) "work was done" true (o.messages > 0);
  let layers = Measure.layers ~net:w.net probe traced in
  let get n = List.assoc n layers in
  let parts =
    [ "discovery.make_s"; "discovery.round_s"; "discovery.receive_s"; "service.step_s";
      "service.between_s" ]
    @ if w.net then [ "net.self_s" ] else [ "engine.self_s"; "engine.send_s" ]
  in
  let span_total =
    List.fold_left (fun a (wall, _) -> a +. wall) 0.0 (Measure.breakdown probe)
  in
  Alcotest.(check bool) "layers sum to the span time" true
    (close (List.fold_left (fun a n -> a +. get n) 0.0 parts) span_total);
  Alcotest.(check bool) "span time within the traced wall" true (span_total <= traced.wall);
  check_names (Measure.end_to_end ~setup_s:0.0 [ plain ]);
  check_names (Measure.per_layer ~net:w.net ~generate_s:p.generate_s [ (plain, traced, probe) ])

let reduced =
  [
    Workloads.hm_compact ~n:512 ();
    Workloads.paper_table ~n:128 ();
    Workloads.mux_lossy ~n:256 ();
    Workloads.soak ~n:32 ~ticks:400 ();
  ]

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "enter/leave nesting" `Quick test_enter_leave_nesting;
        ] );
      ("reference", [ Alcotest.test_case "scaling to the reference speed" `Quick test_scale ]);
      ("names", [ Alcotest.test_case "metric name rule" `Quick test_name_rule ]);
      ( "observation",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (observation_is_free w))
          reduced );
    ]
