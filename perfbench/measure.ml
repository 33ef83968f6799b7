(* Timing workload runs and set-ups, and turning the samples, and a
   traced run's spans, into the end-to-end and per-layer metrics. *)

type sample = {
  wall : float;  (** seconds in calls into the library *)
  scaled : float;  (** the same, scaled to the reference speed *)
  ref_s : float;  (** median time of the reference around the calls *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  outcome : Workloads.outcome;
}

let failed_outcome msg =
  {
    Workloads.messages = 0;
    wire_bytes = 0;
    rounds = 0.0;
    max_lag = 0.0;
    attempted = 1;
    failures = [ msg ];
    labels = [];
    fingerprint = "exception";
    layer = Workloads.net_layer [] @ Workloads.service_layer [];
  }

(* One workload run. Each call into the library starts from a collected
   heap, so its promotion counts repeat, and the process's peak RSS is
   that of the largest call: when the calls shared the heap, the peak
   depended on where the collector's cycle stood as a call began, and
   moved by 17% from seed to seed on the mux. Each call is timed, and so
   is the reference before and after it; the reference allocates
   nothing, and the few words this timing allocates are the same in
   every run. *)
let sample (p : Workloads.prepared) probe =
  let wall = ref 0.0 and scaled = ref 0.0 and refs = ref [ Reference.measure () ] in
  let time f =
    Gc.full_major ();
    let t0 = Spans.now () in
    let stop () =
      let t = Spans.now () -. t0 and before = List.hd !refs in
      let after = Reference.measure () in
      wall := !wall +. t;
      scaled := !scaled +. Reference.scale t ~before ~after;
      refs := after :: !refs
    in
    match f () with
    | x ->
      stop ();
      x
    | exception e ->
      stop ();
      raise e
  in
  let g0 = Gc.quick_stat () in
  let outcome =
    match p.run { time } probe with o -> o | exception e -> failed_outcome (Printexc.to_string e)
  in
  let g1 = Gc.quick_stat () in
  {
    wall = !wall;
    scaled = !scaled;
    ref_s = Report.median !refs;
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    major_words = g1.major_words -. g0.major_words;
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
    outcome;
  }

(* Set-up timings: back-to-back [prepare] calls in windows of at least
   50 ms, each between two timings of the reference, for [seconds] from a
   collected heap; each window's time per call, scaled to the reference
   speed. *)
let setup_windows (w : Workloads.t) ~seed ~seconds =
  Gc.full_major ();
  let start = Spans.now () and times = ref [] and before = ref (Reference.measure ()) in
  while !times = [] || Spans.now () -. start < seconds do
    let t0 = Spans.now () and count = ref 0 in
    while !count = 0 || Spans.now () -. t0 < 0.05 do
      ignore (w.prepare ~seed : Workloads.prepared);
      incr count
    done;
    let per_call = (Spans.now () -. t0) /. float_of_int !count in
    let after = Reference.measure () in
    times := Reference.scale per_call ~before:!before ~after :: !times;
    before := after
  done;
  !times

(* Repeat [step], at least once, while one more step of the median length
   so far would end less than half a step past [seconds]. *)
let repeat ~seconds step =
  let start = Spans.now () in
  let rec go acc lengths =
    let t0 = Spans.now () in
    let acc = step () :: acc and lengths = (Spans.now () -. t0) :: lengths in
    if Spans.now () -. start +. (Report.median lengths /. 2.0) < seconds then go acc lengths
    else List.rev acc
  in
  go [] []

(* Per-layer metrics of one traced run. Self times partition the run
   spans: discovery make/round/receive self, engine send, and the rest
   (engine.self_s, or net.self_s on the mux, which then also includes
   the core's send path reported as engine.send_s) sum to the traced
   run's span time. *)
let layers ~net probe (traced : sample) =
  let tot = Spans.totals (Probe.spans probe) ~kinds:Probe.kinds in
  let self k = tot.(k).Spans.self and calls k = float_of_int tot.(k).Spans.count in
  let rest = self Probe.k_run +. self Probe.k_engine_round +. self Probe.k_tick in
  [
    ("discovery.make_s", self Probe.k_make);
    ("discovery.round_s", self Probe.k_round);
    ("discovery.round_calls", calls Probe.k_round);
    ("discovery.receive_s", self Probe.k_receive);
    ("discovery.receive_calls", calls Probe.k_receive);
    ("discovery.receive_mwords", Probe.receive_mwords probe);
    ("engine.send_s", tot.(Probe.k_send).total);
    ("engine.send_calls", calls Probe.k_send);
    ("engine.self_s", if net then 0.0 else rest);
    ("engine.round_max_s", tot.(Probe.k_engine_round).max);
    ("net.self_s", if net then rest +. tot.(Probe.k_send).total else 0.0);
    ("service.step_s", tot.(Probe.k_step).total);
    ("service.between_s", tot.(Probe.k_between).total);
    ("service.tick_max_s", tot.(Probe.k_tick).max);
  ]
  @ traced.outcome.layer

(* Wall time and self time per kind of each top-level span (one per call
   into the library), in call order, for the printed breakdown. *)
let breakdown probe =
  let s = Probe.spans probe in
  let n = Spans.length s in
  let child = Spans.child_time s and top = Array.make n 0 and rows = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let p = Spans.parent s i in
    top.(i) <- (if p < 0 then i else top.(p));
    if not (Hashtbl.mem rows top.(i)) then Hashtbl.add rows top.(i) (Array.make Probe.kinds 0.0);
    let self = Hashtbl.find rows top.(i) and k = Spans.kind s i in
    self.(k) <- self.(k) +. Spans.duration s i -. Float.Array.get child i
  done;
  List.filter_map
    (fun i -> if Spans.parent s i < 0 then Some (Spans.duration s i, Hashtbl.find rows i) else None)
    (List.init n Fun.id)

(* The end-to-end metrics of an untraced measurement: set-up time, the
   median of each timed quantity over [samples], the process's peak RSS,
   and the deterministic counts, which every sample repeats. Times are
   scaled to the reference speed. *)
let end_to_end ~setup_s samples =
  let med f = Report.median (List.map f samples) in
  let o = (List.hd samples).outcome in
  [
    ("setup_s", setup_s);
    ("scaled_wall_s", med (fun s -> s.scaled));
    ("peak_rss_mb", Report.vm_hwm_mb () -. Reference.resident_mb);
    ("minor_mwords", med (fun s -> s.minor_words /. 1e6));
    ("promoted_mwords", med (fun s -> s.promoted_words /. 1e6));
    ("major_mwords", med (fun s -> s.major_words /. 1e6));
    ("messages", float_of_int o.messages);
    ("wire_bytes", float_of_int o.wire_bytes);
    ("rounds", o.rounds);
    ("max_lag_ticks", o.max_lag);
  ]

(* The per-layer metrics of a traced measurement, from [pairs] of an
   untraced sample and a traced one with its probe: layer figures are
   medians over the traced runs, GC counts, wall time and the reference's
   time medians over the untraced ones, and the overhead is traced minus
   untraced median scaled time. *)
let per_layer ~net ~generate_s pairs =
  let untraced = List.map (fun (u, _, _) -> u) pairs
  and traced = List.map (fun (_, t, _) -> t) pairs in
  let med f xs = Report.median (List.map f xs) in
  let scaled_u = med (fun s -> s.scaled) untraced and scaled_t = med (fun s -> s.scaled) traced in
  let runs = List.map (fun (_, t, probe) -> layers ~net probe t) pairs in
  [ ("graph.generate_s", generate_s) ]
  @ List.map
      (fun (name, _) -> (name, Report.median (List.filter_map (List.assoc_opt name) runs)))
      (List.hd runs)
  @ [
      ("gc.minor_collections", med (fun s -> float_of_int s.minor_collections) untraced);
      ("gc.major_collections", med (fun s -> float_of_int s.major_collections) untraced);
      ("gc.promoted_mwords", med (fun s -> s.promoted_words /. 1e6) untraced);
      ("run.wall_s", med (fun s -> s.wall) untraced);
      ("run.ref_s", med (fun s -> s.ref_s) untraced);
      ("trace.wall_s", med (fun s -> s.wall) traced);
      ("trace.overhead_s", scaled_t -. scaled_u);
    ]
