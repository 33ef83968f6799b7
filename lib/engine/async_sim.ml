open Repro_util

type config = {
  horizon : float;
  tick_jitter : float;
  latency_min : float;
  latency_max : float;
  fault : Fault.t;
  engine_seed : int;
  trace : Trace.sink;
}

type outcome = {
  completed : bool;
  time : float;
  ticks : int;
  metrics : Metrics.t;
  alive : bool array;
}

(* The clock: the engine stream, per-node periods, the lifecycle times
   and one event heap ordered on (time, insertion sequence), so equal
   times resolve in push order. [Monitor] doubles as the heap's dummy. *)
type 'msg event = Tick of int | Deliver of { src : int; dst : int; msg : 'msg } | Monitor

type 'msg clock = {
  n : int;
  config : config;
  rng : Rng.t;
  period : float array;
  alive : bool array;
  crash_time : float array;
  restart_time : float array;
  join_time : float array;
  (* crashes are applied lazily, so a node that crashes before ever
     activating never produces a Crash event; remember which crashes
     were announced so drop reasons match the emitted lifecycle *)
  crash_emitted : bool array;
  heap : 'msg event Heap.t;
  mutable now : float;
  mutable ticks : int;
}

type 'msg hooks = {
  join : node:int -> restart:bool -> unit;
  crash : node:int -> restarts:bool -> unit;
  tick : node:int -> unit;
  deliver : src:int -> dst:int -> 'msg -> unit;
  lost : src:int -> dst:int -> Trace.drop_reason -> unit;
}

let schedule_times n pairs ~default =
  let times = Array.make n default in
  List.iter (fun (node, round) -> if node < n then times.(node) <- float_of_int round) pairs;
  times

let clock ~who ~n config =
  if n < 0 then invalid_arg (who ^ ": negative node count");
  if config.horizon <= 0.0 then invalid_arg (who ^ ": horizon must be positive");
  if config.tick_jitter < 0.0 || config.tick_jitter >= 1.0 then
    invalid_arg (who ^ ": jitter must be in [0, 1)");
  if config.latency_min < 0.0 || config.latency_max < config.latency_min then
    invalid_arg (who ^ ": invalid latency interval");
  let rng = Rng.substream ~seed:config.engine_seed ~index:0xa5f1 in
  let fault = config.fault in
  let jitter = config.tick_jitter in
  {
    n;
    config;
    rng;
    (* the stream's first n draws *)
    period = Array.init n (fun _ -> 1.0 -. jitter +. Rng.float rng (2.0 *. jitter));
    alive = Array.make n true;
    crash_time = schedule_times n (Fault.crashed_nodes fault) ~default:infinity;
    restart_time = schedule_times n (Fault.restarting_nodes fault) ~default:infinity;
    join_time = schedule_times n (Fault.joining_nodes fault) ~default:0.0;
    crash_emitted = Array.make n false;
    heap = Heap.create ~dummy:Monitor;
    now = 0.0;
    ticks = 0;
  }

let now c = c.now
let ticks c = c.ticks
let alive c = c.alive
let latency c =
  c.config.latency_min +. Rng.float c.rng (c.config.latency_max -. c.config.latency_min)
let send c ~at ~src ~dst msg = Heap.push c.heap at (Deliver { src; dst; msg })

let drive c hooks ~stop =
  let trace = c.config.trace in
  let alive = c.alive and crash_time = c.crash_time and restart_time = c.restart_time in
  let is_alive v = v >= 0 && v < c.n && alive.(v) in
  let crash v =
    c.crash_emitted.(v) <- true;
    Trace.emit trace (Trace.Crash { node = v });
    hooks.crash ~node:v ~restarts:(restart_time.(v) < infinity)
  in
  (* a node is effectively dead for its whole life if it crashes before
     joining; alive.(v) tracks "has joined and not crashed" lazily, at
     the node's own events *)
  let apply_crash v =
    if alive.(v) && c.now >= crash_time.(v) then begin
      alive.(v) <- false;
      crash v
    end
  in
  (* like crashes, restarts are applied lazily at the node's next event *)
  let apply_restart v =
    if (not alive.(v)) && c.now >= crash_time.(v) && c.now >= restart_time.(v) then begin
      if not c.crash_emitted.(v) then crash v;
      alive.(v) <- true;
      crash_time.(v) <- infinity;
      restart_time.(v) <- infinity;
      hooks.join ~node:v ~restart:true
    end
  in
  for v = 0 to c.n - 1 do
    if c.join_time.(v) > 0.0 then alive.(v) <- false else hooks.join ~node:v ~restart:false;
    (* first tick: a random phase within the first period after joining *)
    Heap.push c.heap (c.join_time.(v) +. Rng.float c.rng c.period.(v)) (Tick v)
  done;
  Heap.push c.heap 1.0 Monitor;
  let completed = ref (stop ~time:0.0 ~alive:is_alive) in
  while
    (not !completed)
    && (not (Heap.is_empty c.heap))
    && Heap.min_time c.heap <= c.config.horizon
  do
    c.now <- Heap.min_time c.heap;
    match Heap.pop c.heap with
    | Tick v ->
      apply_crash v;
      if (not alive.(v)) && c.now >= c.join_time.(v) && c.now < crash_time.(v) then begin
        alive.(v) <- true;
        hooks.join ~node:v ~restart:false
      end;
      apply_restart v;
      if alive.(v) then begin
        c.ticks <- c.ticks + 1;
        hooks.tick ~node:v
      end;
      (* keep scheduling activations for a crashed node that still
         has a restart ahead of it, so the restart can fire *)
      if c.now < crash_time.(v) || restart_time.(v) < infinity then
        Heap.push c.heap (c.now +. c.period.(v)) (Tick v)
    | Deliver { src; dst; msg } ->
      apply_crash dst;
      apply_restart dst;
      if alive.(dst) then hooks.deliver ~src ~dst msg
      else
        hooks.lost ~src ~dst
          (if c.crash_emitted.(dst) then Trace.Dead_dst else Trace.Unjoined_dst)
    | Monitor ->
      if stop ~time:c.now ~alive:is_alive then completed := true
      else Heap.push c.heap (c.now +. 1.0) Monitor
  done;
  Trace.emit trace (if !completed then Trace.Complete else Trace.Give_up);
  Trace.flush trace;
  (* final liveness snapshot *)
  for v = 0 to c.n - 1 do
    if alive.(v) && c.now >= crash_time.(v) then alive.(v) <- false
  done;
  !completed

let run ~n ~config ~handlers ~measure ?(measure_bytes = fun _ -> 0) ~stop
    ?(on_restart = fun ~node:_ -> ()) ?(on_deliver = fun ~src:_ ~dst:_ _ -> ()) () =
  let c = clock ~who:"Async_sim.run" ~n config in
  let metrics = Metrics.create () in
  Metrics.begin_round metrics;
  let fault = config.fault in
  let tick_count = Array.make n 0 in
  (* bandwidth windows: [cap] messages per unit of simulated time (the
     mean tick period) per directed link *)
  let windows = Fault.windows () in
  (* tracing is observational only, exactly as in Sim: same RNG draws,
     same schedule, no allocation with the null sink *)
  let trace = config.trace in
  let tracing = not (Trace.is_null trace) in
  let lost ~src ~dst reason =
    Metrics.record_drop metrics;
    if tracing then Trace.emit trace (Trace.Drop { src; dst; reason })
  in
  let send_from src ~dst payload =
    if dst < 0 || dst >= n then invalid_arg "Async_sim.send: destination out of range";
    let pointers = measure payload and bytes = measure_bytes payload in
    Metrics.record_send metrics ~pointers ~bytes;
    if tracing then Trace.emit trace (Trace.Send { src; dst; pointers; bytes });
    let lk = Fault.link_between fault ~src ~dst in
    match Fault.fate fault windows c.rng ~src ~dst ~time:c.now lk with
    | Some reason -> lost ~src ~dst reason
    | None -> send c ~at:(c.now +. latency c +. float_of_int lk.Fault.delay) ~src ~dst payload
  in
  let hooks =
    {
      join =
        (fun ~node ~restart ->
          (* a revived node gets a fresh tick sequence and, via
             [on_restart], its initial algorithm state back *)
          tick_count.(node) <- 0;
          if tracing then Trace.emit trace (Trace.Join { node });
          if restart then on_restart ~node);
      crash = (fun ~node:_ ~restarts:_ -> ());
      tick =
        (fun ~node ->
          tick_count.(node) <- tick_count.(node) + 1;
          if tracing then
            Trace.emit trace (Trace.Tick { node; time = c.now; count = tick_count.(node) });
          handlers.Sim.round_begin ~node ~round:tick_count.(node)
            ~send:(fun ~dst payload -> send_from node ~dst payload));
      deliver =
        (fun ~src ~dst payload ->
          Metrics.record_delivery metrics;
          if tracing then Trace.emit trace (Trace.Deliver { src; dst });
          on_deliver ~src ~dst payload;
          handlers.Sim.deliver ~node:dst ~src ~round:tick_count.(dst) payload);
      lost;
    }
  in
  let completed = drive c hooks ~stop in
  { completed; time = c.now; ticks = c.ticks; metrics; alive = c.alive }
