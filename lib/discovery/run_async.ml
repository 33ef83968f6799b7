open Repro_graph
open Repro_engine

type result = {
  algorithm : string;
  n : int;
  seed : int;
  completed : bool;
  time : float;
  ticks : int;
  messages : int;
  pointers : int;
  dropped : int;
  metrics : Metrics.t;
  alive : bool array;
}

type spec = {
  seed : int;
  fault : Fault.t;
  completion : Run.completion;
  tick_jitter : float;
  latency : float * float;
  trace : Trace.sink;
}

let default_spec =
  {
    seed = 0;
    fault = Fault.none;
    completion = Run.Strong;
    tick_jitter = 0.1;
    latency = (0.1, 0.9);
    trace = Trace.null;
  }

let engine_config ~n spec =
  let lmin, lmax = spec.latency in
  {
    Async_sim.horizon = (4.0 *. float_of_int n) +. 64.0;
    tick_jitter = spec.tick_jitter;
    latency_min = lmin;
    latency_max = lmax;
    fault = spec.fault;
    engine_seed = spec.seed;
    trace = spec.trace;
  }

let exec_spec spec (algo : Algorithm.t) topology =
  let { seed; fault; completion; trace; _ } = spec in
  let n = Topology.n topology in
  let labels, instances = Exec.instances ~seed algo topology in
  let handlers = Adversary.wrap ~fault ~n (Exec.handlers instances) in
  let on_deliver, genesis = Adversary.audit ~fault ~trace instances in
  let last_join = float_of_int (Exec.last_join_round fault) in
  let stop ~time ~alive =
    time >= last_join && Exec.satisfied completion ~labels ~instances ~alive
  in
  let config = engine_config ~n spec in
  let on_restart ~node =
    Exec.restart_instance ~seed ~labels algo topology instances ~node;
    genesis ~node
  in
  let measure_bytes = Wire.sizer Wire.Adaptive ~universe:n in
  let outcome =
    Async_sim.run ~n ~config ~handlers ~measure:Payload.measure ~measure_bytes ~stop
      ~on_restart ?on_deliver ()
  in
  {
    algorithm = algo.Algorithm.name;
    n;
    seed;
    completed = outcome.Async_sim.completed;
    time = outcome.Async_sim.time;
    ticks = outcome.Async_sim.ticks;
    messages = Metrics.messages_sent outcome.Async_sim.metrics;
    pointers = Metrics.pointers_sent outcome.Async_sim.metrics;
    dropped = Metrics.messages_dropped outcome.Async_sim.metrics;
    metrics = outcome.Async_sim.metrics;
    alive = outcome.Async_sim.alive;
  }
