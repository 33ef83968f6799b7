(** Asynchronous execution of a discovery algorithm.

    The same algorithms that run in lockstep under {!Run} execute here on
    drifting per-node timers with variable message latency (see
    {!Repro_engine.Async_sim}). The headline question this answers:
    do the synchronous round counts survive asynchrony, or do they hide a
    dependence on lockstep? (Experiment T10: they survive — completion
    time in time units tracks the synchronous round counts closely even
    under heavy latency spread.) *)

open Repro_graph
open Repro_engine

type result = {
  algorithm : string;
  n : int;
  seed : int;
  completed : bool;
  time : float;  (** simulated time to completion (node period ≈ 1) *)
  ticks : int;  (** total node activations *)
  messages : int;
  pointers : int;
  dropped : int;
  metrics : Metrics.t;  (** totals only — per-round series are not meaningful here *)
  alive : bool array;
}

type spec = {
  seed : int;
  fault : Fault.t;
  completion : Run.completion;
  tick_jitter : float;  (** per-node clock drift, as a fraction of the period *)
  latency : float * float;  (** (min, max) uniform message latency *)
  trace : Trace.sink;
      (** structured event trace (see {!Repro_engine.Trace}); {!Run.spec}
          semantics — observational only, free when {!Repro_engine.Trace.null} *)
}
(** {!Run.spec}'s asynchronous counterpart: the round budget becomes a
    time horizon of [4·n + 64.] time units, and the timing model (clock
    jitter, latency band) is part of the spec. *)

val default_spec : spec
(** Seed 0, no faults, strong completion, jitter 0.1,
    latency ∈ [0.1, 0.9] (so a message takes about half a local round on
    average), no tracing. *)

val engine_config : n:int -> spec -> Async_sim.config
(** The engine configuration [spec] runs [n] nodes under: the horizon
    for [n], jitter, latency band, faults, seed and trace. *)

val exec_spec : spec -> Algorithm.t -> Topology.t -> result
(** Determinism and the completion predicates are as in
    {!Run.exec_spec}; under late joins, completion is gated on the last
    join time. Each message is delivered in memory but sized by the
    {!Wire.Adaptive} codec, the live backends' wire format: [Send]
    events and the byte metrics carry its encoded length. *)
