(** Event-driven asynchronous execution.

    The synchronous round model ({!Sim}) is the clean analysis setting;
    real deployments have drifting clocks and variable message latency.
    This engine runs the {e same} algorithm instances asynchronously:

    - every node executes its per-round logic on a private periodic
      timer whose period is drawn once from [1 ± tick_jitter] (so nodes'
      "rounds" drift apart over time);
    - every message is delivered after an independent latency drawn
      uniformly from [[latency_min, latency_max]] (messages may overtake
      each other);
    - message loss and crash/join schedules come from the same
      {!Fault.t}, with round numbers interpreted as simulated-time
      instants.

    Events at equal timestamps are ordered by creation sequence, so runs
    are a pure function of the configuration and seed, exactly like the
    synchronous engine. The completion predicate is polled once per
    simulated time unit.

    The scheduler itself is a {!type-clock} that {!run} and the
    multiplexed live runtime both drive: each supplies {!hooks} that say
    what an activation, a delivery or a lifecycle change does to its own
    node state, while the clock fixes {e when} each one happens. *)

type config = {
  horizon : float;  (** give up after this much simulated time *)
  tick_jitter : float;  (** node period ∈ [1−j, 1+j]; 0 = lockstep periods *)
  latency_min : float;
  latency_max : float;  (** message latency ∈ [min, max] *)
  fault : Fault.t;
  engine_seed : int;
  trace : Trace.sink;
      (** structured event trace (see {!Trace}): [Tick] per activation,
          [Join]/[Crash] when the engine applies a status change,
          [Send]/[Deliver]/[Drop] per message. Observational only. *)
}

type outcome = {
  completed : bool;
  time : float;  (** simulated completion (or give-up) time *)
  ticks : int;  (** total node activations *)
  metrics : Metrics.t;  (** totals only — per-round series are not meaningful here *)
  alive : bool array;
}

val run :
  n:int ->
  config:config ->
  handlers:'msg Sim.handlers ->
  measure:('msg -> int) ->
  ?measure_bytes:('msg -> int) ->
  stop:(time:float -> alive:(int -> bool) -> bool) ->
  ?on_restart:(node:int -> unit) ->
  ?on_deliver:(src:int -> dst:int -> 'msg -> unit) ->
  unit ->
  outcome
(** [handlers.round_begin] is invoked on each node tick with [round]
    equal to that node's own tick count (1-based) — algorithms written
    against {!Sim} run unchanged. Scheduled restarts are applied lazily
    like crashes: at the revived node's next event the engine emits
    [Crash] (if not yet announced) then [Join], resets the node's tick
    sequence, and calls [on_restart] so the caller can reinstall the
    node's initial algorithm state (default: no-op). [on_deliver] runs
    at each arrival at an alive node, between its [Deliver] event and
    [handlers.deliver] (default: no-op). A send meets {!Fault.fate} at
    the current time, on the engine stream.
    @raise Invalid_argument on a negative [n], a non-positive [horizon],
    a jitter outside [0, 1), or an invalid latency interval. *)

(** {1 The clock} *)

type 'msg clock
(** One asynchronous schedule over [n] nodes carrying ['msg] payloads.
    It owns:
    - the engine stream (substream [0xa5f1] of [engine_seed]) and its
      draw order: every node's period at creation, then each node's
      first-tick phase when {!drive} starts, then whatever its host
      draws through {!latency};
    - the crash/restart/join times of [fault], applied lazily at the
      affected node's next event;
    - the completion monitor, once per simulated time unit from 1, and
      the final liveness snapshot. *)

type 'msg hooks = {
  join : node:int -> restart:bool -> unit;
      (** [node] becomes alive: at time 0, at its scheduled join, or
          ([restart = true]) revived after a crash. *)
  crash : node:int -> restarts:bool -> unit;
      (** [node]'s crash is applied, right after the clock emits its
          [Crash] event; [restarts] says a restart is still scheduled. *)
  tick : node:int -> unit;  (** one activation of an alive [node] *)
  deliver : src:int -> dst:int -> 'msg -> unit;  (** an arrival at an alive [dst] *)
  lost : src:int -> dst:int -> Trace.drop_reason -> unit;
      (** an arrival at a crashed ([Dead_dst]) or unjoined
          ([Unjoined_dst]) [dst] *)
}
(** What a host does at each event; the clock decides which event comes
    next and keeps the liveness bookkeeping. *)

val clock : who:string -> n:int -> config -> 'msg clock
(** A fresh clock; draws the [n] node periods.
    @raise Invalid_argument, with message prefix [who], on the
    arguments {!run} rejects. *)

val drive :
  'msg clock -> 'msg hooks -> stop:(time:float -> alive:(int -> bool) -> bool) -> bool
(** Run the schedule until [stop] holds at a monitor instant (returns
    [true]), the horizon passes or no event is left (returns [false]).
    Joins round-0 nodes and draws the first-tick phases first; emits
    [Complete] or [Give_up] to the config's trace and flushes it at
    the end. Drive a clock once. *)

val now : _ clock -> float
(** The current event's time; after {!drive}, the completion or
    give-up time. *)

val latency : _ clock -> float
(** Draw one message latency from [[latency_min, latency_max]] on the
    engine stream. *)

val send : 'msg clock -> at:float -> src:int -> dst:int -> 'msg -> unit
(** Schedule the arrival of a payload at time [at]. *)

val ticks : _ clock -> int
(** Activations so far. *)

val alive : _ clock -> bool array
(** Per-node liveness; after {!drive}, the final snapshot. *)
