(** Structured event tracing for both execution engines.

    Every run of {!Sim} or {!Async_sim} is specified to be a pure
    function of (algorithm, topology, configuration, seed). The metrics
    layer checks that claim only at the coarsest granularity (final
    totals); this module makes the {e execution itself} observable: the
    engines emit one {!event} per lifecycle step into a pluggable
    {!sink}, so a run can be recorded, replayed against a golden file,
    diffed event-by-event across machines or job counts, or checked
    online against the execution invariants ({!Invariants}).

    {2 Event vocabulary}

    A synchronous run emits, in order:
    - [Round_begin] at the start of every round;
    - [Join] when a node activates (round 1 for ordinary nodes, the
      scheduled round for late joiners) and [Crash] when a scheduled
      crash fires — both during the round's start-of-round transitions;
    - [Send] for every message handed to the engine during the send
      phase;
    - [Deliver] or [Drop] for every message during the delivery phase of
      the same round, in send order. Every drop states its reason:
      [Loss] (the fault model's coin), [Dead_dst] (destination already
      crashed) or [Unjoined_dst] (destination not yet active);
    - a final [Complete] (the stop predicate fired) or [Give_up] (round
      budget exhausted).

    An asynchronous run uses the same vocabulary with [Tick] in place of
    [Round_begin]: one [Tick] per node activation, carrying the
    simulated time and that node's activation count. [Join] and [Crash]
    are emitted when the engine {e applies} the status change (lazily,
    at the node's next event), so a message dropped before a scheduled
    joiner's first activation is reported as [Unjoined_dst] even if its
    nominal join time has passed. Deliveries and drops are not
    separately timestamped; [Tick] events carry the clock.

    Tracing is strictly observational: enabling any sink never changes
    an execution (RNG draws, delivery order and metrics are identical
    with tracing on or off), and the {!null} sink costs no per-event
    allocation, so production runs pay nothing. *)

(** Why a message was dropped. *)
type drop_reason =
  | Loss  (** the fault model's independent per-message coin *)
  | Dead_dst  (** destination crashed before delivery *)
  | Unjoined_dst  (** destination has not (yet) activated *)
  | Partitioned  (** the src->dst link is severed by a scheduled partition *)
  | Throttled  (** the link's bandwidth cap was exhausted this round/window *)

type event =
  | Round_begin of { round : int }  (** synchronous engine only *)
  | Tick of { node : int; time : float; count : int }
      (** asynchronous engine only: activation [count] (1-based) of
          [node] at simulated [time] *)
  | Send of { src : int; dst : int; pointers : int; bytes : int }
      (** a message entered the network; [pointers]/[bytes] are the same
          measures {!Metrics} records *)
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int; reason : drop_reason }
  | Crash of { node : int }
  | Join of { node : int }
  | Genesis of { node : int; ids : int array }
      (** content audit only: the ids a node genuinely originates with at
          birth or restart (itself plus its initial out-neighbors),
          ascending. Emitted only when the fault plan's audit flag is on,
          so untraced and golden runs are unchanged. *)
  | Content of { src : int; dst : int; ids : int array }
      (** content audit only: the ids a delivered data payload advertises
          (ascending), emitted adjacent to its [Deliver]. *)
  | Leave of { node : int }
      (** continuous service only: a graceful departure — the node
          announces it is leaving and stops. Inactive afterwards, like
          [Crash], but the fleet was told rather than left to find out. *)
  | Suspect of { node : int; target : int }
      (** continuous service only: [node]'s failure detector started
          suspecting [target] (an unanswered liveness probe). *)
  | Retire of { node : int; target : int }
      (** continuous service only: [node] confirmed [target] as failed
          and retired it from its membership view. *)
  | Converge of { node : int; epoch : int }
      (** continuous service only, emitted by the omniscient observer:
          [node]'s membership view matches the true membership as of
          change number [epoch] (see {!Lag}). *)
  | Complete  (** the completion predicate fired *)
  | Give_up  (** round/time budget exhausted *)

val event_to_json : event -> string
(** One-line JSON object, stable field order, no trailing newline — the
    JSONL wire format. Times are printed with ["%.12g"], so equal floats
    always print identically (byte-stable reruns). *)

val drop_reason_name : drop_reason -> string
(** ["loss"], ["dead_dst"], ["unjoined_dst"], ["partitioned"] or
    ["throttled"], as used in the JSON encoding. *)

(** {2 Sinks} *)

type sink
(** A trace consumer. Engines test {!is_null} once and skip event
    construction entirely when tracing is off — the hot path of an
    untraced run does not allocate for tracing. *)

val null : sink
(** Discards everything. The default everywhere. *)

val is_null : sink -> bool

val emit : sink -> event -> unit
val flush : sink -> unit
(** Engines flush once at the end of a run; [flush] on {!null} and
    in-memory sinks is a no-op. *)

val callback : ?flush:(unit -> unit) -> (event -> unit) -> sink
(** The general escape hatch: run an arbitrary function per event. *)

val jsonl : out_channel -> sink
(** Write one {!event_to_json} line per event. The caller owns the
    channel (open/close); {!flush} flushes it. *)

val buffer : Buffer.t -> sink
(** {!jsonl} into a [Buffer.t] — the in-memory form used by the golden
    trace tests. *)

val tee : sink -> sink -> sink
(** Duplicate events to both sinks (left first). [tee null s] is [s]. *)

(** Bounded in-memory ring buffer: keeps the last [capacity] events of a
    run — a flight recorder for post-mortem inspection of long runs
    without unbounded memory. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val sink : t -> sink
  val length : t -> int
  val dropped : t -> int
  (** Events overwritten because the buffer was full. *)

  val contents : t -> event array
  (** Oldest first. *)
end

(** {2 Online invariant checking}

    An invariant checker is itself a sink: attach it (alone, or {!tee}d
    with a writer) and every event is checked the moment it happens.
    The invariants, for both engines:

    - {b conservation}: never more deliveries + drops than sends; in a
      synchronous run, every round's sends are fully resolved by the
      next [Round_begin] and by the end of the run ([Complete]/
      [Give_up]). (An asynchronous run may legitimately end with
      messages still in flight.)
    - {b liveness discipline}: only active nodes send, tick, or receive
      — a [Send]/[Tick] from, or [Deliver] to, a crashed or unjoined
      node is a violation; a [Drop] blamed on [Dead_dst] must name a
      node that actually crashed, and [Unjoined_dst] one that has not
      activated.
    - {b monotonicity}: synchronous rounds increase by exactly 1;
      asynchronous time never decreases, and each node's tick counts
      are consecutive from 1. [Join]/[Crash] fire at most once per
      node; nothing follows [Complete]/[Give_up].
    - {b metrics agreement} ({!Invariants.final_check}): the
      sink-counted totals equal the engine's {!Metrics} totals.
    - {b provenance} (content audit): once a [Genesis] event arms the
      audit, every id a [Content] event advertises must be genuinely
      held by its sender — present in the sender's genesis set or learned
      through an earlier audited delivery. A fabricated or stale id is a
      violation. A node's [Genesis] resets its provenance (restarts
      start over from initial knowledge).
*)
module Invariants : sig
  type t

  exception Violation of string
  (** Raised out of {!Trace.emit} (hence out of the engine's run) at the
      first offending event, and by {!final_check}. *)

  val create : ?lenient:bool -> ?allow_inflight:bool -> unit -> t
  (** [lenient] (default [false]) relaxes the checks that fault plans
      with node restarts legitimately break: a [Join] after a [Crash] is
      a restart (the node becomes active again and its tick sequence
      restarts from 1); deliveries may exceed sends (a retransmission
      can deliver to a second incarnation of a restarted peer); a
      [Dead_dst] drop may name a node that has since restarted; and
      {!final_check} only requires the trace totals to {e dominate} the
      metrics totals (retired incarnations appear in the trace but not
      in the survivors' final counters). Everything else — liveness
      discipline, monotonic time, consecutive per-incarnation ticks —
      is still enforced.

      [allow_inflight] (default [false]) relaxes the synchronous
      round-boundary and end-of-run conservation checks from equality to
      "never more resolutions than sends": fault plans with link delays
      legitimately carry messages across round boundaries (and a run can
      end with delayed messages still pending). *)

  val sink : t -> sink

  val events_seen : t -> int

  val final_check : t -> Metrics.t -> unit
  (** Call after the run with the outcome's metrics: checks the run was
      properly terminated ([Complete]/[Give_up] seen), end-of-run
      conservation, and that sink-counted sends/deliveries/drops/
      pointers/bytes equal the {!Metrics} totals.
      @raise Violation on any mismatch. *)
end

(** {2 Convergence-lag checking}

    The liveness discipline of a {e continuous} run: after every
    membership change (a [Join], [Crash] or [Leave] once the clock has
    started), every live node must re-converge to the new membership
    within [bound] time units. The observer (the service runtime)
    numbers changes as {e epochs} — change [k] is epoch [k]; [Join]s
    before the first [Tick] are the genesis membership, epoch 0, with no
    deadline — and emits [Converge {node; epoch}] when a node's view
    matches the membership as of epoch [epoch]. The checker closes
    epochs in order (matching the current membership subsumes every
    earlier change) and raises the moment the clock passes an open
    epoch's deadline.

    A node is required to converge to epoch [e] iff it is live and
    (re)joined no later than [e]'s change time: later joiners answer for
    the epochs their own join created. Like {!Invariants}, attach via
    {!Lag.sink} ({!tee}d with any other sink). *)
module Lag : sig
  type t

  exception Violation of string

  val create : ?bound:float -> unit -> t
  (** [bound] is the convergence deadline in the trace's time units
      (virtual ticks), default [512.0]. Callers should scale it
      O(polylog n) — e.g. [4 · (log2 n)²] with a small-n floor.
      @raise Invalid_argument if [bound <= 0]. *)

  val sink : t -> sink

  val epochs : t -> int
  (** Membership changes seen since the clock started. *)

  val closed : t -> int
  (** Epochs confirmed converged so far. *)

  val max_lag : t -> float
  (** The largest observed change-to-fleet-convergence lag over closed
      epochs. *)

  val table_peak : t -> int
  (** High-water mark of the internal epoch→change-time table. Closed
      epochs are pruned as the frontier advances, so this is bounded by
      the number of epochs ever simultaneously open (O(bound · churn
      rate)), not by the total number of changes — the memory guarantee
      long soaks rely on. *)

  val final_check : t -> unit
  (** Re-checks the frontier at the last observed time: epochs whose
      deadline already passed must be closed. Epochs whose deadline
      falls beyond the end of the trace are not judged.
      @raise Violation if an overdue epoch is still open. *)
end
