(** The synchronous round-based execution engine.

    This is the standard execution model of PODC-style synchronous
    algorithms: in every round each (alive) node first computes and sends
    its messages from its start-of-round state, then all messages are
    delivered simultaneously. The engine is generic in the message type;
    algorithm state lives entirely in the caller's closures.

    Determinism: given the same handlers, node count, configuration and
    seed, the engine performs the identical sequence of callbacks for
    each node. Nodes are polled for sends in index order. Each node
    receives its messages in send order, the messages a delay releases
    this round first; the delivery phase walks the nodes one
    destination block ({!delivery_block} nodes) at a time, so calls for
    different nodes interleave in block order, not send order. Message
    loss is drawn from a dedicated engine RNG stream.
*)

type 'msg handlers = {
  round_begin : node:int -> round:int -> send:(dst:int -> 'msg -> unit) -> unit;
      (** Called once per alive node per round. [send] may be called any
          number of times; sends to crashed or out-of-range destinations
          are counted as sent and then dropped.
          @raise Invalid_argument if [send] is given a destination outside
          [0 .. n-1]. *)
  deliver : node:int -> src:int -> round:int -> 'msg -> unit;
      (** Called during the delivery phase of the same round: for each
          node in its messages' send order, and for different nodes in
          destination-block order (see above), at every [jobs]. *)
}

type config = {
  max_rounds : int;  (** hard stop; the run is marked incomplete if hit *)
  fault : Fault.t;
  engine_seed : int;  (** seeds the loss RNG only *)
  trace : Trace.sink;
      (** structured event trace of the run (see {!Trace} for the
          vocabulary and ordering guarantees). Strictly observational:
          the execution is identical whatever the sink, and the default
          {!Trace.null} adds no per-event work or allocation. *)
  jobs : int;
      (** Domains sharding {e this} run's nodes (values below 1 count as
          1). One round loop serves every job count: the nodes are split
          into [jobs] contiguous shards that compute their sends in
          parallel, the coordinator accounts and resolves every message
          in the canonical order (all trace events, metrics and RNG
          draws), and the shards apply deliveries in parallel. A run at
          [jobs = k] is byte-identical — same trace, same metrics, same
          outcome — to [jobs = 1].

          [round_begin] and [deliver] for node [v] may touch only node
          [v]'s state plus immutable shared data (payloads must be
          frozen snapshots), and must not emit trace events: per-delivery
          events (e.g. content auditing) belong in [on_deliver]. *)
}

val delivery_block : int
(** Nodes per destination block of the delivery phase. Each shard's
    nodes split into blocks of this many, counted from the shard's
    first node; a round's deliveries run block by block in ascending
    order, in send order within a block. *)

val default_config : config
(** [max_rounds = 10_000], no faults, seed 0, no tracing, [jobs = 1]. *)

type outcome = {
  completed : bool;  (** the stop predicate fired before [max_rounds] *)
  rounds : int;  (** rounds actually executed *)
  metrics : Metrics.t;
  alive : bool array;  (** liveness at the end of the run *)
}

val run :
  n:int ->
  config:config ->
  handlers:'msg handlers ->
  measure:('msg -> int) ->
  ?measure_bytes:('msg -> int) ->
  stop:(round:int -> alive:(int -> bool) -> bool) ->
  ?on_round_end:(round:int -> unit) ->
  ?on_restart:(node:int -> unit) ->
  ?on_deliver:(src:int -> dst:int -> 'msg -> unit) ->
  unit ->
  outcome
(** Execute rounds [1, 2, …] until [stop] returns true (checked after each
    round's deliveries, and once before round 1 for trivially-complete
    instances) or [max_rounds] is reached. [measure] gives the pointer
    count of a message for accounting; [measure_bytes] (default: constant
    0, i.e. byte accounting off) its wire size. Both are called once per
    message, from the coordinator only, in the canonical order, so a
    fan-out's messages are measured in a row and [measure_bytes] may
    keep state, such as a memo of the last payload sized, without a
    lock. [on_restart] fires when a
    scheduled restart revives a crashed node, before the node's next
    [round_begin]: the caller must reset that node's algorithm state to
    its initial world view (default: no-op, i.e. the node resumes with
    whatever state the handlers still hold for it). [on_deliver] runs
    right after each [Deliver] event, in the canonical order, and may
    emit trace events; the message's [deliver] handler runs later, in
    the delivery phase, in the same order for each destination
    (default: no-op).
    @raise Invalid_argument if [n < 0] or [config.max_rounds < 0]. *)
