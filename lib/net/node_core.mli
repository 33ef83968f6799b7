(** The transport-agnostic protocol core of a live discovery node.

    Everything a node {e decides} — when to tick its algorithm, what to
    put on the wire, go-back-N reliable delivery per directed link, the
    hello handshake that rebuilds state across restarts, the fault-shim
    routing, completion detection and termination gossip — lives here as
    a pure state machine over an abstract clock. Everything a node
    {e does} to the outside world goes through the four {!actions}
    callbacks, so the same core drives

    - {!Node}: one OS process per core, real sockets, wall-clock time
      (the callbacks write to {!Transport.Conn}s), and
    - {!Mux}: thousands of cores in one process on a deterministic
      virtual clock (the callbacks push heap events).

    Every payload goes on the wire in the {!Repro_discovery.Wire.Adaptive}
    codec, the one codec of the live and asynchronous paths (the frame's
    codec byte names its body codec, so receivers need no setting).

    Time is always {e relative}: the runtime passes the same [now] it
    uses for its own clocks (seconds since the run epoch for sockets,
    virtual time for the mux), and the core never reads a wall clock.

    {b Link model.} The core sees each peer as [Up] (the transport can
    deliver frames now), [Down] (not currently reachable; the core
    buffers and calls {!actions.wake} so the transport may establish the
    path) or [Dead] (the transport gave up; traffic is dropped and
    counted). The process runtime maps its connection lifecycle onto
    these with {!link_up}/{!link_down}/{!link_dead}; the mux simply
    keeps every link [Up]. Link state is created lazily, on the first
    send, frame, greeting or verdict that involves a peer, so a core
    costs memory for the peers it talks to, not for all [n]; an
    untouched link reads as fresh (initial status, nothing queued or
    owed). {!pump} and {!next_rto_deadline} walk only the touched links,
    in ascending peer order: O(touched), not O(n).

    {b Termination gossip} ([fleet_halt]): every outgoing frame carries
    a "my knowledge is complete" flag, and a complete node periodically
    probes peers it has not heard completion from with a bare [Done]
    frame (first news arriving as a probe gets one reply, so quiet pairs
    converge). Once a node knows the {e whole fleet} is complete
    ({!fleet_done}) it stops ticking — this is what lets idle live nodes
    stop re-sending instead of chattering until an external halt. *)

open Repro_engine
open Repro_discovery

type config = {
  node : int;
  n : int;
  algo : Algorithm.t;
  seed : int;  (** must match the deployment seed: the node's RNG substream derives from it *)
  neighbors : int array;
  tick_period : float;  (** the round clock's unit, for the fault shim *)
  rto : float;  (** retransmission timeout, in [now] units *)
  fault : Fault.t;  (** link faults/partitions applied via {!Faultnet} *)
  announce : bool;  (** hello the neighbours on startup (set for restarts) *)
  fleet_halt : bool;  (** termination gossip + stop ticking on fleet completion *)
}

(** How the core acts on the world. All callbacks receive the same
    relative [now] the runtime passed in. *)
type actions = {
  emit : (now:float -> Trace.event -> unit) option;
      (** lifecycle trace events; with [None] the core builds none *)
  xmit : now:float -> dst:int -> bytes -> unit;
      (** put one encoded envelope on the wire to [dst]; only invoked
          while the link is [Up]. The buffer is the runtime's from then
          on: the core never writes it again (see {!Envelope}). *)
  notify_complete : now:float -> tick:int -> unit;
      (** local knowledge just became complete *)
  wake : dst:int -> unit;
      (** the core wants the path to [dst] established (it has traffic,
          or a hello revived a dead link) *)
}

type status = Up | Down | Dead

type t

val create : config -> actions -> labels:int array -> links_up:bool -> now:float -> t
(** Build the algorithm instance through {!Exec.instantiate}, the
    simulators' derivation (shared label permutation, per-node RNG
    substream), emit the [Join]
    event, and greet the neighbours if [announce]. Whether the core
    traces is fixed here, by [actions.emit]. [labels] is the run's
    label permutation ({!Exec.labels_of} of the deployment seed, or
    whatever labels the run's algorithms share), computed once per run
    and shared by every core, not copied. [links_up] is the initial
    status of every link: [true] for the mux (always reachable),
    [false] for socket runtimes (paths start unestablished).
    @raise Invalid_argument on a nonsensical config. *)

val tick : t -> now:float -> unit
(** One algorithm activation: emits the [Tick] event, runs the round,
    checks completion, and drives re-hello and termination gossip.
    A no-op once [fleet_halt] has detected fleet-wide completion. *)

val handle_frame : t -> now:float -> bytes -> off:int -> unit
(** Process one envelope from the wire (any kind), read in place: the
    frame at [off] must be one {!Envelope.decode} accepted. Nothing is
    kept of the buffer once this returns. *)

val receive : t -> now:float -> bytes -> unit
(** Process one whole encoded frame, as an in-process runtime delivers
    it: check the envelope, then {!handle_frame} it, or count why it
    was rejected — a CRC failure as a [corrupt_frames] count, anything
    else (including a truncated frame) as a [decode_errors] count. *)

val send : t -> now:float -> dst:int -> Payload.t -> int
(** Put one payload on the reliable channel to [dst] — the same path
    the algorithm's [round] callback uses (go-back-N send buffer, fault
    shim, counters) — and return its encoded body size in bytes, the
    amount the core adds to its [bytes] counter. The payload is encoded
    before anything else happens, so a lent payload (see
    {!Repro_discovery.Wire.decode}) is consumed by the time a
    self-addressed send delivers it. Exposed for runtimes whose protocol
    logic emits messages outside the round callback (the continuous
    service's members reply from their delivery handler).
    @raise Invalid_argument when [dst] is out of range. *)

val greet : t -> now:float -> dst:int -> unit
(** Send one unsolicited hello to [dst], announcing this (possibly
    fresh) incarnation so the peer voids any go-back-N sequence state
    it still holds from a predecessor of this node id; revives the
    local link if it had been declared dead. The service runtime calls
    this when a node id from the retired pool is reborn. *)

val pump : t -> now:float -> unit
(** Retransmission timeouts and owed bare acks/hellos/done probes, over
    every touched [Up] link. Call once per event-loop iteration; when
    nothing is due it allocates nothing. *)

val flush_faults : t -> now:float -> unit
(** Release frames the fault shim held back for delay/reorder faults. *)

val link_up : t -> now:float -> dst:int -> unit
(** The transport (re)established the path to [dst]: flushes owed bare
    frames and resends everything unacknowledged. *)

val link_down : t -> dst:int -> unit
(** The path to [dst] is gone (connection lost / not yet established);
    traffic buffers until {!link_up} or {!link_dead}. *)

val link_dead : t -> now:float -> dst:int -> unit
(** The transport gave up on [dst]: queued frames are dropped (with
    [Drop] events) and future sends are counted as drops. *)

val wants_link : t -> dst:int -> bool
(** Does the core have traffic (data, owed acks/hellos/probes) for
    [dst]? The runtime's connect policy keys on this. *)

val link_status : t -> dst:int -> status

val next_rto_deadline : t -> float
(** Earliest retransmission deadline over the up links (infinity when
    nothing is in flight) — for the runtime's poll timeout. *)

val note_bad_frame : t -> string -> unit
(** A stream runtime's envelope reader rejected a frame with this
    [`Corrupt] reason: {!Envelope.crc_mismatch} counts as a
    [corrupt_frames] count, any other reason as a [decode_errors] count
    (counted here because the core owns the final counters). *)

val tick_count : t -> int

val instance : t -> Algorithm.instance
(** The live algorithm instance — exposed so the mux's completion
    monitor can evaluate {!Exec.satisfied} over the whole fleet the way
    the simulators do. Treat it as read-only. *)

val is_complete : t -> bool
val last_activity : t -> float
(** Time of the most recent local delivery (idle detection). *)

val fleet_done : t -> bool
(** This node is complete {e and} has heard completion from every peer.
    With [fleet_halt] the runtime should wind the node down. *)

val final : t -> Control.final
(** The node's final counters. *)

(** {2 Introspection for the model checker}

    A read-only snapshot of one directed link's reliability state, so an
    exhaustive test driver ({!Model}) can assert the go-back-N window
    invariants between moves without reaching into the representation. *)
type link_view = {
  view_status : status;
  view_base_seq : int;  (** sequence number of the send buffer's front frame *)
  view_inflight : int;  (** unacknowledged data frames queued *)
  view_recv_cum : int;  (** highest contiguous data seq received *)
  view_recv_early : int list;  (** out-of-order seqs already delivered, ascending *)
  view_peer_done : bool;
}

val link_view : t -> dst:int -> link_view
