(** A live node process: one {!Node_core} protocol instance driven by a
    socket event loop on wall-clock time.

    This is the [Process] backend's runtime. All protocol decisions —
    go-back-N reliable delivery, the hello handshake, fault-shim
    routing, completion detection and termination gossip — live in the
    transport-agnostic {!Node_core}; this module owns what a real
    deployment owns: sockets, [select], connection establishment with
    bounded retry and decorrelated-jitter backoff ("connect-on-learn":
    the id→address map is static, so learning an id is enough to reach
    it), the tick timer, and process lifetime. Once the retry budget for
    a peer is spent the peer is declared dead to the core and frames to
    it are counted as drops — unless the fault plan schedules the peer
    to restart, in which case the node keeps probing. A hello from a
    written-off peer revives the link and restores the retry budget.

    Under a {!Cluster} harness ([control_fd] set) the node streams
    {!Control} lines upward and exits on the halt command. Standalone
    ([control_fd = None]) it exits once its knowledge is complete and
    the link has been idle for [idle_timeout] seconds. With [fleet_halt]
    (the default for live fleets) the core's termination gossip lets the
    node wind down within a couple of RTOs of fleet-wide completion,
    instead of chattering until an external halt or the idle window. *)

open Repro_engine
open Repro_discovery

(** Decorrelated-jitter retry backoff: the first delay is [base], each
    later delay is uniform in [base, min cap (3 * previous)], drawn from
    a caller-supplied seeded RNG (never wall clock) so retry schedules
    are reproducible. Exposed for tests. *)
module Backoff : sig
  type t

  val create : rng:Repro_util.Rng.t -> base:float -> cap:float -> t
  (** @raise Invalid_argument if [base <= 0] or [cap < base]. *)

  val next : t -> float
  (** The next delay; advances the state. *)

  val reset : t -> unit
  (** Back to the cold state (next delay = [base]). *)
end

type config = {
  node : int;
  n : int;
  algo : Algorithm.t;
  seed : int;  (** must match the cluster seed: labels derive from it *)
  neighbors : int array;
  addrs : Unix.sockaddr array;  (** node [i] listens on [addrs.(i)]; length [n] *)
  listen_fd : Unix.file_descr option;
      (** listener inherited from the harness; [None] = bind our own *)
  control_fd : Unix.file_descr option;
  epoch : float;  (** wall-clock origin shared by every node of the run *)
  tick_period : float;
  idle_timeout : float;
  max_ticks : int;  (** give up after this many ticks without halt *)
  fault : Fault.t;  (** link faults/partitions applied via {!Faultnet} *)
  announce : bool;  (** hello the neighbours on startup (set for restarts) *)
  fleet_halt : bool;
      (** termination gossip: carry completion flags, probe quiet peers,
          and exit shortly after the whole fleet is known complete *)
}

val default_tick_period : float
val default_idle_timeout : float

type report = { final : Control.final; halted : bool }

val run : config -> report
(** Run the event loop to completion. Returns after graceful shutdown
    (halt command, standalone idle convergence, or tick budget
    exhausted). Sockets are closed and, if we bound our own UDS
    listener, its path unlinked. *)
