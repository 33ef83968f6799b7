(** A live node process: one {!Node_core} protocol instance driven by a
    socket event loop on wall-clock time.

    This is the [Process] backend's runtime. All protocol decisions —
    go-back-N reliable delivery, the hello handshake, fault-shim
    routing and completion detection — live in the
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
    the link has been idle for [idle_timeout] seconds. A node never
    decides on its own that the fleet is done: under a harness only the
    harness ends it (the halt command, or the control channel closing),
    since fleet-wide completion is the coordinator's verdict (it alone
    knows the fault plan's schedule). *)

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
}

val default_tick_period : float
val default_idle_timeout : float

type report = { final : Control.final; halted : bool }

val run : config -> report
(** Run the event loop to completion. Returns after graceful shutdown
    (halt command, standalone idle convergence, or tick budget
    exhausted). Sockets are closed and, if we bound our own UDS
    listener, its path unlinked. Before the control channel closes,
    every queued control line is written, the final report last, for
    as long as the harness takes to read them: only the harness closing
    its end cuts that short, and a harness that stops reading ends the
    child with its own SIGTERM/SIGKILL escalation. *)
