(** Multi-process cluster harness.

    Runs one discovery algorithm over [n] live node processes and
    reports whether the deployment converged (every node learned all [n]
    identifiers). The harness owns the whole lifecycle:

    - builds the topology from [(family, seed)] with
      {!Repro_graph.Generate.of_seed}, as the simulators' callers do, so
      a cluster run is comparable to a simulated run of the same
      parameters;
    - binds {e every} node's listening socket before forking — children
      inherit their listener, so there is no connect-before-listen
      startup race and, for TCP, no port collision (listeners bind port
      0 and the kernel-assigned ports are read back into the address
      map pre-fork);
    - forks one child per node, each connected by a control socketpair
      ({!Control} protocol) over which it streams trace events,
      completion announcements and its final counters;
    - plays out the {!spec.fault} plan's crash/restart schedule on the
      shared round clock: a scheduled crash SIGKILLs the victim between
      its rounds, a scheduled restart re-forks it on the {e same}
      inherited listening socket with [announce] set, so the fresh
      incarnation rejoins via the hello handshake and rebuilds its
      knowledge from its peers' replies;
    - declares convergence when the schedule has fully played out and
      every current incarnation has announced completion; a child that
      dies early (a scheduled crash, or a fault of its own) with no
      scheduled restart is detected by [waitpid], reported as crashed —
      never hung — and the survivors are halted; unresponsive children
      are escalated SIGTERM → SIGKILL so teardown always finishes within
      the grace window;
    - merges the per-node event streams into one time-ordered trace,
      feeds it to [spec.trace] and (healthy runs) to the online
      {!Repro_engine.Trace.Invariants} checker, closing with the same
      [final_check] totals-agreement the engines use.

    Process-per-node is one of three implementations of the {!Backend}
    API. [Backend.Loopback] short-circuits all of the above to
    {!Repro_discovery.Run_async} itself, with per-node counters tallied
    from its event stream: in-process, deterministic, trace-identical to
    the simulator. [Backend.Mux] runs the same live
    protocol stack as the processes — every node a {!Node_core} — but
    multiplexed into this one process on a virtual clock
    ({!Mux.exec_spec}), scaling to thousands of live nodes while staying
    trace-identical to loopback on fault-free runs. *)

open Repro_graph
open Repro_engine
open Repro_discovery

type spec = {
  n : int;
  algo : Algorithm.t;
  family : Generate.family;
  seed : int;
  backend : Backend.t;
  tick_period : float;
  timeout : float;  (** overall wall-clock budget; exceeding it = non-convergence *)
  dir : string option;  (** UDS socket directory; default: fresh dir under /tmp *)
  trace : Trace.sink;  (** receives the merged, time-ordered event stream *)
  check_invariants : bool;
  fault : Fault.t;
      (** unified fault plan: link faults and partitions are applied in
          the nodes via {!Faultnet}; crash/restart schedules are
          executed by the harness (socket backends), the mux scheduler,
          or the simulator (loopback). Runs that can crash a node are
          checked with the invariant checker's relaxed ([lenient])
          rules. *)
}

val default_spec : Algorithm.t -> spec

type node_outcome =
  | Finished of Control.final  (** exited 0 with a final report *)
  | Crashed of string  (** non-zero exit or signal (description) *)
  | Unresponsive  (** exited 0 but never delivered a final report *)

type node_report = { id : int; outcome : node_outcome; completed : bool }

type invariant_status = Passed of int  (** events checked *) | Failed of string | Skipped of string

type result = {
  algorithm : string;
  family : string;
  backend : Backend.t;
  n : int;
  seed : int;
  converged : bool;
  wall_time : float;  (** seconds (loopback/mux: virtual time) *)
  events : int;
  crashed : int list;  (** nodes whose {e current} incarnation died abnormally *)
  invariants : invariant_status;
  nodes : node_report array;
  totals : Control.final option;  (** aggregate, when every node reported *)
}

val run : spec -> result
(** Execute the cluster and tear everything down before returning: all
    children reaped, control sockets closed, any harness-created UDS
    directory removed.
    @raise Invalid_argument on a nonsensical spec ([n < 1], or a socket
    run whose fault plan crashes a node outside the cluster). *)

val result_to_json : result -> string
(** One-line JSON report (stable field order, no trailing newline). *)
