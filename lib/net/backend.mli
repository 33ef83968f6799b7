(** The execution backend of the live path, as a first-class type.

    Every way of running a discovery deployment "for real" — in-process
    against the async oracle, one OS process per node over sockets, or
    thousands of multiplexed node instances inside one process — is one
    constructor here. {!Cluster}, {!Chaos} and the CLIs consume this
    type directly; the only string forms are {!of_string}/{!to_string},
    so adding a backend is a one-variant change instead of a hunt
    through scattered [--transport] plumbing.

    - {!Loopback}: in-process and deterministic; scheduling delegates to
      {!Repro_engine.Async_sim}, so a loopback run is byte-identical
      (trace-diff clean) to the simulator.
    - [Process Uds] / [Process Tcp]: one forked OS process per node,
      real sockets, wall-clock time ({!Node}).
    - {!Mux}: every node hosted as a {!Node_core} instance inside one
      process ({!Mux}) — full wire stack (codec, envelope, go-back-N,
      fault shim) on a deterministic virtual clock, so it scales to
      thousands of nodes {e and} is trace-identical to [Loopback]. *)

type proto = Uds | Tcp  (** address family of the process-per-node backend *)

type t = Loopback | Process of proto | Mux

val all : t list
(** Every backend, in [of_string] spelling order. *)

val to_string : t -> string
(** ["loopback"], ["uds"], ["tcp"] or ["mux"] — the CLI spelling. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; also accepts a few aliases ([unix],
    [process:uds], …). The error message lists the canonical names. *)

val is_live : t -> bool
(** Does the backend exercise the real wire stack (envelope framing,
    go-back-N, fault shim)? [false] only for {!Loopback}. *)
