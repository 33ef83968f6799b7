(** Fork/join execution of independent tasks on OCaml 5 domains.

    The experiment harness shards seed replicates and sweep cells across
    cores through this module. Scheduling is dynamic (idle workers take
    the next unstarted task from a shared counter), but results are merged
    in task order, so any aggregation over them is deterministic — a
    suite run produces byte-identical output at [jobs = 1] and
    [jobs = 64].

    Tasks must be self-contained: no shared mutable state, no printing.
    Every run of the discovery engine already satisfies this (private
    RNG streams, per-run metrics). *)

val default_jobs : unit -> int
(** Worker count used when the CLI gives no [--jobs]: the [REPRO_JOBS]
    environment variable if set (a positive integer), otherwise
    [Domain.recommended_domain_count () - 1], floored at 1. *)

val run : jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] executes every task on up to [jobs] domains (the
    calling domain participates as a worker) and returns the results in
    task order.

    - [jobs <= 1], or fewer than two tasks: a plain sequential loop on
      the calling domain; no domains are spawned.
    - Exceptions: every task runs to completion regardless of other
      tasks' failures; afterwards the exception of the lowest-indexed
      failing task is re-raised, so failure behaviour is deterministic.
    - Nested use: calling [run ~jobs] with [jobs > 1] from inside a pool
      task raises [Invalid_argument] — flatten the work into a single
      task array instead (see {!Repro_experiments.Report.grid}).
      The [jobs <= 1] sequential path is allowed anywhere. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is {!run} over [fun () -> f item], preserving
    list order. *)

(** Persistent worker team for phase-parallel work inside one
    computation (e.g. the engine's sharded round loop). A team spawns
    its domains once and then executes an arbitrary number of
    barrier-delimited phases, so the per-phase cost is a mutex/condvar
    round-trip rather than a domain spawn. {!run} is one phase of a
    team created and shut down per call. *)
module Team : sig
  type t

  val create : members:int -> t
  (** [create ~members] spawns [members - 1] worker domains (the caller
      participates as member 0). Workers count against the same
      oversubscription guard as {!run}: creating a team with
      [members > 1] from inside a pool task or another team raises
      [Invalid_argument], and team members may not start nested
      parallel regions. Shut the team down with {!shutdown}. *)

  val members : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f member] on every member (0 inclusive) and
      returns when all have finished — one barrier-to-barrier phase.
      Everything written before [run] returns happens-before the next
      phase's reads on every member. If members raise, every member
      still finishes its phase and the lowest member's exception is
      re-raised (deterministic failure). *)

  val shutdown : t -> unit
  (** Join the worker domains. Idempotent; the team is unusable after. *)
end
