(** A member's view of the fleet: knowledge plus per-node liveness.

    The view extends a {!Repro_discovery.Knowledge.t} (which contributes
    the known-id set, the per-node version vector and uniform sampling)
    with a status byte per node. Remote observations go through
    {!apply}, which resolves conflicts on the [(version, status)]
    lattice of {!Repro_discovery.Payload}: a higher version always wins,
    and at equal versions the more pessimistic status does, so a down
    verdict sticks until the node itself refutes it with a higher
    incarnation.

    Failure-detector suspicion is deliberately {e not} on that lattice:
    {!suspect}/{!unsuspect} flip a node between alive and suspect
    locally without touching its version, so an unanswered probe never
    poisons the gossip stream — only a confirmed [down] (applied at the
    suspect's version) is shared. A suspected node still counts as live
    ({!is_live}): suspicion is a hypothesis, not a verdict. *)

open Repro_util
open Repro_discovery

type t

type applied =
  | Stale  (** the view already holds something at least as strong *)
  | Updated  (** recorded, liveness class unchanged *)
  | Changed of bool  (** recorded, and the node is now live iff [true] *)

val create : cap:int -> owner:int -> labels:int array -> t
(** A fresh view over the id universe [0 .. cap-1] knowing only its
    owner, alive at version 1. [labels] is shared across the fleet (see
    {!Repro_discovery.Knowledge.create}). *)

val knowledge : t -> Knowledge.t
val owner : t -> int

val unknown : int
(** The {!status} of a never-observed node (255). A node is in the
    knowledge set exactly when its status is not [unknown]: {!apply}
    adds it as it records its first status, and nothing removes it. *)

val status : t -> int -> int
(** Wire status of a node ({!Repro_discovery.Payload.status_alive} /
    [status_suspect] / [status_down]), or {!unknown} when never
    observed. Allocation-free. *)

val version : t -> int -> int
(** Highest observed incarnation of a node; 0 when never observed. *)

val is_live : t -> int -> bool
(** Known and not down — the membership classification the convergence
    invariant compares against the true fleet. *)

val live_count : t -> int

val apply : t -> node:int -> version:int -> status:int -> applied
(** Merge one remote observation under the [(version, status)]
    lattice. Adds the node to the knowledge set and records its version
    when accepted.
    @raise Invalid_argument on an out-of-range node, negative version
    or unknown status. *)

val suspect : t -> int -> bool
(** Locally mark an alive node as suspected; [true] iff it changed.
    No-op (false) on unknown, down or already-suspect nodes. *)

val unsuspect : t -> int -> bool
(** Clear a local suspicion (the node answered); [true] iff it was
    suspect. *)

val random_live : t -> Rng.t -> int option
(** A uniformly random live node other than the owner; [None] when the
    owner is the only live node it knows. A few rejection-sampling
    draws over the known set, then a linear scan fallback when the view
    is dominated by retired nodes. *)

val random_live_sample : t -> Rng.t -> k:int -> exclude:int -> int array
(** Up to [k] {e distinct} live nodes, excluding the owner and
    [exclude] — the intermediary sample of an indirect-probe round.
    Shorter than [k] (possibly empty) when the view does not hold that
    many other live nodes. *)

val iter_known : t -> (int -> unit) -> unit
(** Iterate every known id (including down nodes and the owner). *)
