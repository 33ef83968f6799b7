(** A member's view of the fleet: knowledge plus per-node liveness.

    The view extends a {!Repro_discovery.Knowledge.t} (which contributes
    the known-id set and uniform sampling) with a per-node version
    vector (each node's highest observed incarnation) and a status byte
    per node. Remote observations go through
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
    ({!is_live}): suspicion is a hypothesis, not a verdict.

    The view also keeps a {!digest} of what its owner would export in a
    full-state batch, for the service's digest-first anti-entropy: two
    members whose digests agree skip the whole-view exchange. *)

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

val exported_status : t -> int -> int
(** The status a full-state batch carries for a node: {!status} with
    [status_suspect] exported as [status_alive], since suspicion is
    local. {!unknown} when never observed. Allocation-free. *)

val version : t -> int -> int
(** Highest observed incarnation of a node; 0 when never observed.
    @raise Invalid_argument if the node is out of range. *)

val is_live : t -> int -> bool
(** Known and not down — the membership classification the convergence
    invariant compares against the true fleet. *)

val live_count : t -> int

val digest : t -> int
(** The view digest: the XOR of {!entry_word} over every known node's
    exported triple [(node, version, exported_status)] — exactly the
    triples a full-state batch carries. A non-negative 62-bit int.
    {!apply} keeps it current in O(1) (the old word out, the new word
    in); {!suspect} and {!unsuspect} never change it. Views that differ
    in exactly one entry always have different digests, within
    {!entry_word}'s bounds on nodes and versions. Views that differ in more
    entries collide with probability about 2{^-62}; a collision costs
    one skipped repair for that pair, which the next sync with a
    differing peer performs. *)

val entry_word : node:int -> version:int -> status:int -> int
(** One triple's word in {!digest}: the triple packed into 62 bits
    (status in bits 0-1, node in bits 2-25, version above) and passed
    through an invertible 62-bit mixer. Distinct triples with
    [node < 2{^24}] and [version < 2{^36}] get distinct words, and no
    triple with a status of at most [status_down] gets the word 0.
    Allocation-free. *)

val apply : t -> node:int -> version:int -> status:int -> applied
(** Merge one remote observation under the [(version, status)]
    lattice. Adds the node to the knowledge set, records its version
    and updates the {!digest} when accepted.
    @raise Invalid_argument on an out-of-range node, negative version
    or unknown status. *)

val suspect : t -> int -> bool
(** Locally mark an alive node as suspected; [true] iff it changed.
    No-op (false) on unknown, down or already-suspect nodes. The
    {!digest} does not change. *)

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
