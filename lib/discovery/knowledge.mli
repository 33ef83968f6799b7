(** A machine's knowledge set.

    Combines three views that the algorithms need at different costs:

    - an adaptive compressed set ({!Repro_util.Cset.t}) for O(1)
      membership, rank-space uniform sampling and container-level
      whole-set merges — O(1) per saturated container, the dominant
      case once discovery converges;
    - a learn order of the {e explicitly} learned identifiers
      (singletons and id-list batches), giving O(1) "what did I learn
      since round r" deltas — exactly the identifiers custody-style
      protocols must forward;
    - the running argmin of the (label-permuted) identifiers, for
      min-pointer style algorithms.

    Bulk snapshot merges are container-level unions with O(1) argmin
    maintenance from payload-carried minima (a sender's own
    {!snapshot} carries them, and so does a {!decoded_snapshot} off the
    wire); they do not enter the learn order, so per-node memory stays O(containers + explicit
    learns) rather than Θ(n) words.

    A knowledge set always contains its owner. *)

open Repro_util

type t

type snap = {
  set : Cset.t;  (** frozen contents *)
  sbest : int;  (** label-argmin over [set], or [-1] when unknown *)
  sbest_raw : int;  (** min raw id over [set], or [-1] when unknown *)
  mutable vbytes : int;
      (** {!Wire}'s cached varint body size for [set]; [-1] until computed.
          Written only from the serialisation path (single-threaded). *)
}
(** An immutable snapshot of a knowledge set, used as a message payload
    shared across a whole fan-out. Carrying the minima lets a
    receiver merge in O(containers) without enumerating elements; the
    frozen contents are immutable once published, so snapshots stay safe
    to share across domains. *)

val create : n:int -> owner:int -> labels:int array -> unit -> t
(** [create ~n ~owner ~labels ()] is the singleton knowledge {owner}.
    [labels] is the shared label permutation: [labels.(v)] is the
    comparison identifier of node [v] (see DESIGN.md §7). The array is
    captured by reference and must not be mutated.
    @raise Invalid_argument if [owner] is out of range or [labels] has
    length ≠ [n]. *)

val owner : t -> int
val universe : t -> int
(** The [n] the set was created with. *)

val cardinal : t -> int
val knows : t -> int -> bool
val is_complete : t -> bool
(** Knows all [n] nodes. *)

val version : t -> int
(** A counter bumped on every change to the known set (and nothing
    else): callers may cache values derived from the contents — an
    encoded payload, a whole message — and reuse them while the version
    is unchanged. *)

val add : t -> int -> bool
(** Learn one identifier explicitly; [true] iff it was new. An
    explicitly learned id enters the learn order even when it was
    already known through a bulk snapshot (so custody deltas forward
    it); the return value still reports set-membership freshness. *)

val note_explicit : t -> int -> unit
(** Record that an already-known identifier was just learned
    {e explicitly}, entering it into the learn order if not already
    there. Used by custody protocols when responsibility for an id is
    transferred. *)

val merge_bits : t -> Cset.t -> int
(** Merge a raw set of identifiers; returns the number learned.
    Enumerates the {e fresh} elements (to maintain the argmin); prefer
    {!merge_snapshot} where a payload is at hand. The merged ids do not
    enter the learn order. *)

val merge_snapshot : t -> snap -> int
(** Merge a snapshot payload; returns the number learned: a
    container-level union plus O(1) argmin update from the carried
    minima — no element enumeration (unless the minima are unknown: an
    {!external_snapshot}). The merged ids do not enter the learn order. *)

val merge_ids : t -> int array -> int
(** Merge an explicit identifier list; returns the number learned.
    New members enter the learn order in ascending id order regardless
    of the array's order: a batch is semantically a set, and its
    serialisation order is a transport artefact (wire codecs sort, an
    in-memory delta arrives in the sender's learn order). Canonicalising
    here keeps every order-derived behaviour — broadcast fan-outs,
    sampling, delta windows — a function of the delivery sequence alone,
    so live backends stay trace-identical to the in-memory engines. *)

val merge_slice : t -> Intvec.slice -> int
(** Merge the identifiers of a zero-copy slice (a delta payload);
    returns the number learned. Same ascending-order canonicalisation as
    {!merge_ids}. *)

val snapshot : t -> snap
(** An immutable snapshot of the current contents with its minima,
    suitable for sharing across a whole fan-out. O(containers) the first
    time after a change, O(1) (cached) while the {!version} is stable —
    a steady-state broadcaster re-sends the same snapshot value with no
    allocation. The underlying set is a {!Repro_util.Cset.freeze} of the
    live set, which privatises its storage on its next write, so no
    payload words are copied here. *)

val external_snapshot : Cset.t -> snap
(** Wrap a set not derived from a knowledge value (adversarial
    injection, or {!Wire.decode}, which has no labels) as a snapshot
    with unknown minima; receivers fall back to enumerating its fresh
    elements on merge. *)

val decoded_snapshot : labels:int array -> Cset.t -> snap
(** [decoded_snapshot ~labels set] is a snapshot of a set decoded off
    the wire, with its minima: the label argmin under [labels] (the
    run's permutation, as given to {!create}) and the smallest raw id,
    both found by one walk of [set]. The set is frozen, so the snapshot
    is safe to hand to every receiver of the view, and each of them
    merges it in O(containers) like a sender's own {!snapshot}. The live
    runtimes build one per decoded (sender, view), not one per receipt.
    The caller must not mutate [set] afterwards.
    @raise Invalid_argument if [labels] and [set] have different
    universes. *)

val contents : t -> Cset.t
(** The live set — read-only alias for completion checks; callers must
    not mutate it. *)

val mark : t -> int
(** An opaque high-water mark: the current length of the learn order. *)

val since_slice : t -> mark:int -> Intvec.slice
(** The identifiers explicitly learned after [mark] was taken, oldest
    first, as a zero-copy slice of the learn order — the allocation-free
    payload for steady-state delta resends. Valid indefinitely (the
    learn order is append-only).
    @raise Invalid_argument for a stale/invalid mark. *)

val iter_known : t -> (int -> unit) -> unit
(** Iterate the known identifiers in ascending id order without
    materialising an array. The knowledge set must not be mutated
    during iteration. *)

val random_known : t -> Rng.t -> int option
(** A uniformly random known identifier excluding the owner; [None] when
    the owner knows only itself. *)

val random_known_among : t -> Rng.t -> k:int -> int array
(** Up to [k] distinct uniform known identifiers excluding the owner
    (fewer when the set is small). Virtual partial Fisher–Yates over the
    non-owner ranks: exactly [min k (cardinal - 1)] RNG draws, even when
    [k] approaches the number of known nodes, and no allocation beyond
    the result (the displaced ranks live in a reused scratch, scanned in
    O(k) per draw). Ranks run over ascending ids. *)

val min_known : t -> int
(** The known node with the smallest label (possibly the owner). *)

val min_known_raw : t -> int
(** The known node with the smallest raw index, ignoring labels — the
    comparison key of the deterministic baseline, which cannot assume
    randomly-placed identifiers. *)

val min_known_excluding : t -> suspects:Cset.t -> int
(** The known node with the smallest label not in [suspects]. The owner
    competes like any other known node — a suspected owner is skipped
    too — and is returned only as the last-resort fallback when every
    known node is suspected. O(cardinal) — used only on the
    failure-handling path.
    @raise Invalid_argument if [suspects] has the wrong capacity. *)
