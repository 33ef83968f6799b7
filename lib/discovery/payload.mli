(** Message payloads shared by every discovery algorithm.

    A message either carries knowledge (as a frozen {!Repro_util.Cset}
    snapshot or an explicit identifier list) or is a content-free pull request. The
    [Exchange] / [Share] distinction encodes whether the receiver owes a
    reply — the only protocol-level metadata the algorithms need. *)

open Repro_util

type data =
  | Bits of Knowledge.snap
      (** Full-knowledge snapshot with carried minima. Payload snapshots
          are immutable by convention and may be shared across fan-out
          (senders pass {!Knowledge.snapshot}, a copy-on-write freeze of
          their live set). *)
  | Ids of int array  (** Explicit identifier list (small sets). *)
  | Delta of Intvec.slice
      (** Zero-copy window into the sender's learn order — the
          allocation-free form of a "what I learned since my last send"
          delta (see {!Knowledge.since_slice}). Carries the same
          identifiers as the equivalent [Ids] array: identical
          {!measure}, merge result, and wire encoding. *)
  | Updates of { full : bool; count : int; entries : int array }
      (** Versioned membership delta — the anti-entropy currency of the
          continuous discovery service. The batch is the first [count]
          entries of [entries], a flat, pointer-free window: two ints per
          entry, [(node lsl 2) lor status] then [version] (read and
          write it with {!update_node}, {!update_version},
          {!update_status} and {!set_update}); anything past entry
          [count - 1] is not part of the batch. One entry says that
          [node] was seen at [version] (its incarnation counter) with
          [status] —
          {!status_alive}, {!status_suspect} or {!status_down}.
          Conflicts resolve by [(version, status)] lexicographically: a
          higher version always wins, and at equal versions the more
          pessimistic status does (down > suspect > alive), so an
          incarnation can only be refuted by the node itself bumping its
          version.

          A batch may be {e lent}: the service's members build their
          full-state and gossip batches in one per-domain scratch, and
          {!Wire.decode} writes a decoded batch into another, so
          [entries] can be overwritten once the message has been handed
          on (see {!Wire.decode} for how long a decoded batch lives).
          Read a batch while handling it; copy what must outlive that.

          The batch must be canonical: [0 <= count] and [2 * count] at
          most the length of [entries], entries sorted by node and
          strictly ascending (one entry per node), nodes in the
          universe, versions non-negative, statuses at most
          {!status_down}. {!Wire.encode} refuses anything else. [full]
          marks the sender's complete view rather than an incremental
          delta. Every service [Exchange] asks the receiver for its
          whole view as a [Reply]: with [full = false] it is a joiner's
          bootstrap request carrying only the joiner's own entry, with
          [full = true] it is the whole-view push that a mismatched
          [Sync] digest triggers. *)

type t =
  | Share of data  (** One-way knowledge transfer. *)
  | Exchange of data  (** Knowledge transfer expecting a reply. *)
  | Reply of data
      (** The answer to an [Exchange] or [Probe]. Carries knowledge like
          [Share], but additionally acknowledges receipt of the
          triggering message — loss-tolerant protocols key their
          retransmission windows off it. *)
  | Probe  (** Pull request: "send me what you know". *)
  | Halt
      (** Termination announcement: the sender has locally decided that
          discovery is finished and will stop transmitting; receivers
          should quiesce too (see {!Hm_gossip} on detection). *)
  | Probe_req of { target : int; nonce : int }
      (** Indirect-probe request: "probe [target] on my behalf". The
          intermediary probes [target] and, on any sign of life, answers
          the requester with a [Probe_ack] echoing the same [nonce]
          (SWIM's ping-req). *)
  | Probe_ack of { target : int; nonce : int }
      (** Indirect-probe answer: the sender vouches that [target] was
          alive for the [Probe_req] correlated by [nonce]. *)
  | Suspicion of { target : int; version : int }
      (** Suspicion claim: the sender currently suspects [target] at
          incarnation [version]. Receivers that independently suspect
          the same (target, version) count it as a confirmation and
          shrink their suspicion timeout; the target itself refutes by
          bumping its incarnation. *)
  | Sync of { digest : int }
      (** Anti-entropy digest: the sender's 62-bit view digest (see
          [View.digest] in the service library), a non-negative int.
          It opens the service's periodic push-pull sync. A receiver
          whose own digest is equal ends the exchange there; one whose
          digest differs answers with its whole view as an [Exchange],
          and the sender's full [Reply] completes the repair. Two views
          that differ in one entry always have different digests; views
          that differ in several collide with probability about
          2{^-62}, and a collision only postpones that pair's repair to
          a later sync. *)

val status_alive : int
val status_suspect : int
val status_down : int
(** The three wire statuses of an update entry: 0, 1 and 2. [status_down]
    covers both graceful leaves and confirmed crashes — either way the
    node is retired from the membership view until a higher incarnation
    refutes it. *)

val update_node : int array -> int -> int
val update_version : int array -> int -> int
val update_status : int array -> int -> int
(** Fields of entry [i] of a flat update batch. *)

val set_update : int array -> int -> node:int -> version:int -> status:int -> unit
(** [set_update entries i ~node ~version ~status] writes entry [i]; a
    batch of [k] entries is a window of [count = k] over an array of at
    least [2 * k] ints, filled in node order.
    @raise Invalid_argument on a status outside [0 .. status_down]. *)

val data_size : data -> int
(** Number of identifiers carried. *)

val measure : t -> int
(** Pointer complexity of a message. Every message implicitly carries its
    sender's address, so [Probe] costs 1; data messages cost their
    identifier count (the sender is always an element of its own
    knowledge). An empty [Updates] batch costs 1 like a probe.
    [Probe_req]/[Probe_ack]/[Suspicion] name a second node and cost
    2; a [Sync] names no node but its sender and costs 1. *)

val merge_data : Knowledge.t -> data -> int
(** Merge carried identifiers into a knowledge set; returns the number of
    identifiers learned. The versions and statuses of [Updates] entries
    are protocol state for the service's membership view and are not
    interpreted here. *)

val empty_delta : data
(** A preallocated empty [Delta] for steady-state "nothing new since my
    last send" resends, shared so the hot path allocates no payload
    body. *)

val pp : Format.formatter -> t -> unit
