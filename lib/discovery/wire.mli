(** Wire encoding of discovery messages.

    Pointer complexity (identifiers transferred) is the literature's
    abstract measure; what a deployment pays is bytes. This module
    provides real, invertible codecs for knowledge payloads so the
    harness can report wire bytes (experiment T8) and so the choice of
    identifier-set representation can be ablated:

    - {!Raw32}: 4 bytes per identifier — the naive wire format;
    - {!Varint_delta}: identifiers sorted, gap-encoded, LEB128 varints —
      compact for both sparse and dense sets (dense sets have small
      gaps);
    - {!Bitmap}: ⌈universe/8⌉ bytes regardless of cardinality — cheap
      for near-full snapshots, wasteful for small deltas;
    - {!Adaptive}: whichever of varint/bitmap is smaller for the payload
      at hand, at the cost of a one-byte discriminator.

    Every message additionally carries one kind byte ([Share] /
    [Exchange] / [Reply] / [Probe]) and, for identifier lists, a varint
    length prefix.

    The service's anti-entropy digest ({!Payload.Sync}, kind 8) is the
    kind byte and one minimal varint: 10 bytes for a typical 62-bit
    digest, against a few bytes per entry for the whole-view batch it
    replaces when two views already agree. *)

type encoding = Raw32 | Varint_delta | Bitmap | Adaptive

val encoding_name : encoding -> string
val all_encodings : encoding list

val encode : encoding -> universe:int -> room:int -> Payload.t -> bytes
(** Serialise a message into one buffer of exactly [room +]
    {!encoded_size} bytes: the message starts at byte [room], and the
    first [room] bytes are left for the caller to fill (the live path
    passes [Envelope.header_size], so the envelope's header is written
    into the same buffer and the body is never copied). [universe] is
    the id space size [n] (needed for bitmap width); identifiers must
    lie in [0, universe). Every identifier set
    — a [Bits] snapshot, an [Ids] list or a [Delta] slice — is written
    as its distinct identifiers in ascending order under one codec rule:
    [Raw32], [Varint_delta] and [Bitmap] fix the body codec, and
    [Adaptive] takes the varint body when it is no larger than the
    bitmap. The update batches, the liveness kinds and the sync digest
    have one codec each, whatever the [encoding].
    @raise Invalid_argument on out-of-range identifiers, a negative
    digest or a negative [room]. *)

val decode : universe:int -> bytes -> off:int -> len:int -> (Payload.t, string) result
(** [decode ~universe buf ~off ~len] decodes the message held in the
    [len] bytes at [off], reading nothing outside them, so a message
    is decoded where it lies (in an envelope, in a stream buffer).
    Inverse of {!encode} up to the set-of-identifiers semantics of the
    payload: identifier lists come back sorted and deduplicated, and a
    [Delta] slice comes back as [Ids]. The snapshot form is preserved
    exactly — a payload sent as [Bits] decodes as [Bits] and one sent as
    [Ids]/[Delta] never does, whichever body codec won the size contest.
    Algorithms read meaning into that distinction (a full-knowledge
    snapshot vs a small explicit list), so it must survive the wire for
    the live backends to be trace-identical to the in-memory ones.
    Total on arbitrary input: every malformed buffer —
    truncated, corrupted, hostile length fields — is reported as
    [Error], never an exception, and claimed element counts are
    validated against the bytes actually present before any allocation
    is sized from them (a 5-byte buffer cannot demand a billion-element
    array); a slice outside the buffer is an [Error] too. The codec byte
    of each frame names its body codec, so no [encoding] is needed. A
    snapshot is built straight into its set and an id list into its
    array, whichever body codec carried the ids. The network transport
    layer decodes socket input through this function.

    A decoded update batch is {e lent}: its [entries] are a grow-only
    array of the calling domain, valid until the next decode of an
    update batch on that domain (successful or not), which overwrites
    them. A decode on another domain does not touch them. Handle the
    batch, or copy its first [count] entries, before decoding the next
    one; the scratch grows only to a count already checked against the
    bytes present. *)

val encoded_size : encoding -> universe:int -> Payload.t -> int
(** [encoded_size e ~universe p] = [Bytes.length (encode e ~universe ~room:0 p)],
    computed without materialising the buffer. An update batch is
    checked for canonical form in the same pass that sizes it.
    @raise Invalid_argument on an update batch that {!encode} refuses. *)

val sizer : encoding -> universe:int -> Payload.t -> int
(** [sizer e ~universe] is [encoded_size e ~universe] with a memo of the
    last payload sized, keyed by physical equality: a fan-out hands one
    payload value to every recipient in a row, so it is sized once. The
    engines' [measure_bytes] is this function ({!Repro_engine.Sim.run}
    calls it from the coordinator only, in the canonical order). A
    payload must not be mutated once sent, or a resend of the same value
    reads its old size; a lent update batch is a fresh [Updates] record
    per send, so it never hits the memo. The memo is one closure's
    state, not shared: make one sizer per run, used by one domain. *)

val ids_of_payload : Payload.t -> int list
(** The sorted identifier set a payload carries (empty for [Probe]) —
    the equality used by the codec round-trip laws. *)
