(** Length-prefixed wire envelope for the socket transports.

    The {!Repro_discovery.Wire} codecs serialise a payload's identifier
    set; a live byte stream additionally needs framing, integrity and —
    since the reliability layer — delivery bookkeeping. Every message on
    a UDS/TCP connection travels as one envelope: a 28-byte header —
    magic, version, frame {!kind}, sender node id, the sender's tick
    stamp, a per-link sequence number, a cumulative ack, body length,
    CRC-32 covering the whole header and the body — followed by the
    [Wire]-encoded payload body.

    Frame kinds: [Data] carries an algorithm payload and occupies one
    slot in the per-link sequence space; [Ack] is a pure cumulative
    acknowledgement (empty body, [seq = 0]); [Hello] announces a fresh
    incarnation after a restart and asks the receiver to reset its link
    state for the sender (empty body, [seq = 0]). No frame says whether
    the run is over: the runtime's observer alone decides that. The
    layout is version 4; a frame of any other version is rejected.

    {b A frame's life.} A data frame is one buffer from encode to
    delivery. {!Repro_discovery.Wire.encode} writes the payload after
    {!header_size} bytes of room, once, and the sender's go-back-N send
    buffer keeps that buffer. On the frame's first transmission {!seal}
    writes the header and CRC into the room, in place, and the buffer is
    lent to the transport. Once lent it is never written again: the
    transport may still hold it (the mux's event heap, the fault shim's
    hold queue). Every later transmission of the frame — a
    retransmission, or the resend after a hello reset — copies the
    buffer and seals the copy with the current sequence number and
    ack. A bare frame is one {!header_size}-byte buffer, sealed once. A
    receiver checks a frame where it lies ({!decode}) and reads its
    header fields and body in place: no body is copied out of a frame.

    Decoding is incremental (a TCP read may deliver half a frame) and
    defensive: truncation is {!need_more}, while corruption — bad magic,
    unknown version or kind, out-of-bounds length, CRC mismatch — is a
    negative verdict that {!reason} names, and a hostile length field is
    bounded {e before} any allocation depends on it. *)

type kind = Data | Ack | Hello

val header_size : int
(** 28 bytes. *)

val max_body : int
(** Upper bound on a frame's body length accepted by both directions. *)

val seal : bytes -> kind -> src:int -> stamp:int -> seq:int -> ack:int -> unit
(** [seal frame kind ~src ~stamp ~seq ~ack] writes the header,
    CRC included, into the first {!header_size} bytes of [frame]; the
    body is the rest of the buffer. [seq] is the per-link data sequence
    number (1-based; 0 for bare frames), [ack] the cumulative ack
    (highest in-order seq received from the destination) and [stamp]
    the sender's tick count.
    @raise Invalid_argument on a negative/overflowing [src], [stamp],
    [seq] or [ack], a frame shorter than the header, or a body larger
    than {!max_body}. *)

val peek_kind : bytes -> kind option
(** The frame kind of an encoded envelope, read from the header without
    a full decode (no CRC check) — used by the mux runtime to classify a
    frame it is about to transmit. [None] if the buffer is too short or
    the kind byte is unknown. *)

val crc_mismatch : string
(** The exact {!reason} for a CRC failure — receivers key the
    [corrupt_frames] counter on it (all other corruption counts as a
    decode error). *)

val need_more : int
(** [0]: the {!decode} verdict for a buffer holding only a frame prefix. *)

val decode : bytes -> off:int -> len:int -> int
(** [decode buf ~off ~len] checks the [len] bytes at [off] for one whole
    envelope, in place and without allocating. A positive verdict is the
    frame's length: the readers below then give its header fields at
    [off], and its body is the {!body_length} bytes at
    [off + header_size]. {!need_more} means the buffer holds only a frame
    prefix; a negative verdict means the stream can no longer be trusted
    (the connection should be dropped — there is no resynchronisation)
    and {!reason} names why.
    @raise Invalid_argument if the slice lies outside [buf]. *)

val reason : bytes -> off:int -> int -> string
(** [reason buf ~off verdict] names a negative {!decode} verdict for the
    frame at [off].
    @raise Invalid_argument on a verdict that is not negative. *)

val crc32 : bytes -> off:int -> len:int -> int
(** [crc32 buf ~off ~len] is the CRC-32 (IEEE 802.3, reflected, the
    zlib/Ethernet checksum) of the [len] bytes at [off], the function
    {!seal} and {!decode} apply to the header's first 24 bytes followed
    by the body. Computed eight bytes a step (slicing-by-8), without
    allocating. @raise Invalid_argument if the slice lies outside [buf]. *)

(** {2 Header fields}

    Each reads one field of a frame at [off] that {!decode} accepted. *)

val kind : bytes -> off:int -> kind
val src : bytes -> off:int -> int
val stamp : bytes -> off:int -> int
val seq : bytes -> off:int -> int
val ack : bytes -> off:int -> int
val body_length : bytes -> off:int -> int
