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
    state for the sender (empty body, [seq = 0]); [Done] is termination
    gossip — a bare probe/confirmation that the sender's knowledge is
    complete. Every frame additionally carries a completion flag
    ([comp]), so any traffic at all doubles as termination gossip.

    Decoding is incremental (a TCP read may deliver half a frame) and
    defensive: truncation is [`Need_more], while corruption — bad magic,
    unknown version or kind, out-of-bounds length, CRC mismatch — is
    [`Corrupt] with a reason, and a hostile length field is bounded
    {e before} any allocation depends on it. *)

type kind = Data | Ack | Hello | Done

type t = {
  kind : kind;
  src : int;  (** sender's node id *)
  stamp : int;  (** sender's tick count when the message was sent *)
  seq : int;  (** per-link data sequence number (1-based; 0 for bare frames) *)
  ack : int;  (** cumulative: highest in-order seq received from the destination *)
  comp : bool;  (** the sender's knowledge was complete when this frame left *)
  body : bytes;  (** [Wire]-encoded payload (empty for bare frames) *)
}

val header_size : int
(** 28 bytes. *)

val max_body : int
(** Upper bound on [Bytes.length body] accepted by both directions. *)

val peek_kind : bytes -> kind option
(** The frame kind of an encoded envelope, read from the header without
    a full decode (no CRC check) — used by the mux runtime to classify a
    frame it is about to transmit. [None] if the buffer is too short or
    the kind byte is unknown. *)

val crc_mismatch : string
(** The exact [`Corrupt] reason produced by a CRC failure — receivers
    key the [corrupt_frames] counter on it (all other corruption counts
    as a decode error). *)

val encode : t -> bytes
(** @raise Invalid_argument on a negative/overflowing [src], [stamp],
    [seq] or [ack], or a body larger than {!max_body}. *)

val decode : bytes -> off:int -> len:int -> [ `Frame of t * int | `Need_more | `Corrupt of string ]
(** [decode buf ~off ~len] inspects the [len] bytes at [off].
    [`Frame (env, consumed)] hands back one complete envelope and how
    many bytes it occupied; [`Need_more] means the buffer holds only a
    frame prefix; [`Corrupt] means the stream can no longer be trusted
    (the connection should be dropped — there is no resynchronisation). *)
