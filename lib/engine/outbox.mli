(** Grow-only struct-of-arrays message buffer.

    One instance is reused across every round of a simulation run:
    {!clear} resets the length without releasing storage, so steady-state
    rounds push into already-allocated arrays and the engine's send phase
    allocates nothing. Slots are numbered [0 .. length - 1] in push
    order; {!iter} and {!filter} walk them in that order, and the
    engine's delivery index names them by number.

    A slot's source and destination are packed into one int word, so a
    slot costs two words: its ids and its message.

    After {!clear}, message references pushed in earlier rounds are
    retained until overwritten by later pushes (the element type has no
    dummy value to scrub with). The retention is bounded by the buffer's
    high-water mark. *)

type 'msg t

val max_id : int
(** The largest source or destination a slot holds: [2^31 - 1]. *)

val create : unit -> 'msg t
val length : 'msg t -> int
val is_empty : 'msg t -> bool

val clear : 'msg t -> unit
(** Reset to empty, keeping the allocated storage. *)

val capacity : 'msg t -> int
(** Current allocated slots — grows monotonically, for tests asserting
    reuse. *)

val push : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Append a slot.
    @raise Invalid_argument if [src] or [dst] is outside [0 .. max_id]. *)

val dst : 'msg t -> int -> int
(** [dst t i] is slot [i]'s destination, or [-1] if the slot is
    cancelled.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val src : 'msg t -> int -> int
(** [src t i] is slot [i]'s source, cancelled or not.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val msg : 'msg t -> int -> 'msg
(** [msg t i] is slot [i]'s message, cancelled or not.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val iter : 'msg t -> (int -> int -> 'msg -> unit) -> unit
(** [iter t f] calls [f src dst msg] for each message not cancelled, in
    push order. The buffer must not be modified during iteration. *)

val filter : 'msg t -> (int -> int -> 'msg -> bool) -> unit
(** [filter t keep] cancels, in place, each message for which [keep src
    dst msg] (called in push order) is [false]; it keeps its slot, and
    {!length}, until {!clear}. *)
