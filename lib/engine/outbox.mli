(** Grow-only struct-of-arrays message buffer.

    One instance is reused across every round of a simulation run:
    {!clear} resets the length without releasing storage, so steady-state
    rounds push into already-allocated arrays and the engine's send phase
    allocates nothing. Iteration order is push order — the engine's
    delivery phase depends on it.

    After {!clear}, message references pushed in earlier rounds are
    retained until overwritten by later pushes (the element type has no
    dummy value to scrub with). The retention is bounded by the buffer's
    high-water mark. *)

type 'msg t

val create : unit -> 'msg t
val length : 'msg t -> int
val is_empty : 'msg t -> bool

val clear : 'msg t -> unit
(** Reset to empty, keeping the allocated storage. *)

val capacity : 'msg t -> int
(** Current allocated slots — grows monotonically, for tests asserting
    reuse. *)

val push : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** [dst] must be non-negative: a negative destination marks a
    cancelled slot. *)

val iter : 'msg t -> (int -> int -> 'msg -> unit) -> unit
(** [iter t f] calls [f src dst msg] for each message not cancelled, in
    push order. The buffer must not be modified during iteration. *)

val filter : 'msg t -> (int -> int -> 'msg -> bool) -> unit
(** [filter t keep] cancels, in place, each message for which [keep src
    dst msg] (called in push order) is [false]; it keeps its slot, and
    {!length}, until {!clear}. *)
