(** A binary min-heap of timestamped payloads, ordered by (time,
    insertion sequence): equal times pop in push order, so a
    discrete-event loop over it is deterministic.

    Times and sequence numbers live unboxed in parallel arrays beside the
    payload array, so a push stores no entry record; a popped slot is
    reset to the [dummy] payload at once, so the heap never keeps a
    delivered payload alive. Capacity doubles on demand and never
    shrinks: once warm, push and pop allocate nothing themselves. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap. [dummy] fills unused payload slots; it is never
    returned by {!pop}. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h time x] schedules [x] at [time]. *)

val min_time : 'a t -> float
(** The time of the next payload {!pop} would return.
    @raise Invalid_argument when the heap is empty. *)

val pop : 'a t -> 'a
(** Remove and return the payload with the least (time, sequence).
    @raise Invalid_argument when the heap is empty. *)
