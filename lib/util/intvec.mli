(** Growable arrays of integers.

    Used for the insertion-ordered element lists that accompany knowledge
    sets (uniform random choice over a knowledge set needs O(1) access
    by rank) and for per-round metric series. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
(** @raise Invalid_argument if the index is out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument if the index is out of bounds. *)

val push : t -> int -> unit

val reserve : t -> int -> unit
(** [reserve t cap] makes room for [cap] elements at once, so pushes up
    to that length do not reallocate. A no-op when the capacity is
    already at least [cap]. *)

val pop : t -> int
(** Removes and returns the last element. @raise Invalid_argument if empty. *)

val clear : t -> unit
val is_empty : t -> bool
val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_array : t -> int array

val sort_prefix : int array -> int -> unit
(** [sort_prefix arr m] sorts [arr.(0 .. m-1)] ascending in place,
    leaving the rest of [arr] untouched. An allocation-free heapsort
    with inline integer comparisons, for scratch arrays longer than the
    part in use. @raise Invalid_argument unless [0 <= m <= Array.length arr]. *)

val sort : t -> unit
(** Sorts the elements ascending in place, without allocating. *)

val of_array : int array -> t
val last : t -> int
(** @raise Invalid_argument if empty. *)

(** {2 Zero-copy slices}

    A slice is a read-only window into a vector's backing storage,
    taken without copying. It remains valid across later [push]es (the
    elements it covers are captured by reference), but its contents are
    unspecified if the covered range is mutated with {!set} or recycled
    via {!clear} followed by pushes. Intended for append-only vectors
    such as knowledge learn orders, where neither happens. *)

type slice

val slice : t -> pos:int -> len:int -> slice
(** [slice t ~pos ~len] is the window [pos .. pos+len-1], in O(1).
    @raise Invalid_argument on an invalid range. *)

val slice_length : slice -> int

val slice_get : slice -> int -> int
(** @raise Invalid_argument if the index is out of bounds. *)

val slice_iter : (int -> unit) -> slice -> unit
val slice_fold : ('a -> int -> 'a) -> 'a -> slice -> 'a

val slice_to_array : slice -> int array
(** Copies the window out. *)
