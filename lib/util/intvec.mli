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
    leaving the rest of [arr] untouched, for scratch arrays longer than
    the part in use. A natural merge sort with inline integer
    comparisons: it finds the maximal ascending runs, extends a run
    shorter than 32 ids by insertion sort, and merges adjacent runs
    pairwise until one is left, so it costs O(m) on sorted input,
    O(m log r) on [r] ascending runs (a learn-order slice, which grows
    by ascending batches) and O(m log m) at worst.

    The merge buffer ([m] ints) and the run bounds (⌈m / 32⌉ + 1 ints)
    are scratch of the calling domain, so sorts on different domains
    run concurrently. The scratch only grows, and the first sort on a
    domain sizes it for at least 1,024 ids: once a domain has sorted
    [m] ids, a sort of up to [m] ids (and any sort of up to 1,024)
    allocates nothing. @raise Invalid_argument unless
    [0 <= m <= Array.length arr]. *)

val sort : t -> unit
(** Sorts the elements ascending in place with {!sort_prefix}. *)

val of_array : int array -> t
val last : t -> int
(** @raise Invalid_argument if empty. *)

(** {2 Int moves}

    [Array.blit] on an array in the major heap pays the write barrier
    per element, because it cannot know the elements are immediate.
    These are int-typed moves for the int payloads of this module and
    of {!Cset}. *)

val blit_ints : int array -> int -> int array -> int -> int -> unit
(** [blit_ints src spos dst dpos len] copies [src.(spos .. spos+len-1)]
    to [dst.(dpos ..)], like [Array.blit]; overlapping ranges of one
    array are handled. @raise Invalid_argument on an invalid range. *)

val copy_ints : int array -> int array
(** A fresh copy of the whole array: [Array.copy] while the copy fits
    the minor heap, the int-typed loop above that. *)

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
