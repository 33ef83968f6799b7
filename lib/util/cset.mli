(** Adaptive compressed integer sets (Roaring-style).

    The knowledge-set representation at every scale: the universe
    [0 .. n-1] is split into containers of 65,536 consecutive
    ids, and each container independently picks a sorted array (sparse),
    a bitmap (dense, 64 members per word of a [Bytes] block) or the
    payload-free full form (saturated) — so a
    set costs O(members) when sparse and O(1) per container once full,
    instead of O(n) bits always. Saturated containers also merge in O(1): the
    dominant case for converged knowledge sets.

    The sparse/dense boundary is set by merge cost, not memory. A
    container turns into a bitmap past 1/512 of its span (floored at 8
    members), long before the bitmap would be the smaller form: a
    sorted-array union walks and moves every member of both sides,
    while a bitmap absorbs each source member with one OR. Knowledge
    sets spend most of their merges in that mid-density band.
    Representation never shows through the interface: iteration order,
    results and callbacks are the same for every choice.

    {!freeze} gives an immutable view that aliases the owner's storage:
    a mutator called on the view raises [Invalid_argument], and the
    owner privatises on its first subsequent write (copy-on-write), so
    existing views never change. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val create_unbounded : unit -> t
(** An empty set over an unbounded universe: [add]/[mem] accept any
    non-negative id and storage grows with the high-water container.
    Unbounded sets support point and query operations but not the
    binary set operations ({!union_into}, {!subset}, …), which require
    matching bounded capacities. Used by the trace invariant checker,
    whose per-node bookkeeping must not cost O(n) per node. *)

val capacity : t -> int
(** Universe size ([create]) or current high-water id + 1 (unbounded). *)

val cardinal : t -> int
(** Number of elements, maintained in O(1). *)

val is_empty : t -> bool

val is_full : t -> bool
(** [is_full t] iff a bounded set contains its whole universe. *)

val mem : t -> int -> bool
(** Membership test. @raise Invalid_argument if out of range. *)

val add : t -> int -> bool
(** [add t v] inserts [v]; returns [true] iff [v] was not already
    present. @raise Invalid_argument if out of range. *)

val remove : t -> int -> bool
(** [remove t v] deletes [v]; returns [true] iff [v] was present. *)

val copy : t -> t
(** Independent (deep, always-mutable) copy. *)

val freeze : t -> t
(** O(containers) immutable view aliasing the owner's storage, the
    zero-copy path for snapshots shared across a fan-out. A mutator
    ({!add}, {!remove}, {!union_into}, …) on the view raises
    [Invalid_argument]; the owner stays mutable, and its first write
    after the freeze re-materialises private storage, so the view never
    changes. Freezing a frozen view returns it unchanged. *)

val is_frozen : t -> bool

val union_into : dst:t -> src:t -> int
(** [union_into ~dst ~src] adds every element of [src] to [dst] and
    returns the number of newly-added elements. O(containers) when the
    source containers are saturated — no per-element work.
    @raise Invalid_argument if capacities differ. *)

val union_into_with : dst:t -> src:t -> (int -> unit) -> int
(** Like {!union_into} but calls [f v] for every element newly added,
    in increasing order. This forces per-element enumeration, so it is
    reserved for merges whose minima are unknown; snapshot merges use
    {!union_into}. *)

val diff_into : dst:t -> src:t -> int
(** [diff_into ~dst ~src] removes every element of [src] from [dst] and
    returns the number removed; [src] is not modified. The work follows
    [dst], not [src]: O(1) per container whose source container is full,
    a probe of [src] per member of an array container, and a word pass
    for a bitmap container. A private destination allocates nothing
    unless a full container has to expand into a bitmap; a
    destination with a frozen view re-materialises its containers
    first, so the view keeps its members.
    @raise Invalid_argument if [dst] is frozen or capacities differ. *)

val inter_cardinal : t -> t -> int
val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val elements : t -> int list
val to_array : t -> int array
val of_array : int -> int array -> t

val of_bitmap_bytes : int -> bytes -> int -> t
(** [of_bitmap_bytes n buf pos] is the set over [0 .. n-1] read from the
    little-endian byte bitmap of width [⌈n/8⌉] at [buf.[pos]]: [v] is a
    member iff bit [v land 7] of byte [pos + v lsr 3] is set. Bits of
    the last byte at or beyond [n] are ignored. This is the in-memory
    layout of a bitmap container, so a bitmap container is one
    [Bytes.blit] (plus a mask on the universe's ragged last byte), and
    every container gets the representation that adding the members
    one at a time would give it (same kinds, cardinals and
    {!memory_words}).
    @raise Invalid_argument if the bitmap does not fit in [buf]. *)

val blit_bitmap_bytes : t -> bytes -> int -> unit
(** [blit_bitmap_bytes t buf pos] writes [t] as the byte bitmap of width
    [⌈capacity t / 8⌉] at [buf.[pos]], the inverse of {!of_bitmap_bytes};
    every byte of that range is overwritten; a bitmap container is one
    [Bytes.blit].
    @raise Invalid_argument if the bitmap does not fit in [buf]. *)

val choose_nth : t -> int -> int
(** [choose_nth t k] is the [k]-th smallest element (0-based), in
    O(containers + in-container select).
    @raise Invalid_argument if [k < 0 || k >= cardinal t]. *)

val rank : t -> int -> int
(** [rank t v] is the number of elements strictly below [v].
    @raise Invalid_argument if [v] is out of range. *)

val min_elt : t -> int
(** Smallest element. @raise Invalid_argument if the set is empty. *)

val memory_words : t -> int
(** Approximate heap words held by the set (reporting aid): records,
    headers and payloads, a bitmap counted as the words of its [Bytes]
    block, 64 members per word. *)

val pp : Format.formatter -> t -> unit
