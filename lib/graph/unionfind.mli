(** Disjoint-set forest with union-by-rank and path compression.

    Used to check weak connectivity of generated knowledge graphs and to
    stitch random graphs into a single weakly-connected component. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative. @raise Invalid_argument if out of range. *)

val union : t -> int -> int -> bool
(** Merge the two sets; returns [true] iff they were previously distinct. *)

val count : t -> int
(** Number of disjoint sets remaining. *)

val components : t -> int list list
(** The partition, each component's members in increasing order. *)
