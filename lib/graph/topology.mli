(** Directed knowledge graphs.

    A topology is the *initial* knowledge state of a resource-discovery
    instance: an edge [u → v] means machine [u] starts out knowing machine
    [v]'s address. Nodes are the integers [0 .. n-1]. Self-loops are
    implicit (every machine knows itself) and never stored. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** Build a topology; duplicate edges and self-loops are dropped.
    @raise Invalid_argument if [n < 0] or an endpoint is out of range. *)

val create_packed : n:int -> codes:int array -> len:int -> t
(** [create_packed ~n ~codes ~len] builds a topology from the packed
    edge codes [codes.(0 .. len-1)], each [u * n + v]. The allocation-
    lean construction path for generators that produce many edges: the
    caller keeps one grow-only scratch array across calls instead of
    consing a tuple list per graph. [codes] is scratch — its prefix is
    sorted and compacted in place. Duplicates and self-loops are
    dropped, as in {!create}.
    @raise Invalid_argument if [n < 0], [len] exceeds the array, or a
    code is out of range. *)

val n : t -> int
(** Number of nodes. *)

val out_degree : t -> int -> int
val out_neighbors : t -> int -> int array
(** The nodes [v] initially knows, in increasing order. The returned
    array is fresh on every call. *)

val edges : t -> (int * int) list
(** All edges, lexicographically ordered. *)

val edge_count : t -> int

val mem_edge : t -> int -> int -> bool

val symmetrize : t -> t
(** Add the reverse of every edge (knowledge graphs are often built from
    undirected acquaintance relations). *)

val map_nodes : t -> int array -> t
(** [map_nodes t perm] relabels node [i] as [perm.(i)].
    @raise Invalid_argument if [perm] is not a permutation of [0..n-1]. *)
