(** Deterministic pseudo-random number generation.

    Implements the xoshiro256★★ generator seeded through splitmix64. All
    randomness in the reproduction flows through this module so that a
    simulation run is a pure function of its integer seed, independent of
    the OCaml standard library's [Random] implementation (which changes
    between compiler releases). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is entirely determined
    by [seed]. Any integer (including negative values) is a valid seed. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Used to give every simulated node its own stream so
    that per-node behaviour does not depend on scheduling order. *)

val substream : seed:int -> index:int -> t
(** [substream ~seed ~index] deterministically derives the [index]-th
    substream of master seed [seed] without constructing intermediate
    generators. [substream ~seed ~index:i] is stable across runs. *)

val bits64 : t -> int64
(** Next raw 64-bit output word. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0 .. n-1]. *)

val sample_distinct : t -> n:int -> k:int -> avoid:int -> int array
(** [sample_distinct t ~n ~k ~avoid] draws [k] distinct values uniformly
    from [0 .. n-1] excluding [avoid] (pass a value outside the range to
    exclude nothing). Requires [k] ≤ number of eligible values.
    @raise Invalid_argument if the request is unsatisfiable. *)
