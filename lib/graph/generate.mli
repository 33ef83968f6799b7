(** Knowledge-graph generators.

    All generators produce weakly-connected topologies over [0 .. n-1]
    (random families are stitched into one component when sampling leaves
    them disconnected). Random generators draw exclusively from the
    supplied {!Repro_util.Rng.t}, so a topology is a pure function of
    [(family, parameters, seed)]. *)

open Repro_util

val path : int -> Topology.t
(** Symmetric path [0 – 1 – … – n-1]: the worst-case (diameter n−1)
    initial knowledge graph. *)

val complete : int -> Topology.t

val grid : rows:int -> cols:int -> Topology.t
(** Symmetric 2-D mesh of [rows × cols] nodes. *)

val k_out : rng:Rng.t -> n:int -> k:int -> Topology.t
(** Each node picks [k] distinct uniform random acquaintances; knowledge
    of an acquaintance is symmetric (both endpoints know each other), so
    every node is known by someone and pull-only algorithms are not
    trivially doomed. Components that sampling happens to leave apart are
    stitched with extra edges. This is the canonical "realistic" input
    for resource-discovery experiments.
    @raise Invalid_argument if [k >= n] or [k < 1]. *)

val clustered : rng:Rng.t -> n:int -> clusters:int -> intra_k:int -> Topology.t
(** Datacenter-pod model: [clusters] equal-sized pods, each pod internally
    a symmetric [intra_k]-out random graph, pod gateways (lowest node of
    each pod) joined in a ring.
    @raise Invalid_argument if [clusters > n]. *)

val seeded_directory : rng:Rng.t -> n:int -> seeds:int -> fanout:int -> Topology.t
(** Bootstrap model: the first [seeds] nodes form a clique (the directory
    tier); every other node knows [fanout] uniformly-chosen seeds.
    @raise Invalid_argument if [seeds < 1] or [fanout > seeds]. *)

(** {2 Named families for the experiment harness} *)

type family =
  | Path  (** {!path} *)
  | Directed_path  (** one-way path [0 → 1 → … → n-1] *)
  | Cycle  (** symmetric ring *)
  | Directed_cycle  (** one-way ring; the adversarial input of Random Pointer Jump *)
  | Star  (** symmetric star centred at node 0 *)
  | Inward_star
      (** every node knows node 0 only, and node 0 knows nobody: machines
          booting with a single directory-seed address *)
  | Complete
  | Binary_tree  (** symmetric binary tree rooted at 0 (node i ↔ 2i+1, 2i+2) *)
  | Grid  (** {!grid} on a near-square layout *)
  | Hypercube  (** symmetric hypercube on the largest power of two [<= n] *)
  | Lollipop  (** clique on the first ⌈n/2⌉ nodes glued to a path on the rest *)
  | Sorted_chain
      (** the sorted-input nemesis: node v's single pointer targets v−1
          (node 0 knows nobody), so deterministic min-pointer strategies
          funnel the whole instance onto node 0 *)
  | Kniesburges of int
      (** the Kniesburges et al. deterministic worst case: [w]
          interleaved descending sorted lists (node v points to v−w) with
          the list heads 0 → 1 → … → w−1 chained; [w = 1] is
          [Sorted_chain]. {!build} raises [Invalid_argument] if [w < 1]. *)
  | K_out of int  (** {!k_out} *)
  | Erdos_renyi of float  (** G(n,p) with symmetric acquaintance *)
  | Clustered of int * int  (** {!clustered}: clusters, intra_k *)
  | Seeded_directory of int * int  (** {!seeded_directory}: seeds, fanout *)
  | Barabasi_albert of int
      (** scale-free preferential attachment: each arriving node attaches
          symmetrically to [m] existing nodes chosen with probability
          proportional to degree ([m >= 1]) *)
  | Watts_strogatz of int * float
      (** small world: a ring lattice where every node knows its [k]
          nearest neighbours on each side, each edge rewired to a uniform
          endpoint with probability β ([k >= 1], β in [0, 1]) *)
  | Random_geometric of float
      (** uniform points in the unit square, symmetric edges between
          pairs within the radius ([> 0]): high diameter at small radii *)

val family_name : family -> string
val family_of_string : string -> (family, string) result
(** Parse names like ["path"], ["kout:3"], ["er:0.01"], ["clustered:8:3"],
    ["seeds:16:2"], ["ba:2"], ["ws:3:0.1"], ["geo:0.05"], ["sorted_chain"],
    ["kniesburges:4"] (bare ["kniesburges"] defaults to w = 8). *)

val build : family -> rng:Rng.t -> n:int -> Topology.t
(** Instantiate a family at size [n]. [Grid] uses a near-square layout,
    [Hypercube] rounds [n] down to a power of two. *)

val of_seed : family -> n:int -> seed:int -> Topology.t
(** The topology a run seed stands for: {!build} over the seed's
    [0x70b0] substream. Every execution path — the sweeps, the CLI, the
    cluster backends — builds its topology here, so [discovery_cli run
    --seed s] reproduces an experiment cell and a live cluster runs the
    graph the simulators ran. *)

val all_families : family list
(** The families exercised by the topology-sensitivity experiment (T4). *)

val adversarial_families : family list
(** The named worst-case instances swept by the adversarial experiment
    (T12) and the CI chaos matrix: sorted chain, star, lollipop, binary
    tree and the Kniesburges instance. *)
