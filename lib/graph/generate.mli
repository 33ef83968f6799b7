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

val directed_path : int -> Topology.t
(** One-way path [0 → 1 → … → n-1]: weakly but not strongly connected. *)

val cycle : int -> Topology.t
(** Symmetric ring. *)

val directed_cycle : int -> Topology.t
(** One-way ring; the classic adversarial input for Random Pointer Jump. *)

val star : int -> Topology.t
(** Symmetric star centred at node 0. *)

val inward_star : int -> Topology.t
(** Every node knows node 0 only; node 0 knows nobody. Models machines
    booting with a single directory-seed address. *)

val complete : int -> Topology.t

val binary_tree : int -> Topology.t
(** Symmetric complete-ish binary tree rooted at 0 (node i ↔ 2i+1, 2i+2). *)

val grid : rows:int -> cols:int -> Topology.t
(** Symmetric 2-D mesh of [rows × cols] nodes. *)

val hypercube : dim:int -> Topology.t
(** Symmetric [dim]-dimensional hypercube on [2^dim] nodes. *)

val lollipop : int -> Topology.t
(** Clique on the first ⌈n/2⌉ nodes glued to a path on the rest. *)

val sorted_chain : int -> Topology.t
(** The sorted-input nemesis: node v's single pointer targets v−1 (node 0
    knows nobody). Ids coincide with ranks, so deterministic min-pointer
    strategies funnel the whole instance onto node 0. *)

val kniesburges : n:int -> w:int -> Topology.t
(** The Kniesburges et al. deterministic worst case: [w] interleaved
    descending sorted lists (node v points to v−w) with the list heads
    0 → 1 → … → w−1 chained; [w = 1] is {!sorted_chain}.
    @raise Invalid_argument if [w < 1]. *)

val k_out : rng:Rng.t -> n:int -> k:int -> Topology.t
(** Each node picks [k] distinct uniform random acquaintances; knowledge
    of an acquaintance is symmetric (both endpoints know each other), so
    every node is known by someone and pull-only algorithms are not
    trivially doomed. Components that sampling happens to leave apart are
    stitched with extra edges. This is the canonical "realistic" input
    for resource-discovery experiments.
    @raise Invalid_argument if [k >= n] or [k < 1]. *)

val erdos_renyi : rng:Rng.t -> n:int -> p:float -> Topology.t
(** G(n,p) with symmetric acquaintance, stitched into connectivity. *)

val clustered : rng:Rng.t -> n:int -> clusters:int -> intra_k:int -> Topology.t
(** Datacenter-pod model: [clusters] equal-sized pods, each pod internally
    a symmetric [intra_k]-out random graph, pod gateways (lowest node of
    each pod) joined in a ring.
    @raise Invalid_argument if [clusters > n]. *)

val seeded_directory : rng:Rng.t -> n:int -> seeds:int -> fanout:int -> Topology.t
(** Bootstrap model: the first [seeds] nodes form a clique (the directory
    tier); every other node knows [fanout] uniformly-chosen seeds.
    @raise Invalid_argument if [seeds < 1] or [fanout > seeds]. *)

val barabasi_albert : rng:Rng.t -> n:int -> m:int -> Topology.t
(** Scale-free preferential attachment: nodes arrive one at a time and
    attach (symmetrically) to [m] existing nodes chosen with probability
    proportional to degree. Models overlays grown by "join via a popular
    peer". @raise Invalid_argument if [m < 1]. *)

val watts_strogatz : rng:Rng.t -> n:int -> k:int -> beta:float -> Topology.t
(** Small-world model: a ring lattice where every node knows its [k]
    nearest neighbours on each side, with each edge rewired to a uniform
    random endpoint with probability [beta]. Interpolates between the
    high-diameter ring (β = 0) and a random graph (β = 1).
    @raise Invalid_argument if [k < 1] or [beta] outside [0, 1]. *)

val random_geometric : rng:Rng.t -> n:int -> radius:float -> Topology.t
(** Nodes at uniform positions in the unit square, symmetric edges
    between pairs within [radius] (stitched into connectivity). Models
    proximity-limited bootstrap knowledge (sensor/wireless deployments) —
    high diameter at small radii.
    @raise Invalid_argument if [radius <= 0]. *)

(** {2 Named families for the experiment harness} *)

type family =
  | Path
  | Directed_path
  | Cycle
  | Directed_cycle
  | Star
  | Inward_star
  | Complete
  | Binary_tree
  | Grid
  | Hypercube
  | Lollipop
  | Sorted_chain
  | Kniesburges of int  (** interleaved sorted lists w *)
  | K_out of int
  | Erdos_renyi of float
  | Clustered of int * int  (** clusters, intra_k *)
  | Seeded_directory of int * int  (** seeds, fanout *)
  | Barabasi_albert of int  (** attachment degree m *)
  | Watts_strogatz of int * float  (** lattice half-degree k, rewiring β *)
  | Random_geometric of float  (** connection radius *)

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
