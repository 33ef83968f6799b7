(** Structural analysis of knowledge graphs.

    Discovery lower bounds are governed by the *undirected* (weak)
    structure of the initial knowledge graph — knowledge can flow against
    edge direction because pushed messages always carry the sender's own
    identifier. These helpers validate generator output and annotate
    experiment rows with the diameter term of the paper's
    O(log D + log log n) bound. *)

open Repro_util

val is_weakly_connected : Topology.t -> bool

val undirected_bfs : Topology.t -> source:int -> int array
(** Distances in the symmetrised graph; unreachable nodes get [-1]. *)

val weak_diameter_exact : Topology.t -> int
(** Exact diameter of the symmetrised graph (all-sources BFS — use only
    for small [n]). Returns [-1] when disconnected, [0] for n ≤ 1. *)

val weak_diameter_estimate : rng:Rng.t -> Topology.t -> int
(** Lower-bound estimate via four double-sweep BFS passes from random
    sources; exact on trees and within a small factor in practice.
    Returns [-1] when disconnected. *)

val degree_stats : Topology.t -> Stats.summary
(** Summary of out-degrees. @raise Invalid_argument on the empty graph. *)
