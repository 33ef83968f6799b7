(** Shared run-spec plumbing for every executor of a discovery run.

    A run — simulated ({!Run}, {!Run_async}) or live
    ({!Repro_net.Cluster}) — is parameterised the same way: a master
    seed determines the shared label permutation and every node's
    private RNG stream, an {!Algorithm.t} is instantiated once per node
    from the topology's initial out-neighbors, and a {!completion}
    predicate decides when discovery is finished. This module is the
    single definition of that derivation, so the deterministic engines
    and the network transport layer cannot drift apart: a node process
    and a simulated node with the same (seed, node) see bit-identical
    initial state. *)

open Repro_graph
open Repro_engine

(** When is an execution considered finished? (See {!Run.completion}
    for the per-variant discussion; [Run.completion] is an alias of
    this type.) *)
type completion = Strong | Survivors_strong | Leader | Quiescent

val labels_of : seed:int -> int -> int array
(** The shared label permutation of a run with this master seed
    (see DESIGN.md §7): substream 0 of the seed. *)

val instantiate :
  seed:int ->
  labels:int array ->
  Algorithm.t ->
  node:int ->
  neighbors:int array ->
  Algorithm.instance
(** The one node-instantiation rule: node [node] of a run with master
    seed [seed] and label permutation [labels] (so [n] is the length of
    [labels]) starts from [neighbors] with its private RNG from
    substream [node + 1]. Every executor, simulated or live, builds its
    nodes through this function (the golden traces pin the resulting
    RNG draw order). *)

val instances : seed:int -> Algorithm.t -> Topology.t -> int array * Algorithm.instance array
(** [(labels, instances)] — every node of a run: labels from
    {!labels_of}, node [v] from {!instantiate} with its out-neighbors in
    the topology. *)

val satisfied :
  completion ->
  labels:int array ->
  instances:Algorithm.instance array ->
  alive:(int -> bool) ->
  bool
(** Evaluate a completion predicate over the current instance states.
    Predicates quantify over currently-alive nodes only; callers gate on
    {!last_join_round} so scheduled joiners are not vacuously skipped. *)

val last_join_round : Fault.t -> int
(** The latest scheduled join {e or restart} round (0 when none):
    completion must not be declared before this round/time. *)

val restart_instance :
  seed:int ->
  labels:int array ->
  Algorithm.t ->
  Topology.t ->
  Algorithm.instance array ->
  node:int ->
  unit
(** Reset [instances.(node)] to its initial state through
    {!instantiate} with the run's [labels], mirroring a live restart
    where the supervisor re-forks the node process from scratch.
    Pass it as the engines' [on_restart] callback. *)

val handlers : Algorithm.instance array -> Payload.t Sim.handlers
(** Engine handlers that drive [instances]: poll [round] on round begin,
    route deliveries to [receive]. *)
