(** End-to-end execution of a discovery algorithm on a topology.

    Wires an {!Algorithm.t} into the synchronous engine, watches for
    completion, and collects the cost measures the experiments report. A
    run is fully determined by [(algorithm, topology, seed, fault
    model)]. *)

open Repro_graph
open Repro_engine

(** When is an execution considered finished? (Alias of
    {!Exec.completion}, the definition shared with the asynchronous and
    live executors.) *)
type completion = Exec.completion =
  | Strong
      (** every alive node knows all [n] nodes — the paper's "complete
          resource discovery" *)
  | Survivors_strong
      (** every alive node knows at least every other alive node; the
          right predicate under crash faults, where dead nodes'
          identifiers may legitimately never spread *)
  | Leader
      (** weak discovery: some node knows everyone, and every alive node
          knows that node (the leader-election form of the problem) *)
  | Quiescent
      (** every alive node has locally decided it is finished
          ({!Algorithm.instance.is_quiescent}) — only meaningful for
          algorithms with termination detection; the run is judged by
          the nodes themselves rather than by the omniscient observer *)

type result = {
  algorithm : string;
  n : int;
  seed : int;
  completed : bool;
  rounds : int;
  messages : int;  (** total messages sent (connection complexity) *)
  pointers : int;  (** total identifiers transferred *)
  bytes : int;
      (** wire bytes under {!Wire.Adaptive} encoding (the realistic
          serialisation; per-encoding comparisons are experiment T8) *)
  delivered : int;
  dropped : int;
  max_round_messages : int;  (** peak per-round message budget *)
  mean_knowledge_series : float array;
      (** mean knowledge-set size after each round; non-empty only when
          [track_growth] was set *)
  metrics : Metrics.t;
  alive : bool array;
}

type spec = {
  seed : int;  (** master seed; labels, per-node RNGs and the engine derive from it *)
  fault : Fault.t;
  completion : completion;
  max_rounds : int option;
      (** round budget; [None] means [4·n + 64] (generous for every
          terminating algorithm in the suite; flooding on a path needs
          ≈ n) *)
  track_growth : bool;
      (** record the mean knowledge size per round, at O(n) cost per
          round *)
  encoding : Wire.encoding;
      (** wire codec used for byte accounting — does not change the
          execution, only the [bytes] measure *)
  trace : Trace.sink;
      (** structured event trace of the run (see {!Repro_engine.Trace}).
          Observational only: the default {!Repro_engine.Trace.null}
          sink costs nothing and every sink leaves the execution — RNG
          draws, delivery order, metrics — unchanged. *)
  jobs : int;
      (** domains sharding this single run's nodes (see
          {!Repro_engine.Sim.config}); any value produces a
          byte-identical trace and result, content-audited runs
          included. *)
}
(** Everything that parameterises a run besides the algorithm and the
    topology. One immutable value per run: this is what the parallel
    sweep executor passes to each {!Repro_util.Pool} work item. *)

val default_spec : spec
(** [{ seed = 0; fault = Fault.none; completion = Strong; max_rounds =
    None; track_growth = false; encoding = Wire.Adaptive; trace =
    Trace.null; jobs = 1 }] — override fields with
    [{ default_spec with seed; … }]. *)

val exec_spec : spec -> Algorithm.t -> Topology.t -> result
(** [exec_spec spec algo topo] simulates until completion or the round
    budget runs out. Under a fault model with late joins, completion is
    additionally gated on every scheduled join having happened (the
    predicates quantify over currently-active nodes). A run is a pure
    function of [(spec, algo, topo)] and touches no global state, so
    independent runs may execute on concurrent domains. *)
