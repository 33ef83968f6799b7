(** The chaos matrix: live clusters under seeded fault plans.

    The matrix sweeps a grid of algorithms × topologies × named
    {e plan families} over a live {!Cluster} and reduces every cell to
    a pass count. A trial passes when the cluster converges and the
    online invariant checker flags no violation. Trial [i] of a cell
    uses [seed + i] for the topology, the labels and the plan, and its
    plan depends on that seed and the plan family alone: the same plan
    stresses every (algorithm, topology) cell, and a failing trial
    replays alone as [seed = seed + i, trials = 1]. On the mux backend
    (virtual clock) the JSON summary is byte-reproducible, so CI diffs
    it against a pinned baseline. *)

open Repro_graph
open Repro_engine

val plan_families : string list
(** [["links"; "partition"; "crash"; "wan"]], the default sweep. Each
    family isolates one fault dimension: base link noise (loss up to
    0.2, duplication, reordering, corruption); a healing two-group
    partition; a crash with a later restart; a two-region WAN profile
    (cross-region delay, loss and a bandwidth cap). Fabrication is
    deliberately excluded: an audited fabrication must fail, so it has
    its own negative tests instead of a pass-count cell.

    One more family, ["mixed"], is accepted wherever a family is named:
    each plan has base link noise, a healing partition and a crash with
    a restart at once. *)

type cell = {
  cell_algo : string;
  cell_topology : string;
  cell_plan : string;
  cell_n : int;
  cell_trials : int;
  cell_passed : int;
}

val matrix_to_json : cell list -> string
(** One line per cell, newline-terminated; stable field order and no
    wall-clock fields, so it is safe to pin. *)

type trial = {
  trial_algo : string;
  trial_topology : string;
  trial_plan_family : string;
  trial_seed : int;  (** [seed + i] for trial [i]: the seed that replays it alone *)
  trial_plan : Fault.t;
  trial_passed : bool;  (** converged with no invariant violation *)
}
(** One finished trial of a cell, as {!matrix} reports it. *)

val matrix :
  ?progress:(trial -> unit) ->
  algos:Repro_discovery.Algorithm.t list ->
  families:Generate.family list ->
  plans:string list ->
  n:int ->
  trials:int ->
  seed:int ->
  backend:Backend.t ->
  timeout:float ->
  unit ->
  cell list
(** Run every (algorithm, topology, plan family) cell for [trials]
    seeded trials; trial [i] of a given plan family uses the same plan
    in every cell, so cells are comparable. [progress] is called after
    each trial. Cells appear in deterministic grid order (algorithms
    outermost, plan families innermost).
    @raise Invalid_argument if [trials < 1], [n < 2], or a plan name is
    unknown. *)

(** {2 Trace-level diagnosis of a failing cell}

    A pinned failing cell records {e that} a configuration loses trials;
    [diagnose] replays one trial with a tracing sink to show {e why}.
    For partition plans the interesting signal is which nodes stopped
    transmitting before the cut healed: a node that went quiet pre-heal
    concluded (or starved) inside its side of the partition, so nothing
    it knew could reach the other side afterwards. *)

type diagnosis = {
  diag_seed : int;  (** the trial's seed ([seed + trial]) *)
  diag_plan : Fault.t;  (** the exact replayed plan *)
  diag_heal_time : float;
      (** virtual time at which the last scheduled partition healed;
          0 if the plan has no partition *)
  diag_quiet_pre_heal : int list;
      (** nodes whose last transmission predates [diag_heal_time] —
          whatever they knew never crossed the healed cut *)
  diag_never_completed : int list;  (** nodes that never announced completion *)
  diag_converged : bool;
}

val diagnose :
  algo:Repro_discovery.Algorithm.t ->
  family:Generate.family ->
  plan_family:string ->
  n:int ->
  trial:int ->
  seed:int ->
  backend:Backend.t ->
  timeout:float ->
  unit ->
  diagnosis
(** Replay trial [trial] of the given matrix cell — same substream as
    {!matrix}, so the plan is identical — with a {!Repro_engine.Trace}
    callback recording per-node last-transmission times.
    @raise Invalid_argument on an unknown plan family. *)

val diagnosis_to_json : diagnosis -> string
(** One line, stable field order — printable from tests and tools. *)
