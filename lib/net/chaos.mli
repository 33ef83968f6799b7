(** Chaos soak harness: repeated live cluster runs under randomized —
    but fully seeded — fault plans.

    Each trial derives a fault plan from [seed + trial_index]: a
    quantized base loss rate up to 0.2, small duplication / reordering
    / corruption probabilities, one scheduled partition that heals, and
    one crash with a later restart. The trial runs the algorithm over a
    live {!Cluster} (socket or mux backends) on a [kout:3] topology
    under that plan; it passes when the cluster converges and the online invariant
    checker did not flag a violation. The same seed therefore always
    replays the same soak — a failing trial can be re-run alone by
    passing its reported seed with [trials = 1]. *)

open Repro_graph
open Repro_engine
open Repro_discovery

type spec = {
  algo : Algorithm.t;
  n : int;
  trials : int;
  seed : int;  (** trial [i] uses [seed + i] for topology, labels and plan *)
  backend : Backend.t;
  tick_period : float;
  timeout : float;  (** per-trial wall-clock budget *)
  dir : string option;
}

val default_spec : Algorithm.t -> spec
(** n = 8, 10 trials, seed 0, UDS, 10 s per trial. *)

type trial = {
  index : int;
  seed : int;
  plan : Fault.t;
  result : Cluster.result;
  passed : bool;  (** converged with no invariant violation *)
}

type report = {
  algorithm : string;
  backend : Backend.t;
  n : int;
  base_seed : int;
  trials : trial list;
  passed : int;
}

val all_passed : report -> bool

val run : ?progress:(trial -> unit) -> spec -> report
(** Run the soak; [progress] is called after each trial (for live
    status lines).
    @raise Invalid_argument if [trials < 1] or [n < 2]. *)

val report_to_json : report -> string
(** One-line JSON soak report (stable field order, no trailing
    newline); it names the fixed topology family and loss bound as
    ["family":"kout:3"] and ["loss_max":0.2]. *)

(** {2 The chaos matrix}

    Where {!run} soaks one (algorithm, topology) pair under kitchen-sink
    plans, the matrix sweeps a grid of algorithms × topologies × named
    {e plan families} — each family isolating one fault dimension — and
    reduces every cell to a deterministic pass count. On the mux backend
    (virtual clock) the JSON summary is byte-reproducible, so CI can
    diff it against a pinned baseline. *)

val plan_families : string list
(** [["links"; "partition"; "crash"; "wan"]] — base link noise
    (loss / duplication / reordering / corruption); a healing two-group
    partition; a crash with a later restart; a two-region WAN profile
    (cross-region delay, loss and a bandwidth cap). Fabrication is
    deliberately excluded: an audited fabrication must fail, so it has
    its own negative tests instead of a pass-count cell. *)

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

val matrix :
  ?progress:(cell -> unit) ->
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
    in every cell, so cells are comparable. Cells appear in
    deterministic grid order (algorithms outermost, plan families
    innermost).
    @raise Invalid_argument if [trials < 1], [n < 2], or a plan name is
    unknown. *)
