(** One sweep cell: an (algorithm, topology, size, fault) configuration,
    run once per seed by {!exec} and summarised across seeds for a
    report table. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

val exec :
  algo:Algorithm.t ->
  family:Generate.family ->
  n:int ->
  ?max_rounds:int ->
  ?fault:Fault.t ->
  ?completion:Run.completion ->
  int ->
  Run.result
(** [exec ~algo ~family ~n seed] builds the seed's topology
    ({!Generate.of_seed}) and runs [algo] on it: the per-seed
    measurement of a sweep cell, safe to call
    from a {!Report.grid} worker.

    When the [REPRO_TRACE_INVARIANTS] environment variable is set (to
    anything but [""] or ["0"]), the run executes under the
    {!Repro_engine.Trace.Invariants} online checker and raises
    [Violation] on the first offending event — [make check] runs the
    quick suite this way. Off by default (tracing stays on the
    allocation-free null sink). *)

(** {2 Summaries over a cell's seeds} *)

type metric = Rounds | Messages | Pointers | Bytes | Dropped
(** [Bytes] are wire bytes under the {!Repro_discovery.Wire.Adaptive}
    codec; [Dropped] counts messages the fault model destroyed in flight
    (loss, corruption past detection, or a bandwidth-cap throttle). *)

val stat : metric -> Run.result list -> Stats.summary option
(** The metric over the completed runs; [None] if none completed. *)

val cell : metric -> Run.result list -> string
(** Table text: ["12.4 ± 0.8"] for [Rounds] (["12.0"] when the seeds
    agree), ["2.1k"] for the counts, ["DNF"] when nothing completed,
    ["9.0 ± 1.0 (1/5 DNF)"] on partial completion. *)

val mean_cell : Stats.summary -> string
(** ["12.0"] when the standard deviation is below 0.05, else
    ["12.4 ± 0.8"]. *)

val csv_header : metric list -> string list
(** [runs; completed; m_mean; m_std; …] for each metric. *)

val csv_fields : metric list -> Run.result list -> string list
(** The raw fields under {!csv_header}: means and standard deviations
    to three decimals over the completed runs, [DNF] and an empty
    field for a metric with no completed run. *)

val summary_fields : Stats.summary -> string list
(** [mean; stddev] to three decimals. *)

val approx_int : float -> string
(** Human-scaled count: ["2.1k"], ["37M"], … *)
