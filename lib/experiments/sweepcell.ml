open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

(* With REPRO_TRACE_INVARIANTS set (the `make check` suite sets it),
   every sweep run executes under the online trace invariant checker —
   free certification of conservation, liveness discipline and metrics
   agreement across whole experiment grids. Off by default: the null
   sink keeps production sweeps allocation-free. Read once, at module
   initialisation on the main domain: a lazy value first forced by two
   pool workers at once raises CamlinternalLazy.Undefined. *)
let check_invariants =
  match Sys.getenv_opt "REPRO_TRACE_INVARIANTS" with None | Some "" | Some "0" -> false | Some _ -> true

(* Topology generation and the run itself both happen on the pool
   worker that calls this, driven only by the arguments. *)
let exec ~algo ~family ~n ?max_rounds ?(fault = Fault.none) ?(completion = Run.Strong) seed =
  let spec = { Run.default_spec with Run.seed; fault; completion; max_rounds } in
  let topology = Generate.of_seed family ~n ~seed in
  if check_invariants then begin
    let inv = Fault.invariants fault in
    let r = Run.exec_spec { spec with Run.trace = Trace.Invariants.sink inv } algo topology in
    Trace.Invariants.final_check inv r.Run.metrics;
    r
  end
  else Run.exec_spec spec algo topology

type metric = Rounds | Messages | Pointers | Bytes | Dropped

let value metric (r : Run.result) =
  match metric with
  | Rounds -> r.Run.rounds
  | Messages -> r.Run.messages
  | Pointers -> r.Run.pointers
  | Bytes -> r.Run.bytes
  | Dropped -> r.Run.dropped

let metric_name = function
  | Rounds -> "rounds"
  | Messages -> "messages"
  | Pointers -> "pointers"
  | Bytes -> "bytes"
  | Dropped -> "dropped"

let completed results = List.filter (fun r -> r.Run.completed) results

let stat metric results =
  match completed results with
  | [] -> None
  | done_ -> Some (Stats.summarize_ints (List.map (value metric) done_))

let approx_int x =
  let abs = Float.abs x in
  if abs >= 1e9 then Printf.sprintf "%.2fG" (x /. 1e9)
  else if abs >= 1e6 then Printf.sprintf "%.1fM" (x /. 1e6)
  else if abs >= 1e4 then Printf.sprintf "%.0fk" (x /. 1e3)
  else if abs >= 1e3 then Printf.sprintf "%.1fk" (x /. 1e3)
  else Printf.sprintf "%.0f" x

let mean_cell (s : Stats.summary) =
  if s.Stats.stddev < 0.05 then Printf.sprintf "%.1f" s.Stats.mean else Table.cell_mean_std s

let cell metric results =
  match stat metric results with
  | None -> "DNF"
  | Some s ->
    let shown = match metric with Rounds -> mean_cell s | _ -> approx_int s.Stats.mean in
    let attempts = List.length results and completions = List.length (completed results) in
    if completions = attempts then shown
    else Printf.sprintf "%s (%d/%d DNF)" shown (attempts - completions) attempts

let summary_fields (s : Stats.summary) =
  [ Printf.sprintf "%.3f" s.Stats.mean; Printf.sprintf "%.3f" s.Stats.stddev ]

let csv_header metrics =
  "runs" :: "completed"
  :: List.concat_map (fun m -> [ metric_name m ^ "_mean"; metric_name m ^ "_std" ]) metrics

let csv_fields metrics results =
  string_of_int (List.length results)
  :: string_of_int (List.length (completed results))
  :: List.concat_map
       (fun m -> match stat m results with None -> [ "DNF"; "" ] | Some s -> summary_fields s)
       metrics
