type entry = { id : string; title : string; run : Report.t -> quick:bool -> jobs:int -> unit }

let all =
  [
    { id = "T1"; title = "rounds vs n, all algorithms"; run = Exp_scaling.t1 };
    { id = "T2"; title = "message complexity vs n"; run = Exp_scaling.t2 };
    { id = "T3"; title = "pointer complexity vs n"; run = Exp_scaling.t3 };
    { id = "F1"; title = "rounds-vs-n curves"; run = Exp_scaling.f1 };
    { id = "T4"; title = "topology sensitivity"; run = Exp_topology.t4 };
    { id = "F3"; title = "rounds vs diameter (paths)"; run = Exp_topology.f3 };
    { id = "T5"; title = "message-loss robustness"; run = Exp_faults.t5 };
    { id = "T6"; title = "crash-stop failures"; run = Exp_faults.t6 };
    { id = "T7"; title = "design ablations"; run = Exp_ablation.t7 };
    { id = "T8"; title = "wire-byte complexity"; run = Exp_wire.t8 };
    { id = "T9"; title = "discovery under churn"; run = Exp_churn.t9 };
    { id = "T10"; title = "asynchronous execution"; run = Exp_async.t10 };
    { id = "T11"; title = "local termination detection"; run = Exp_termination.t11 };
    { id = "T12"; title = "adversarial scenario matrix"; run = Exp_adversarial.t12 };
    { id = "T13"; title = "continuous service steady state"; run = Exp_churn.t13 };
    { id = "T14"; title = "failure-detector precision under loss"; run = Exp_churn.t14 };
    { id = "F2"; title = "knowledge-growth dynamics"; run = Exp_dynamics.f2 };
    { id = "F4"; title = "per-round message budget"; run = Exp_dynamics.f4 };
    { id = "F5"; title = "cluster-head population dynamics"; run = Exp_dynamics.f5 };
  ]

let ids () = List.map (fun e -> e.id) all

(* [jobs] shards the seed replicates and sweep cells of every entry
   across domains (see Report.grid / Repro_util.Pool). Results
   are merged in deterministic (cell, seed) order, so report.md and the
   CSVs are byte-identical at any [jobs]. *)
let run ?only ?(quick = false) ?(jobs = Repro_util.Pool.default_jobs ()) ~results_dir () =
  let selected =
    match only with
    | None -> Ok all
    | Some wanted ->
      let unknown = List.filter (fun id -> not (List.exists (fun e -> e.id = id) all)) wanted in
      if unknown <> [] then
        Error
          (Printf.sprintf "unknown experiment id(s): %s (known: %s)" (String.concat ", " unknown)
             (String.concat ", " (ids ())))
      else Ok (List.filter (fun e -> List.mem e.id wanted) all)
  in
  match selected with
  | Error _ as e -> e
  | Ok entries ->
    let report = Report.create ~results_dir in
    Report.emit report
      (Printf.sprintf
         "# Experiment report — Distributed Resource Discovery in Sub-Logarithmic Time\n\
          (mode: %s; every cell is reproducible with `discovery run --algo A --topology T -n N \
          --seed S`)\n"
         (if quick then "quick" else "full"));
    List.iter (fun e -> e.run report ~quick ~jobs) entries;
    let path = Filename.concat results_dir "report.md" in
    Repro_util.Csvio.ensure_dir results_dir;
    let oc = open_out path in
    output_string oc (Report.captured report);
    close_out oc;
    Report.emit report (Printf.sprintf "\nreport written to %s\n" path);
    Ok ()
