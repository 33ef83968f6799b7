(* One benchmark run of one workload, in this process, with jobs = 1:

     bench_run.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 times untraced runs of the workload for S seconds and prints
   the end-to-end metrics; --trace 1 alternates untraced and traced runs,
   prints the per-layer metrics and writes the last traced run's spans to
   DIR/<workload>-seed<N>.spans.tsv. The last line of standard output is
   the JSON result, which names each metric and gives its value; run.py
   adds the units. The exit code is 1 if any check failed. *)

open Perfbench

let usage = "bench_run.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]"

(* Correctness over all samples: every op of every run passed its checks,
   and every run (traced or not) produced the same deterministic counts. *)
let verdict (samples : Measure.sample list) =
  let outcomes = List.map (fun (s : Measure.sample) -> s.outcome) samples in
  let attempted = List.fold_left (fun a (o : Workloads.outcome) -> a + o.attempted) 0 outcomes in
  let failed =
    List.fold_left
      (fun a (o : Workloads.outcome) -> a + min o.attempted (List.length o.failures))
      0 outcomes
  in
  let first = (List.hd outcomes).fingerprint in
  let diverged =
    List.length
      (List.filter (fun (o : Workloads.outcome) -> not (String.equal o.fingerprint first)) outcomes)
  in
  List.iter
    (fun (o : Workloads.outcome) -> List.iter (Printf.eprintf "check failed: %s\n") o.failures)
    outcomes;
  if diverged > 0 then
    Printf.eprintf "check failed: %d run(s) gave other counts than the first\n" diverged;
  let failed = failed + diverged in
  (failed = 0, attempted, failed)

(* Set-up is timed after the timed runs, so that every process makes
   them from the same heap and the peak RSS repeats for a seed. *)
let end_to_end (w : Workloads.t) ~seed ~seconds =
  let prepared = w.prepare ~seed in
  let samples = Measure.repeat ~seconds (fun () -> Measure.sample prepared None) in
  let setup_s = Report.median (Measure.setup_windows w ~seed ~seconds:2.0) in
  let med f = Report.median (List.map f samples) in
  Printf.printf "%s seed %d: %d timed run(s), wall %.3f s, reference %.5f s\n" w.name seed
    (List.length samples)
    (med (fun s -> s.Measure.wall))
    (med (fun s -> s.Measure.ref_s));
  let correct, attempted, failed = verdict samples in
  Report.print ~correct ~attempted ~failed (Measure.end_to_end ~setup_s samples);
  correct

let write_spans ~out (w : Workloads.t) ~seed probe =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out (Printf.sprintf "%s-seed%d.spans.tsv" w.name seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Spans.write (Probe.spans probe) ~name:Probe.kind_name ~keep:Probe.structural oc);
  path

let print_breakdown probe (o : Workloads.outcome) =
  let labels = Array.of_list o.labels in
  List.iteri
    (fun i (wall, self) ->
      let label = if i < Array.length labels then labels.(i) else "?" in
      Printf.printf "  %-14s %8.3f s =" label wall;
      Array.iteri
        (fun k x -> if x > 0.0 then Printf.printf " %s %.3f" (Probe.kind_name k) x)
        self;
      print_newline ())
    (Measure.breakdown probe)

let per_layer (w : Workloads.t) ~seed ~seconds ~out =
  let generate_s =
    Report.median (List.init 5 (fun _ -> (w.prepare ~seed).Workloads.generate_s))
  in
  let prepared = w.prepare ~seed in
  let pairs =
    Measure.repeat ~seconds (fun () ->
        let untraced = Measure.sample prepared None in
        let probe = Probe.create () in
        let traced = Measure.sample prepared (Some probe) in
        (untraced, traced, probe))
  in
  let last_untraced, last_traced, last_probe = List.nth pairs (List.length pairs - 1) in
  Printf.printf "%s seed %d: %d untraced + traced pair(s)\n" w.name seed (List.length pairs);
  List.iter
    (fun (label, (s : Measure.sample)) ->
      let o = s.outcome in
      Printf.printf "  %-9s messages %d, wire_bytes %d, rounds %g, max_lag_ticks %g\n" label
        o.messages o.wire_bytes o.rounds o.max_lag)
    [ ("untraced", last_untraced); ("traced", last_traced) ];
  print_breakdown last_probe last_traced.outcome;
  Printf.printf "spans: %s\n" (write_spans ~out w ~seed last_probe);
  let correct, attempted, failed =
    verdict (List.concat_map (fun (u, t, _) -> [ u; t ]) pairs)
  in
  Report.print ~correct ~attempted ~failed
    (Measure.per_layer ~net:w.net ~generate_s pairs);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workloads.find !workload with
  | None ->
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) (Workloads.all ())));
    exit 2
  | Some w ->
    let ok =
      match !trace with
      | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
      | 1 -> per_layer w ~seed:!seed ~seconds:!seconds ~out:!out
      | _ ->
        prerr_endline usage;
        exit 2
    in
    exit (if ok then 0 else 1)
