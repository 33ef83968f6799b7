(* discovery_cli — run a single resource-discovery configuration and
   report its cost measures.

   Examples:
     discovery_cli run --algo hm --topology kout:3 -n 4096
     discovery_cli run --algo name_dropper --topology path -n 1024 --seed 7
     discovery_cli run --algo "rand:push/f2" --topology seeds:16:2 -n 8192 --growth
     discovery_cli run --algo hm -n 4096 --seeds 10 --jobs 4
     discovery_cli list
     discovery_cli topo --topology clustered:8:3 -n 1024
*)

open Repro_util
open Repro_graph
open Repro_discovery
open Cmdliner
open Cli_common

let completion_conv =
  let parse = function
    | "strong" -> Ok Run.Strong
    | "survivors" -> Ok Run.Survivors_strong
    | "leader" -> Ok Run.Leader
    | "quiescent" -> Ok Run.Quiescent
    | s -> Error (`Msg (Printf.sprintf "unknown completion %S (strong|survivors|leader|quiescent)" s))
  in
  let print ppf c =
    Format.pp_print_string ppf
      (match c with
      | Run.Strong -> "strong"
      | Run.Survivors_strong -> "survivors"
      | Run.Leader -> "leader"
      | Run.Quiescent -> "quiescent")
  in
  Arg.conv (parse, print)

let nodes_arg default ~doc = Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc)
let n_arg = nodes_arg 1024 ~doc:"Number of machines."

let seed_arg = seed_arg ~doc:"Master random seed."

let topology_arg =
  Arg.(
    value
    & opt topology_conv (Generate.K_out 3)
    & info [ "t"; "topology" ] ~docv:"FAMILY"
        ~doc:
          "Initial knowledge graph family: path, dpath, cycle, dcycle, star, instar, complete, \
           tree, grid, hypercube, lollipop, sorted_chain, kniesburges:W, kout:K, er:P, \
           clustered:C:K, seeds:S:F, ba:M, ws:K:B, geo:R.")

let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "crashes" ] ~docv:"K"
        ~doc:
          "Add K random node crashes in rounds 1-5 to the $(b,--fault) plan: the victims and \
           rounds of the fault experiment's crash cells at the same seed.")

let max_rounds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rounds" ] ~docv:"R" ~doc:"Round budget (default 4n + 64).")

let completion_arg =
  Arg.(
    value
    & opt completion_conv Run.Strong
    & info [ "completion" ] ~docv:"PRED" ~doc:"Completion predicate: strong, survivors, leader.")

let growth_arg =
  Arg.(value & flag & info [ "growth" ] ~doc:"Print the per-round mean knowledge-size series.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"K"
        ~doc:
          "Replicate the run over K consecutive seeds (seed .. seed+K-1), sharded across \
           worker domains, and report per-seed results plus aggregate statistics.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains. With $(b,--seeds) K > 1: shard the K replicate runs (default: cores \
           - 1, or \\$(b,REPRO_JOBS)). With a single seed: shard the one run's nodes across N \
           domains (default: 1); any N produces a byte-identical trace and result.")

let fault_arg =
  fault_arg
    ~doc:
      "Unified fault plan, as a comma-separated DSL: loss=P, delay=T, dup=P, reorder=P, \
       corrupt=P, cap=K (per-link messages per round; 0 = unlimited), \
       link=SRC>DST:key=value:..., wan=R1|R2:key=value:... (per-link profile on every \
       cross-region link), part=G1|G2@START..HEAL, crash=N@R, restart=N@R, join=N@R, \
       leave=N@R (graceful departure, service runtime only), fabricate=NODE@ID, audit=1. \
       Example: \
       loss=0.1,part=0-3|4-7@5..20,crash=5@8,restart=5@14. Example: \
       wan=0-3|4-7:delay=2:loss=0.1:cap=5."

(* A plan that takes nodes down for good makes Strong completion
   unreachable; one whose every crash restarts does not. *)
let has_fatal_crashes (fault : Repro_engine.Fault.t) =
  let open Repro_engine in
  List.exists (fun (v, _) -> Fault.restart_round fault ~node:v = None) (Fault.crashed_nodes fault)

let run_cmd =
  let run algo family n seed seeds crashes plan max_rounds completion growth jobs =
    if seeds < 1 then `Error (false, "--seeds must be at least 1")
    else begin
      let completion =
        if (crashes > 0 || has_fatal_crashes plan) && completion = Run.Strong then
          Run.Survivors_strong
        else completion
      in
      let spec_of seed =
        {
          Run.default_spec with
          Run.seed;
          fault = Repro_engine.Fault.with_random_crashes plan ~seed ~n ~count:crashes;
          completion;
          max_rounds;
          track_growth = growth && seeds = 1;
          (* single-seed: --jobs shards this run's nodes instead of
             sharding replicates *)
          jobs = (if seeds = 1 then Option.value jobs ~default:1 else 1);
        }
      in
      let exec seed =
        let topology = Generate.of_seed family ~n ~seed in
        (topology, Run.exec_spec (spec_of seed) algo topology)
      in
      if seeds = 1 then begin
        let topology, result = exec seed in
        Printf.printf "algorithm        : %s\n" result.Run.algorithm;
        Printf.printf "topology         : %s (n=%d, m=%d)\n" (Generate.family_name family) n
          (Topology.edge_count topology);
        Printf.printf "seed             : %d\n" seed;
        Printf.printf "completed        : %b\n" result.Run.completed;
        Printf.printf "rounds           : %d\n" result.Run.rounds;
        Printf.printf "messages         : %d\n" result.Run.messages;
        Printf.printf "pointers         : %d\n" result.Run.pointers;
        Printf.printf "wire bytes       : %d (adaptive codec)\n" result.Run.bytes;
        Printf.printf "dropped          : %d\n" result.Run.dropped;
        Printf.printf "peak msgs/round  : %d\n" result.Run.max_round_messages;
        if growth then begin
          Printf.printf "mean knowledge size by round:\n";
          Array.iteri
            (fun i v -> Printf.printf "  round %3d: %10.1f\n" (i + 1) v)
            result.Run.mean_knowledge_series
        end;
        if result.Run.completed then `Ok 0
        else begin
          prerr_endline "discovery: did not complete within the round budget";
          `Ok 1
        end
      end
      else begin
        match
          match jobs with
          | Some j -> Ok j
          | None -> ( try Ok (Pool.default_jobs ()) with Invalid_argument m -> Error m)
        with
        | Error msg -> `Error (false, msg)
        | Ok jobs ->
        let seed_list = List.init seeds (fun i -> seed + i) in
        let results = Pool.map ~jobs (fun seed -> (seed, exec seed)) seed_list in
        Printf.printf "algorithm        : %s\n" algo.Algorithm.name;
        Printf.printf "topology         : %s (n=%d)\n" (Generate.family_name family) n;
        Printf.printf "seeds            : %d..%d (%d replicates, jobs=%d)\n" seed
          (seed + seeds - 1) seeds jobs;
        List.iter
          (fun (seed, (_, r)) ->
            Printf.printf "  seed %-4d: rounds %-4d messages %-9d pointers %-11d bytes %d%s\n"
              seed r.Run.rounds r.Run.messages r.Run.pointers r.Run.bytes
              (if r.Run.completed then "" else "  [DNF]"))
          results;
        let runs = List.map (fun (_, (_, r)) -> r) results in
        let agg f = Stats.summarize_ints (List.map f runs) in
        let cell (s : Stats.summary) = Printf.sprintf "%.1f ± %.1f" s.Stats.mean s.Stats.stddev in
        Printf.printf "rounds           : %s\n" (cell (agg (fun r -> r.Run.rounds)));
        Printf.printf "messages         : %s\n" (cell (agg (fun r -> r.Run.messages)));
        Printf.printf "pointers         : %s\n" (cell (agg (fun r -> r.Run.pointers)));
        Printf.printf "wire bytes       : %s (adaptive codec)\n" (cell (agg (fun r -> r.Run.bytes)));
        let dnf = List.length (List.filter (fun r -> not r.Run.completed) runs) in
        if dnf = 0 then `Ok 0
        else begin
          Printf.eprintf "discovery: %d of %d replicates did not complete within the round budget\n"
            dnf seeds;
          `Ok 1
        end
      end
    end
  in
  let term =
    Term.(
      ret
        (const run $ algo_arg $ topology_arg $ n_arg $ seed_arg $ seeds_arg $ crashes_arg
       $ fault_arg $ max_rounds_arg $ completion_arg $ growth_arg $ jobs_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one discovery configuration.") term

let list_cmd =
  let list () =
    List.iter
      (fun (a : Algorithm.t) -> Printf.printf "%-14s %s\n" a.Algorithm.name a.Algorithm.description)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the implemented algorithms.") Term.(const list $ const ())

(* --- trace: emit the structured event stream of one run as JSONL --- *)

let trace_cmd =
  let trace algo family n seed crashes plan max_rounds completion asynchronous check output jobs
      =
    let open Repro_engine in
    let completion =
      if (crashes > 0 || has_fatal_crashes plan) && completion = Run.Strong then
        Run.Survivors_strong
      else completion
    in
    let fault = Fault.with_random_crashes plan ~seed ~n ~count:crashes in
    let topology = Generate.of_seed family ~n ~seed in
    let oc, close =
      match output with
      | None -> (stdout, fun () -> flush stdout)
      | Some file ->
        let oc = open_out file in
        (oc, fun () -> close_out oc)
    in
    let invariants =
      (* delayed links carry messages across round boundaries; the
         checker must not flag those as lost at the boundary *)
      if check then Some (Trace.Invariants.create ~allow_inflight:(Fault.has_delays fault) ())
      else None
    in
    let sink =
      match invariants with
      | None -> Trace.jsonl oc
      | Some inv -> Trace.tee (Trace.jsonl oc) (Trace.Invariants.sink inv)
    in
    (* the online checker raises mid-run (e.g. a content audit catching
       a fabricated id), so the execution itself is under the handler *)
    match
      if asynchronous then
        (Run_async.exec_spec
           { Run_async.default_spec with Run_async.seed; fault; completion; trace = sink }
           algo topology)
          .Run_async.metrics
      else
        (Run.exec_spec
           {
             Run.default_spec with
             Run.seed;
             fault;
             completion;
             max_rounds;
             trace = sink;
             jobs = Option.value jobs ~default:1;
           }
           algo topology)
          .Run.metrics
    with
    | exception Trace.Invariants.Violation msg ->
      close ();
      Printf.eprintf "discovery: invariant violation: %s\n" msg;
      `Ok 1
    | metrics -> (
      close ();
      match invariants with
      | None -> `Ok 0
      | Some inv -> (
        match Trace.Invariants.final_check inv metrics with
        | () ->
          Printf.eprintf "trace invariants ok (%d events)\n" (Trace.Invariants.events_seen inv);
          `Ok 0
        | exception Trace.Invariants.Violation msg ->
          Printf.eprintf "discovery: invariant violation: %s\n" msg;
          `Ok 1))
  in
  let async_arg =
    Arg.(
      value & flag
      & info [ "async" ]
          ~doc:
            "Trace an asynchronous (event-driven) execution instead of the synchronous \
             round-based one.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the online invariant checker over the emitted events (message \
             conservation, liveness discipline, monotonicity, metrics agreement).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSONL trace to $(docv) (default: stdout).")
  in
  let term =
    Term.(
      ret
        (const trace $ algo_arg $ topology_arg $ n_arg $ seed_arg $ crashes_arg $ fault_arg
       $ max_rounds_arg $ completion_arg $ async_arg $ check_arg $ output_arg $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Emit the structured event trace (JSONL) of one run. A run is a pure function of \
          (algorithm, topology, config, seed), so two invocations with the same arguments \
          produce byte-identical traces — compare with $(b,trace-diff).")
    term

(* --- trace-diff: first divergence between two JSONL traces --- *)

let trace_diff_cmd =
  let read_lines file =
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let diff file_a file_b =
    match (read_lines file_a, read_lines file_b) with
    | exception Sys_error msg -> `Error (false, msg)
    | lines_a, lines_b ->
      let width = max (String.length file_a) (String.length file_b) in
      let pad f = f ^ String.make (width - String.length f) ' ' in
      let differ () =
        flush stdout;
        prerr_endline "discovery: traces differ";
        (* divergence is an operational failure (exit 1), distinct from
           usage errors (exit 2) *)
        `Ok 1
      in
      let rec go i a b =
        match (a, b) with
        | [], [] ->
          Printf.printf "traces identical (%d events)\n" i;
          `Ok 0
        | la :: _, lb :: _ when la <> lb ->
          Printf.printf "traces diverge at event %d:\n  %s: %s\n  %s: %s\n" (i + 1) (pad file_a)
            la (pad file_b) lb;
          differ ()
        | _ :: a, _ :: b -> go (i + 1) a b
        | [], lb :: _ ->
          Printf.printf "%s ends at event %d; %s continues:\n  %s\n" file_a i file_b lb;
          differ ()
        | la :: _, [] ->
          Printf.printf "%s ends at event %d; %s continues:\n  %s\n" file_b i file_a la;
          differ ()
      in
      go 0 lines_a lines_b
  in
  let file p docv =
    Arg.(required & pos p (some non_dir_file) None & info [] ~docv ~doc:"JSONL trace file.")
  in
  let term = Term.(ret (const diff $ file 0 "TRACE_A" $ file 1 "TRACE_B")) in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:
         "Compare two JSONL event traces and report the first divergent event — certifies \
          that two runs (different machines, job counts, builds) executed identically.")
    term

(* --- options shared by the live-path commands --- *)

(* --backend restricted to the [accepted] backends; any other backend
   the parser knows is refused with [reject] *)
let backend_conv ?(reject = "") accepted =
  let module B = Repro_net.Backend in
  let parse s =
    match B.of_string s with
    | Ok b when List.mem b accepted -> Ok b
    | Ok _ -> Error (`Msg reject)
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (B.to_string b))

let backend_info doc = Arg.info [ "backend" ] ~docv:"BACKEND" ~doc

let timeout_arg default ~doc =
  Arg.(value & opt float default & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"UDS socket directory (default: a fresh directory under /tmp, removed afterwards).")

let trace_out_arg ~doc = Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
let quiet_arg ~doc = Arg.(value & flag & info [ "quiet" ] ~doc)
let trials_arg default ~doc = Arg.(value & opt int default & info [ "trials" ] ~docv:"K" ~doc)

(* --- cluster: run the algorithm as live processes over sockets --- *)

let cluster_cmd =
  let open Repro_net in
  let backend_arg =
    Arg.(
      value
      & opt (backend_conv Backend.all) (Backend.Process Backend.Uds)
      & backend_info
          "Node runtime: $(b,uds) (one process per node over unix-domain sockets), $(b,tcp) \
             (one process per node over 127.0.0.1) or $(b,mux) (every node a live protocol \
             instance multiplexed in this process — thousands of nodes, deterministic and \
             trace-identical to $(b,trace --async)).")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Skip the online invariant checker over the merged event stream.")
  in
  let cluster algo family n seed backend tick_period timeout trace_out no_check fault dir =
    if n < 1 then `Error (false, "-n must be at least 1")
    else begin
      let oc = Option.map open_out trace_out in
      let spec =
        {
          (Cluster.default_spec algo) with
          Cluster.n;
          family;
          seed;
          backend;
          tick_period;
          timeout;
          dir;
          trace = (match oc with Some oc -> Repro_engine.Trace.jsonl oc | None -> Repro_engine.Trace.null);
          check_invariants = not no_check;
          fault;
        }
      in
      match Cluster.run spec with
      | result ->
        Option.iter close_out oc;
        print_endline (Cluster.result_to_json result);
        let ok =
          result.Cluster.converged
          && (match result.Cluster.invariants with Cluster.Failed _ -> false | _ -> true)
        in
        if not ok then
          Printf.eprintf "discovery: cluster did not converge cleanly (%s)\n"
            (match result.Cluster.invariants with
            | Cluster.Failed msg -> "invariant violation: " ^ msg
            | _ when result.Cluster.crashed <> [] ->
              Printf.sprintf "%d node(s) crashed" (List.length result.Cluster.crashed)
            | _ -> "not all nodes completed in time");
        `Ok (if ok then 0 else 1)
      | exception Invalid_argument msg ->
        Option.iter close_out oc;
        `Error (false, msg)
    end
  in
  let term =
    Term.(
      ret
        (const cluster $ algo_arg $ topology_arg $ n_arg $ seed_arg $ backend_arg $ tick_arg
        $ timeout_arg 30.0 ~doc:"Wall-clock budget; exceeding it counts as non-convergence."
        $ trace_out_arg
            ~doc:"Write the merged, time-ordered JSONL event trace of the whole cluster to $(docv)."
        $ no_check_arg $ fault_arg $ dir_arg))
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run one discovery configuration as a live cluster: n node processes over real \
          sockets, convergence verified against the same invariant checker the simulators \
          use, JSON report on stdout. Exit 0 on clean convergence, 1 otherwise.")
    term

(* --- chaos: seeded soak of randomized fault plans over live clusters --- *)

let chaos_cmd =
  let open Repro_net in
  let backend_arg =
    Arg.(
      value
      & opt (backend_conv Backend.all) (Backend.Process Backend.Uds)
      & backend_info "Live backend for the trial clusters: $(b,uds), $(b,tcp) or $(b,mux).")
  in
  let chaos algo n seed backend trials tick_period timeout quiet dir =
    let spec =
      {
        (Chaos.default_spec algo) with
        Chaos.n;
        trials;
        seed;
        backend;
        tick_period;
        timeout;
        dir;
      }
    in
    let progress (t : Chaos.trial) =
      if not quiet then
        Printf.eprintf "chaos: trial %d/%d seed=%d %s: %s\n%!" (t.Chaos.index + 1) trials
          t.Chaos.seed
          (Repro_engine.Fault.to_string t.Chaos.plan)
          (if t.Chaos.passed then "pass" else "FAIL")
    in
    match Chaos.run ~progress spec with
    | report ->
      print_endline (Chaos.report_to_json report);
      if Chaos.all_passed report then `Ok 0
      else begin
        Printf.eprintf "discovery: chaos soak failed (%d of %d trials)\n"
          (List.length report.Chaos.trials - report.Chaos.passed)
          (List.length report.Chaos.trials);
        `Ok 1
      end
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  let term =
    Term.(
      ret
        (const chaos $ algo_arg
        $ nodes_arg 8 ~doc:"Number of machines per trial."
        $ seed_arg $ backend_arg
        $ trials_arg 10 ~doc:"Number of seeded trials; trial i uses seed + i."
        $ tick_arg
        $ timeout_arg 10.0 ~doc:"Per-trial wall-clock budget; exceeding it fails the trial."
        $ quiet_arg ~doc:"Suppress the per-trial progress lines on stderr."
        $ dir_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak-test the live network under randomized — but fully seeded — fault plans: each \
          trial runs a cluster under per-link loss, duplication, reordering, corruption, a \
          healing partition and a crash-with-restart, then verifies convergence with the \
          online invariant checker. JSON soak report on stdout; exit 0 only if every trial \
          passes. Replay a failing trial alone by passing its reported seed with \
          $(b,--trials 1).")
    term

(* --- chaos-matrix: plan families × algorithms × topologies ------------ *)

let chaos_matrix_cmd =
  let open Repro_net in
  let backend_arg =
    Arg.(
      value
      & opt (backend_conv Backend.all) Backend.Mux
      & backend_info
          "Live backend for the cell clusters: $(b,uds), $(b,tcp) or $(b,mux). The default \
             mux backend runs on a virtual clock, which makes the summary byte-reproducible \
             and therefore safe to diff against a pinned baseline.")
  in
  let algos_arg =
    Arg.(
      value
      & opt (list algo_conv)
          [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm ]
      & info [ "algos" ] ~docv:"A1,A2,..." ~doc:"Algorithms to sweep (comma-separated).")
  in
  let topologies_arg =
    Arg.(
      value
      & opt (list topology_conv) (Generate.adversarial_families @ [ Generate.K_out 3 ])
      & info [ "topologies" ] ~docv:"T1,T2,..."
          ~doc:
            "Topology families to sweep (comma-separated; default: the named adversarial \
             families plus kout:3).")
  in
  let plans_arg =
    Arg.(
      value
      & opt (list string) Chaos.plan_families
      & info [ "plans" ] ~docv:"P1,P2,..."
          ~doc:
            (Printf.sprintf "Plan families to sweep (comma-separated; default: %s)."
               (String.concat ", " Chaos.plan_families)))
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare the summary against a pinned baseline file. A mismatch prints the \
             differing lines and exits 1; when the baseline matches, its pass/fail counts are \
             taken as the expected state and the exit code is 0.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the summary to FILE (e.g. to regenerate the baseline).")
  in
  let matrix algos topologies plans n seed backend trials timeout baseline out quiet =
    let progress (c : Chaos.cell) =
      if not quiet then
        Printf.eprintf "chaos-matrix: %s/%s/%s: %d/%d\n%!" c.Chaos.cell_algo c.Chaos.cell_topology
          c.Chaos.cell_plan c.Chaos.cell_passed c.Chaos.cell_trials
    in
    match
      Chaos.matrix ~progress ~algos ~families:topologies ~plans ~n ~trials ~seed ~backend
        ~timeout ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | cells ->
      let summary = Chaos.matrix_to_json cells in
      print_string summary;
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc summary;
          close_out oc)
        out;
      (match baseline with
      | None ->
        let failed = List.filter (fun c -> c.Chaos.cell_passed < c.Chaos.cell_trials) cells in
        if failed = [] then `Ok 0
        else begin
          Printf.eprintf "discovery: chaos matrix failed (%d of %d cells)\n" (List.length failed)
            (List.length cells);
          `Ok 1
        end
      | Some path ->
        let expected =
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          s
        in
        if String.equal expected summary then `Ok 0
        else begin
          let lines s = String.split_on_char '\n' s in
          let exp = Array.of_list (lines expected) and got = Array.of_list (lines summary) in
          Printf.eprintf "discovery: chaos matrix diverges from baseline %s\n" path;
          for i = 0 to max (Array.length exp) (Array.length got) - 1 do
            let e = if i < Array.length exp then exp.(i) else "<missing>" in
            let g = if i < Array.length got then got.(i) else "<missing>" in
            if not (String.equal e g) then
              Printf.eprintf "  line %d:\n  - %s\n  + %s\n" (i + 1) e g
          done;
          `Ok 1
        end)
  in
  let term =
    Term.(
      ret
        (const matrix $ algos_arg $ topologies_arg $ plans_arg
        $ nodes_arg 8 ~doc:"Number of machines per cell."
        $ seed_arg $ backend_arg
        $ trials_arg 3 ~doc:"Seeded trials per cell; trial i uses seed + i for topology and plan."
        $ timeout_arg 10.0 ~doc:"Per-trial wall-clock budget; exceeding it fails the trial."
        $ baseline_arg $ out_arg
        $ quiet_arg ~doc:"Suppress the per-cell progress lines on stderr."))
  in
  Cmd.v
    (Cmd.info "chaos-matrix"
       ~doc:
         "Sweep a grid of algorithms × topologies × named fault-plan families over live \
          clusters and reduce every cell to a deterministic pass count. Plan families isolate \
          one fault dimension each: base link noise, a healing partition, a crash with \
          restart, and a two-region WAN profile. On the default mux backend the one-line-per- \
          cell JSON summary is byte-reproducible, so CI diffs it against \
          $(b,ci/chaos-matrix-baseline.json); regenerate the baseline with $(b,--out).")
    term

(* --- soak: the continuous discovery service under churn --------------- *)

let soak_cmd =
  let open Repro_service in
  let soak n cap ticks seed churn min_live cooldown plan lag_bound full_sync backend indirect_k
      no_lifeguard trace_out quiet =
    if n < 2 then `Error (false, "--n must be at least 2")
    else begin
      let cap = if cap = 0 then n + max 16 (n / 4) else cap in
      if cap < n then `Error (false, "--cap must be at least n")
      else if ticks < 1 then `Error (false, "--ticks must be positive")
      else if indirect_k < 0 then `Error (false, "--indirect-k must be >= 0")
      else begin
        let bound =
          if lag_bound > 0.0 then lag_bound else Service.default_lag_bound ~cap
        in
        let cooldown = if cooldown < 0 then int_of_float bound + 16 else cooldown in
        let churn =
          if churn <= 0.0 then None
          else
            Some
              {
                Service.rate = churn;
                min_live = (if min_live = 0 then max 2 (n / 2) else min_live);
                until = max 0 (ticks - cooldown);
              }
        in
        let oc = Option.map open_out trace_out in
        let trace =
          match oc with None -> Repro_engine.Trace.null | Some oc -> Repro_engine.Trace.jsonl oc
        in
        let cfg =
          {
            Service.n;
            cap;
            seed;
            ticks;
            churn;
            fault = plan;
            lag_bound = Some bound;
            full_sync = (if full_sync then Some true else None);
            backend;
            indirect_k;
            lifeguard = not no_lifeguard;
            trace;
          }
        in
        let finish code =
          Option.iter close_out oc;
          `Ok code
        in
        match Service.run cfg with
        | stats ->
          print_string (Service.stats_to_json stats);
          print_newline ();
          let open_epochs = stats.Service.epochs - stats.Service.epochs_closed in
          if not quiet then
            if open_epochs = 0 then
              Printf.eprintf
                "discovery soak: %d ticks, %d membership changes (%d joins, %d leaves, %d \
                 crashes), all epochs converged (max lag %.1f ticks, bound %.0f)\n"
                stats.Service.ticks_run stats.Service.epochs stats.Service.joins
                stats.Service.leaves stats.Service.crashes stats.Service.max_lag bound
            else
              Printf.eprintf
                "discovery soak: %d ticks, %d membership changes, %d epoch(s) still settling \
                 at the end of the run (no deadline missed; extend --ticks or --cooldown)\n"
                stats.Service.ticks_run stats.Service.epochs open_epochs;
          finish (if open_epochs = 0 then 0 else 1)
        | exception Repro_engine.Trace.Lag.Violation msg ->
          Printf.eprintf "discovery soak: INVARIANT VIOLATION: %s\n" msg;
          finish 1
      end
    end
  in
  let cap_arg =
    Arg.(
      value & opt int 0
      & info [ "cap" ] ~docv:"CAP"
          ~doc:
            "Id universe: joiners and restarted members draw from ids N..CAP-1 and the retired \
             pool. Default: N + max(16, N/4).")
  in
  let ticks_arg =
    Arg.(value & opt int 5000 & info [ "ticks" ] ~docv:"T" ~doc:"Virtual ticks to run.")
  in
  let churn_arg =
    Arg.(
      value & opt float 0.01
      & info [ "churn" ] ~docv:"RATE"
          ~doc:
            "Expected membership events per tick: joins at RATE/2, graceful leaves and crashes \
             at RATE/4 each. 0 disables the churn generator (scheduled $(b,--fault) churn still \
             applies).")
  in
  let min_live_arg =
    Arg.(
      value & opt int 0
      & info [ "min-live" ] ~docv:"K"
          ~doc:"Never leave/crash below K live members (default N/2).")
  in
  let cooldown_arg =
    Arg.(
      value & opt int (-1)
      & info [ "cooldown" ] ~docv:"T"
          ~doc:
            "Churn-free ticks at the end of the run, so every epoch's convergence deadline \
             falls inside it (default: lag bound + 16).")
  in
  let lag_bound_arg =
    Arg.(
      value & opt float 0.0
      & info [ "lag-bound" ] ~docv:"TICKS"
          ~doc:
            "Convergence-lag bound: every live member must match the true membership within \
             this many ticks of each change. Default: max(64, 4·log2(CAP)²) — the polylog \
             envelope of the paper's re-discovery cost.")
  in
  let full_sync_arg =
    Arg.(
      value & flag
      & info [ "full-sync" ]
          ~doc:
            "Force the periodic full-state anti-entropy backstop on (default: enabled exactly \
             when an update could die in flight — the fault plan can lose messages, or \
             membership can change at all).")
  in
  let backend_arg =
    Arg.(
      value
      & opt
          (some
             (backend_conv [ Repro_net.Backend.Mux ]
                ~reject:
                  "the service multiplexes members into one process: use mux, or omit \
                   --backend for the direct transport"))
          None
      & backend_info
          "Member runtime: $(b,mux) hosts each member inside a real node core (envelope \
             framing, go-back-N retransmission and the seeded fault shim on every hop). \
             Without it, members run on the direct transport: they exchange wire-encoded \
             payloads directly.")
  in
  let indirect_k_arg =
    Arg.(
      value & opt int 2
      & info [ "indirect-k" ] ~docv:"K"
          ~doc:
            "Intermediaries asked to probe on our behalf before a silent peer is suspected; 0 \
             disables the indirect round (a direct-probe timeout suspects immediately).")
  in
  let no_lifeguard_arg =
    Arg.(
      value & flag
      & info [ "no-lifeguard" ]
          ~doc:
            "Disable local-health timeout scaling (by default a member whose own probes fail \
             broadly widens its liveness timeouts instead of spraying down verdicts).")
  in
  let term =
    Term.(
      ret
        (const soak
        $ nodes_arg 256 ~doc:"Founding members."
        $ cap_arg $ ticks_arg $ seed_arg $ churn_arg $ min_live_arg
       $ cooldown_arg $ fault_arg $ lag_bound_arg $ full_sync_arg $ backend_arg
       $ indirect_k_arg $ no_lifeguard_arg
        $ trace_out_arg ~doc:"Write the JSONL event trace to $(docv)."
        $ quiet_arg ~doc:"Suppress the summary line on stderr."))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run discovery as a continuous service: a multiplexed fleet on a virtual clock under \
          seeded churn (joins bootstrapping from live contacts, graceful leaves, crashes and \
          restarts), with SWIM-style liveness probing and versioned anti-entropy deltas. The \
          online convergence-lag invariant requires every live member's view to match the \
          true membership within the bound after each change. One-line JSON report on stdout, \
          byte-reproducible for a given seed; exit 0 only when every epoch converged in time.")
    term

let topo_cmd =
  let show family n seed =
    let rng = Rng.substream ~seed ~index:0x70b0 in
    let topology = Generate.build family ~rng ~n in
    let connected = Analyze.is_weakly_connected topology in
    Printf.printf "family        : %s\n" (Generate.family_name family);
    Printf.printf "nodes         : %d\n" (Topology.n topology);
    Printf.printf "edges         : %d\n" (Topology.edge_count topology);
    Printf.printf "weakly conn.  : %b\n" connected;
    if connected then begin
      let d = Analyze.weak_diameter_estimate ~rng topology in
      Printf.printf "diameter est. : %d\n" d
    end;
    let deg = Analyze.degree_stats topology in
    Printf.printf "out-degree    : mean %.1f, min %.0f, max %.0f\n" deg.Stats.mean deg.Stats.min
      deg.Stats.max;
    0
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Describe a generated topology.")
    Term.(const show $ topology_arg $ n_arg $ seed_arg)

let () =
  let doc = "Distributed resource discovery in sub-logarithmic time (PODC'15 reproduction)" in
  let info = Cmd.info "discovery" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        run_cmd; list_cmd; topo_cmd; trace_cmd; trace_diff_cmd; cluster_cmd; chaos_cmd;
        chaos_matrix_cmd; soak_cmd;
      ]
  in
  eval_and_exit group
