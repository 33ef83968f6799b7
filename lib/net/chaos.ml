open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

type spec = {
  algo : Algorithm.t;
  n : int;
  trials : int;
  seed : int;
  backend : Backend.t;
  tick_period : float;
  timeout : float;
  dir : string option;
}

let default_spec algo =
  {
    algo;
    n = 8;
    trials = 10;
    seed = 0;
    backend = Backend.Process Backend.Uds;
    tick_period = Node.default_tick_period;
    timeout = 10.0;
    dir = None;
  }

(* Every soak trial runs over kout:3, and no plan's base loss rate
   exceeds 20%. *)
let soak_family = Generate.K_out 3
let loss_max_pct = 20

type trial = { index : int; seed : int; plan : Fault.t; result : Cluster.result; passed : bool }

type report = {
  algorithm : string;
  backend : Backend.t;
  n : int;
  base_seed : int;
  trials : trial list;
  passed : int;
}

let all_passed r = r.passed = List.length r.trials

let pct p = float_of_int p /. 100.0

let group lo hi = List.init (hi - lo) (fun i -> lo + i)

(* Base link noise, quantized to whole percents so plans print
   compactly: a loss rate up to [loss_max_pct], and small duplication,
   reordering and corruption probabilities. *)
let link_noise ~rng =
  let plan = Fault.with_loss Fault.none ~p:(pct (Rng.int rng (loss_max_pct + 1))) in
  let plan = Fault.with_dup plan ~p:(pct (Rng.int rng 6)) in
  let plan = Fault.with_reorder plan ~p:(pct (Rng.int rng 11)) in
  Fault.with_corrupt plan ~p:(pct (Rng.int rng 3))

(* One randomized-but-seeded plan per trial: base link noise, one scheduled
   partition that heals, and one crash that restarts. Every trial
   therefore exercises the reliability layer, the partition window and
   the rejoin handshake at once. *)
let random_plan ~rng ~n =
  let plan = link_noise ~rng in
  let split = 1 + Rng.int rng (n - 1) in
  let start = 3 + Rng.int rng 8 in
  let heal = start + 5 + Rng.int rng 11 in
  let plan = Fault.with_partition plan ~groups:[ group 0 split; group split n ] ~start ~heal in
  let victim = Rng.int rng n in
  let crash = 3 + Rng.int rng 6 in
  let restart = crash + 4 + Rng.int rng 7 in
  let plan = Fault.with_crash plan ~node:victim ~round:crash in
  Fault.with_restart plan ~node:victim ~round:restart

let check_soak ~who ~trials ~n =
  if trials < 1 then invalid_arg (Printf.sprintf "Chaos.%s: trials must be positive" who);
  if n < 2 then invalid_arg (Printf.sprintf "Chaos.%s: n must be at least 2" who)

(* The cluster of one trial: [algo] over [family], seeded with the
   trial's seed, under [plan]. *)
let trial_spec algo ~family ~n ~backend ~timeout ~seed plan =
  { (Cluster.default_spec algo) with Cluster.n; family; seed; backend; timeout; fault = plan }

(* One trial's run and its verdict: converged, with no violation from
   the online invariant checker. *)
let run_trial spec =
  let result = Cluster.run spec in
  let invariants_ok =
    match result.Cluster.invariants with
    | Cluster.Failed _ -> false
    | Cluster.Passed _ | Cluster.Skipped _ -> true
  in
  (result, result.Cluster.converged && invariants_ok)

let run ?(progress = fun _ -> ()) (spec : spec) =
  check_soak ~who:"run" ~trials:spec.trials ~n:spec.n;
  let trials =
    List.init spec.trials (fun index ->
        let seed = spec.seed + index in
        let rng = Rng.substream ~seed ~index:0xc405 in
        let plan = random_plan ~rng ~n:spec.n in
        let result, passed =
          run_trial
            {
              (trial_spec spec.algo ~family:soak_family ~n:spec.n ~backend:spec.backend
                 ~timeout:spec.timeout ~seed plan)
              with
              Cluster.tick_period = spec.tick_period;
              dir = spec.dir;
            }
        in
        let trial = { index; seed; plan; result; passed } in
        progress trial;
        trial)
  in
  let passed = List.length (List.filter (fun (t : trial) -> t.passed) trials) in
  {
    algorithm = spec.algo.Algorithm.name;
    backend = spec.backend;
    n = spec.n;
    base_seed = spec.seed;
    trials;
    passed;
  }

(* --- plan families and the chaos matrix ------------------------------ *)

let plan_families = [ "links"; "partition"; "crash"; "wan" ]

let plan_of_family name ~rng ~n =
  match name with
  | "links" -> link_noise ~rng
  | "partition" ->
    let split = 1 + Rng.int rng (n - 1) in
    let start = 2 + Rng.int rng 4 in
    let heal = start + 4 + Rng.int rng 8 in
    Fault.with_partition Fault.none ~groups:[ group 0 split; group split n ] ~start ~heal
  | "crash" ->
    let victim = Rng.int rng n in
    let crash = 2 + Rng.int rng 4 in
    let restart = crash + 3 + Rng.int rng 6 in
    Fault.with_restart
      (Fault.with_crash Fault.none ~node:victim ~round:crash)
      ~node:victim ~round:restart
  | "wan" ->
    let split = 1 + Rng.int rng (n - 1) in
    let delay = 1 + Rng.int rng 2 in
    let loss = pct (Rng.int rng 11) in
    Fault.with_wan Fault.none
      ~regions:[ group 0 split; group split n ]
      ~cross:{ Fault.default_link with Fault.delay; loss; cap = 2 }
  | other -> invalid_arg (Printf.sprintf "Chaos.plan_of_family: unknown plan family %S" other)

let plan_index ~who name =
  match List.find_index (String.equal name) plan_families with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Chaos.%s: unknown plan family %S" who name)

(* Trial [trial] of plan family [name]. One substream per (plan family,
   trial): the same plan therefore stresses every (algorithm, topology)
   cell, which makes cell-to-cell comparisons meaningful. Returns the
   trial's seed and its plan. *)
let family_plan ~who name ~seed ~trial ~n =
  let trial_seed = seed + trial in
  let rng = Rng.substream ~seed:trial_seed ~index:(0xc406 + plan_index ~who name) in
  (trial_seed, plan_of_family name ~rng ~n)

type cell = {
  cell_algo : string;
  cell_topology : string;
  cell_plan : string;
  cell_n : int;
  cell_trials : int;
  cell_passed : int;
}

let cell_to_json c =
  Printf.sprintf
    {|{"algo":"%s","topology":"%s","plan_family":"%s","n":%d,"trials":%d,"passed":%d,"failed":%d}|}
    c.cell_algo c.cell_topology c.cell_plan c.cell_n c.cell_trials c.cell_passed
    (c.cell_trials - c.cell_passed)

let matrix_to_json cells = String.concat "\n" (List.map cell_to_json cells) ^ "\n"

let matrix ?(progress = fun _ -> ()) ~algos ~families ~plans ~n ~trials ~seed ~backend ~timeout ()
    =
  check_soak ~who:"matrix" ~trials ~n;
  List.iter (fun p -> ignore (plan_index ~who:"matrix" p)) plans;
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun family ->
          List.map
            (fun plan_name ->
              let passed = ref 0 in
              for trial = 0 to trials - 1 do
                let trial_seed, plan = family_plan ~who:"matrix" plan_name ~seed ~trial ~n in
                let _, ok =
                  run_trial (trial_spec algo ~family ~n ~backend ~timeout ~seed:trial_seed plan)
                in
                if ok then incr passed
              done;
              let cell =
                {
                  cell_algo = algo.Algorithm.name;
                  cell_topology = Generate.family_name family;
                  cell_plan = plan_name;
                  cell_n = n;
                  cell_trials = trials;
                  cell_passed = !passed;
                }
              in
              progress cell;
              cell)
            plans)
        families)
    algos

(* --- trace-level diagnosis of a failing cell ------------------------- *)

type diagnosis = {
  diag_seed : int;
  diag_plan : Fault.t;
  diag_heal_time : float;
  diag_quiet_pre_heal : int list;
  diag_never_completed : int list;
  diag_converged : bool;
}

let diagnose ~algo ~family ~plan_family ~n ~trial ~seed ~backend ~timeout () =
  let trial_seed, plan = family_plan ~who:"diagnose" plan_family ~seed ~trial ~n in
  let last_send = Array.make n neg_infinity in
  let clock = ref 0.0 in
  let sink =
    Trace.callback (function
      | Trace.Tick { time; _ } -> clock := Float.max !clock time
      | Trace.Send { src; _ } -> if !clock > last_send.(src) then last_send.(src) <- !clock
      | _ -> ())
  in
  let spec = trial_spec algo ~family ~n ~backend ~timeout ~seed:trial_seed plan in
  let result = Cluster.run { spec with Cluster.trace = sink } in
  (* the mux runs on the virtual round clock (one unit per round); the
     socket backends tie rounds to the real tick period *)
  let round_period =
    match backend with Backend.Mux -> 1.0 | Backend.Process _ -> spec.Cluster.tick_period
  in
  let heal_time =
    List.fold_left
      (fun acc (p : Fault.partition) -> Float.max acc (float_of_int p.Fault.heal *. round_period))
      0.0 (Fault.partitions plan)
  in
  let quiet =
    List.filter (fun id -> last_send.(id) < heal_time) (List.init n (fun i -> i))
  in
  let never =
    Array.to_list result.Cluster.nodes
    |> List.filter (fun (r : Cluster.node_report) -> not r.Cluster.completed)
    |> List.map (fun (r : Cluster.node_report) -> r.Cluster.id)
  in
  {
    diag_seed = trial_seed;
    diag_plan = plan;
    diag_heal_time = heal_time;
    diag_quiet_pre_heal = quiet;
    diag_never_completed = never;
    diag_converged = result.Cluster.converged;
  }

let diagnosis_to_json d =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    {|{"seed":%d,"plan":"%s","heal_time":%g,"quiet_pre_heal":[%s],"never_completed":[%s],"converged":%b}|}
    d.diag_seed (Fault.to_string d.diag_plan) d.diag_heal_time (ints d.diag_quiet_pre_heal)
    (ints d.diag_never_completed) d.diag_converged

(* --- JSON soak report ----------------------------------------------- *)

let trial_to_json t =
  let invariants =
    match t.result.Cluster.invariants with
    | Cluster.Passed _ -> "passed"
    | Cluster.Failed _ -> "failed"
    | Cluster.Skipped _ -> "skipped"
  in
  let retransmits, corrupt_frames =
    match t.result.Cluster.totals with
    | Some f -> (f.Control.retransmits, f.Control.corrupt_frames)
    | None -> (0, 0)
  in
  Printf.sprintf
    {|{"trial":%d,"seed":%d,"plan":"%s","converged":%b,"invariants":"%s","passed":%b,"wall_time":%.6f,"events":%d,"crashed":[%s],"retransmits":%d,"corrupt_frames":%d}|}
    t.index t.seed (Fault.to_string t.plan) t.result.Cluster.converged invariants t.passed
    t.result.Cluster.wall_time t.result.Cluster.events
    (String.concat "," (List.map string_of_int t.result.Cluster.crashed))
    retransmits corrupt_frames

let report_to_json r =
  Printf.sprintf
    {|{"algorithm":"%s","family":"%s","backend":"%s","n":%d,"seed":%d,"loss_max":%g,"trials":%d,"passed":%d,"failed":%d,"results":[%s]}|}
    r.algorithm (Generate.family_name soak_family)
    (Backend.to_string r.backend)
    r.n r.base_seed (pct loss_max_pct) (List.length r.trials) r.passed
    (List.length r.trials - r.passed)
    (String.concat "," (List.map trial_to_json r.trials))
