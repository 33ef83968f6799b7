(* Experiment T9: discovery under churn. Half of the fleet is present
   from the start; the rest joins in waves while discovery is already
   running. Strong completion (everyone knows all n) is only reachable
   once the last wave has joined, so the interesting number is the
   stabilisation time: rounds elapsed after the final join. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery
module Service = Repro_service.Service

let family = Generate.K_out 3
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

type schedule = { label : string; last_join : int; joins : n:int -> seed:int -> (int * int) list }

let schedules =
  [
    { label = "no churn"; last_join = 1; joins = (fun ~n:_ ~seed:_ -> []) };
    {
      label = "half join at round 5";
      last_join = 5;
      joins =
        (fun ~n ~seed ->
          let rng = Rng.substream ~seed ~index:0x901d in
          Array.to_list (Rng.sample_distinct rng ~n ~k:(n / 2) ~avoid:(-1))
          |> List.map (fun v -> (v, 5)));
    };
    {
      label = "waves at rounds 4/8/12/16";
      last_join = 16;
      joins =
        (fun ~n ~seed ->
          let rng = Rng.substream ~seed ~index:0x901d in
          let late = Rng.sample_distinct rng ~n ~k:(n / 2) ~avoid:(-1) in
          List.mapi (fun i v -> (v, 4 + (4 * (i mod 4)))) (Array.to_list late));
    };
  ]

let algorithms = [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm ]

let t9 report ~quick ~jobs =
  let n = if quick then 256 else 1024 in
  Report.section report ~id:"T9"
    ~title:
      (Printf.sprintf
         "Discovery under churn (k-out, n = %d): rounds to strong completion, with the \
          stabilisation time after the last join in parentheses"
         n);
  Report.table report
    ~csv:("t9_churn", [ "schedule"; "algorithm"; "rounds_mean"; "rounds_std" ])
    ~header:
      (("join schedule", Table.Left)
      :: List.map (fun (a : Algorithm.t) -> (a.Algorithm.name, Table.Right)) algorithms)
    ~row:(fun schedule -> ([ schedule.label ], [ schedule.label ]))
    ~col:(fun (a : Algorithm.t) -> [ a.Algorithm.name ])
    ~cell:(fun schedule _ rounds ->
      let s = Stats.summarize_ints rounds in
      ( [
          Printf.sprintf "%.1f (+%.1f)" s.Stats.mean
            (Float.max 0.0 (s.Stats.mean -. float_of_int schedule.last_join));
        ],
        Sweepcell.summary_fields s ))
    ~notes:
      "hm re-stabilises within a handful of rounds of the last join: joiners pull the full view\n\
       from the cluster head they discover, and heads learn the joiners through the same report\n\
       path as any other identifier. Nodes that point at a not-yet-joined minimum suspect it and\n\
       re-point; the suspicion is lifted the moment the joiner speaks.\n"
    (* the join schedule becomes part of the run's fault model *)
    (Report.grid ~jobs ~seeds:(seeds ~quick) schedules algorithms (fun schedule algo seed ->
         let fault = Fault.with_joins Fault.none (schedule.joins ~n ~seed) in
         let r = Sweepcell.exec ~algo ~family ~n ~max_rounds:2000 ~fault seed in
         if not r.Run.completed then
           failwith (Printf.sprintf "%s did not stabilise under churn" algo.Algorithm.name);
         r.Run.rounds))

(* Each service cell is one soak, run at a single seed, with the
   membership cap both service experiments use. *)
let only = function [ x ] -> x | _ -> invalid_arg "Exp_churn: one seed per service cell"

let soak ~n ~ticks ?churn ?(fault = Fault.none) ?lag_bound ?(indirect_k = 2) ?(lifeguard = true)
    seed =
  Service.run
    {
      Service.n;
      cap = n + (n / 4);
      seed;
      ticks;
      churn;
      fault;
      lag_bound;
      full_sync = None;
      backend = None;
      indirect_k;
      lifeguard;
      trace = Trace.null;
    }

(* Experiment T13: the continuous service at steady state. One-shot
   discovery (T9) measures time-to-complete; here the fleet never
   stops. The service's anti-entropy claim is that steady-state traffic
   is churn-proportional: per-member load is a flat probe floor plus an
   update stream that scales with the membership-change rate, not with
   the fleet size. Each cell is one long soak — itself an aggregate
   over thousands of ticks — with the convergence-lag invariant checked
   online throughout, so every number in the table is from a run in
   which the fleet provably kept up. *)

let t13_rates = [ 0.0; 0.01; 0.05; 0.2 ]

let t13 report ~quick ~jobs =
  let ns = if quick then [ 64; 256 ] else [ 64; 256; 1024 ] in
  let ticks = if quick then 1500 else 3000 in
  Report.section report ~id:"T13"
    ~title:
      (Printf.sprintf
         "Continuous service at steady state (%d ticks/cell): per-member messages per tick, \
          with update entries per tick in parentheses"
         ticks);
  Report.table report
    ~csv:
      ( "t13_service",
        [ "n"; "churn"; "msgs_per_member_tick"; "entries_per_member_tick"; "epochs"; "epochs_closed"; "max_lag" ] )
    ~header:
      (("n", Table.Right)
      :: List.map (fun r -> (Printf.sprintf "churn %g" r, Table.Right)) t13_rates)
    ~row:(fun n -> ([ string_of_int n ], [ string_of_int n ]))
    ~col:(fun rate -> [ Printf.sprintf "%g" rate ])
    ~cell:(fun n _ stats ->
      let s = only stats in
      let per_member v =
        float_of_int v /. float_of_int s.Service.ticks_run /. float_of_int n
      in
      let msgs = per_member s.Service.msgs in
      let entries = per_member s.Service.update_entries in
      ( [ Printf.sprintf "%.2f (%.2f)" msgs entries ],
        [
          Printf.sprintf "%.3f" msgs;
          Printf.sprintf "%.3f" entries;
          string_of_int s.Service.epochs;
          string_of_int s.Service.epochs_closed;
          Printf.sprintf "%.0f" s.Service.max_lag;
        ] ))
    ~notes:
      "The zero-churn column is the probe floor (one probe + one ack per probe interval),\n\
       identical at every fleet size. Under churn the per-member message rate stays flat in n\n\
       while the update-entry stream tracks the churn rate: dissemination budgets cap each\n\
       membership change at O(log n) retransmissions per member, so a 16x larger fleet pays\n\
       the same per-member rate for the same relative churn. Every cell's soak closed all of\n\
       its convergence epochs within the lag bound.\n"
    (Report.grid ~jobs ~seeds:[ 1 ] ns t13_rates (fun n rate seed ->
         let cooldown = int_of_float (Service.default_lag_bound ~cap:(n + (n / 4))) + 16 in
         let churn =
           if rate = 0.0 then None
           else Some { Service.rate; min_live = n / 2; until = ticks - cooldown }
         in
         soak ~n ~ticks ?churn seed))

(* Experiment T14: failure-detector precision under message loss. The
   fleet is perfectly healthy — nobody joins, leaves or crashes — so
   every suspicion and every down conviction is by construction a false
   positive caused purely by lost probes/acks. The detector pipeline is
   toggled between its naive form (a direct-probe timeout suspects
   immediately; fixed conviction window) and the full one (indirect
   probes through intermediaries, local-health timeout scaling,
   confirmation-scaled suspicion windows), across loss rates. *)

let t14_losses = [ 0.0; 0.05; 0.1; 0.2 ]

let t14 report ~quick ~jobs =
  let n = if quick then 48 else 64 in
  let ticks = if quick then 1500 else 3000 in
  Report.section report ~id:"T14"
    ~title:
      (Printf.sprintf
         "Failure-detector precision on a healthy fleet (n = %d, %d ticks): false suspicions \
          per 1000 member-ticks, with false down convictions in parentheses"
         n ticks);
  let per_kmt x = 1000.0 *. float_of_int x /. float_of_int (ticks * n) in
  Report.table report
    ~csv:
      ( "t14_detector",
        [ "detector"; "loss"; "false_suspicions"; "false_retirements"; "fs_per_1k_member_ticks"; "fr_per_1k_member_ticks" ] )
    ~header:
      (("detector", Table.Left)
      :: List.map (fun p -> (Printf.sprintf "loss %g" p, Table.Right)) t14_losses)
    ~row:(fun (label, _, _) -> ([ label ], [ label ]))
    ~col:(fun p -> [ Printf.sprintf "%g" p ])
    ~cell:(fun _ _ stats ->
      let s = only stats in
      let fs = per_kmt s.Service.false_suspicions in
      let fr = per_kmt s.Service.false_retirements in
      ( [ Printf.sprintf "%.3f (%.3f)" fs fr ],
        [
          string_of_int s.Service.false_suspicions;
          string_of_int s.Service.false_retirements;
          Printf.sprintf "%.4f" fs;
          Printf.sprintf "%.4f" fr;
        ] ))
    ~notes:
      "With the pipeline off, every lost probe reply opens a suspicion and a burst of loss\n\
       convicts a live node; the conviction then has to be refuted through an incarnation bump\n\
       and re-disseminated — wasted traffic and a window in which the fleet is wrong. Indirect\n\
       probes give each verdict k independent network paths, local health widens a struggling\n\
       observer's own timeouts, and confirmation-scaled windows make lone accusers wait — \n\
       together they cut false convictions by well over an order of magnitude at every loss\n\
       rate, at the cost of a slightly longer (still bounded) detection delay.\n"
    (Report.grid ~jobs ~seeds:[ 1 ]
       [ ("direct only", 0, false); ("indirect + lifeguard", 2, true) ]
       t14_losses
       (fun (_, indirect_k, lifeguard) p seed ->
         (* a generous lag bound: the experiment measures the false-
            positive rate, and the naive detector's wrong verdicts take
            a few refutation round-trips to heal under heavy loss *)
         let lag_bound = 4.0 *. Service.default_lag_bound ~cap:(n + (n / 4)) in
         let fault = if p = 0.0 then Fault.none else Fault.with_loss Fault.none ~p in
         soak ~n ~ticks ~fault ~lag_bound ~indirect_k ~lifeguard seed))
