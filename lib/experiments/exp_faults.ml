(* Experiments T5 (message loss) and T6 (crash-stop failures). *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

let n ~quick = if quick then 256 else 1024
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]
let family = Generate.K_out 3

let loss_levels = [ 0.0; 0.05; 0.1; 0.2; 0.4 ]

let t5_algorithms () =
  [
    Hm_gossip.algorithm;
    Hm_gossip.with_variant ~upward:Hm_gossip.Full ();
    Rand_gossip.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
  ]

let algo_header (a : Algorithm.t) = (a.Algorithm.name, Table.Right)
let algo_key (a : Algorithm.t) = [ a.Algorithm.name ]

let rounds_cell _ _ results =
  ([ Sweepcell.cell Sweepcell.Rounds results ], Sweepcell.csv_fields [ Sweepcell.Rounds ] results)

let t5 report ~quick ~jobs =
  let n = n ~quick in
  Report.section report ~id:"T5"
    ~title:(Printf.sprintf "Rounds under message loss (k-out, n = %d)" n);
  let algos = t5_algorithms () in
  Report.table report
    ~csv:("t5_loss", [ "loss"; "algorithm" ] @ Sweepcell.csv_header [ Sweepcell.Rounds ])
    ~header:(("loss", Table.Right) :: List.map algo_header algos)
    ~row:(fun p -> ([ Printf.sprintf "%.0f%%" (100.0 *. p) ], [ Printf.sprintf "%.2f" p ]))
    ~col:algo_key ~cell:rounds_cell
    ~notes:
      "hm's delta reports are retransmitted until the head's Reply acknowledges them, so loss\n\
       costs rounds, never correctness; hm:full converges slightly faster under heavy loss at a\n\
       much higher pointer cost.\n"
    (Report.grid ~jobs ~seeds:(seeds ~quick) loss_levels algos (fun p algo seed ->
         Sweepcell.exec ~algo ~family ~n ~max_rounds:2000
           ~fault:(Fault.with_loss Fault.none ~p)
           seed))

let crash_fractions = [ 0.0; 0.01; 0.05; 0.10 ]

let t6_algorithms () =
  [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm; Min_pointer.algorithm ]

let t6 report ~quick ~jobs =
  let n = n ~quick in
  Report.section report ~id:"T6"
    ~title:
      (Printf.sprintf
         "Crash-stop failures during rounds 1-5 (k-out, n = %d; completion = every survivor \
          knows every survivor)"
         n);
  let algos = t6_algorithms () in
  let csv = ("t6_crashes", [ "crashed"; "algorithm" ] @ Sweepcell.csv_header [ Sweepcell.Rounds ]) in
  let crashes fault_of rows =
    Report.grid ~jobs ~seeds:(seeds ~quick) rows algos (fun row algo seed ->
        Sweepcell.exec ~algo ~family ~n ~max_rounds:2000 ~fault:(fault_of row seed)
          ~completion:Run.Survivors_strong seed)
  in
  let count_of frac = int_of_float (Float.round (frac *. float_of_int n)) in
  Report.table report ~csv
    ~header:(("crashed", Table.Right) :: List.map algo_header algos)
    ~row:(fun frac ->
      let count = count_of frac in
      ([ Printf.sprintf "%d (%.0f%%)" count (100.0 *. frac) ], [ string_of_int count ]))
    ~col:algo_key ~cell:rounds_cell ~notes:"\n"
    (crashes
       (fun frac seed -> Fault.with_random_crashes Fault.none ~seed ~n ~count:(count_of frac))
       crash_fractions);
  (* Uniform victims rarely include the aggregation sink, so also crash
     it deliberately — and at the worst possible moment. The node with
     the smallest rank (hm's sink) and the node with the smallest raw
     identifier (min_pointer's sink) both die at round 5, when nearly
     every node has already converged on reporting to them; earlier
     crashes lose the race against the surviving roots and are survivable
     even without failure detection. *)
  let adversarial_fault () seed =
    let labels = Repro_util.Rng.permutation (Repro_util.Rng.substream ~seed ~index:0) n in
    let rank_min = ref 0 in
    Array.iteri (fun v l -> if l < labels.(!rank_min) then rank_min := v) labels;
    Fault.with_crashes Fault.none [ (0, 5); (!rank_min, 5) ]
  in
  Report.table report ~csv
    ~header:(("scenario", Table.Left) :: List.map algo_header algos)
    ~row:(fun () -> ([ "both aggregation sinks crash at round 5 (endgame)" ], [ "sinks" ]))
    ~col:algo_key ~cell:rounds_cell
    ~notes:
      "hm suspects its silent head candidate after a few unanswered reports and re-clusters\n\
       around the smallest surviving rank; min_pointer has no failure detection, so once the\n\
       minimum identifier crashes the survivors report to it forever — the deterministic\n\
       baseline survives random churn only as long as its sink does.\n"
    (crashes adversarial_fault [ () ])
