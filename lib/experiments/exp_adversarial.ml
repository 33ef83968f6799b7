(* Experiment T12: the adversarial scenario matrix — named worst-case
   topologies crossed with WAN link profiles. Complements T4 (which
   asks how fast discovery is per topology on clean links) by asking
   whether the round/message budgets survive when the topology is
   chosen adversarially AND the links degrade in correlated,
   region-shaped ways. *)

open Repro_util
open Repro_engine
open Repro_discovery
open Repro_graph

let t12_n ~quick = if quick then 64 else 256
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

let algorithms =
  [ Hm_gossip.algorithm; Min_pointer.algorithm; Name_dropper.algorithm; Rand_gossip.algorithm ]

(* Two latency regions (an even split), every cross-region link degraded.
   [wan]: transatlantic-ish — extra delay plus mild loss. [saturated]:
   the crossing's bandwidth collapses to a trickle per link. *)
let profiles ~n =
  let regions =
    [ List.init (n / 2) Fun.id; List.init (n - (n / 2)) (fun i -> (n / 2) + i) ]
  in
  [
    ("none", Fault.none);
    ("wan", Fault.with_wan Fault.none ~regions ~cross:{ Fault.default_link with Fault.delay = 2; loss = 0.1 });
    ("saturated", Fault.with_wan Fault.none ~regions ~cross:{ Fault.default_link with Fault.cap = 1 });
  ]

let t12 report ~quick ~jobs =
  let n = t12_n ~quick in
  Report.section report ~id:"T12"
    ~title:
      (Printf.sprintf "Adversarial scenario matrix (n = %d; DNF = over %d rounds)" n (8 * n));
  let metrics = Sweepcell.[ Rounds; Messages; Dropped ] in
  Report.table report
    ~csv:("t12_adversarial", [ "topology"; "links"; "n"; "algorithm" ] @ Sweepcell.csv_header metrics)
    ~header:
      (("topology", Table.Left) :: ("links", Table.Left)
      :: List.map (fun (a : Algorithm.t) -> (a.Algorithm.name, Table.Right)) algorithms)
    ~row:(fun (family, (profile, _)) ->
      let label = [ Generate.family_name family; profile ] in
      (label, label @ [ string_of_int n ]))
    ~col:(fun (a : Algorithm.t) -> [ a.Algorithm.name ])
    ~cell:(fun _ _ results ->
      ([ Sweepcell.cell Sweepcell.Rounds results ], Sweepcell.csv_fields metrics results))
    ~notes:
      "Notes: the sorted chain is min_pointer's deterministic worst case (see the regression test\n\
       in test_adversarial.ml — its pointer cost separates from hm's there); kniesburges is the\n\
       sorted low-weft instance from the KPV analysis. WAN crossings slow every algorithm by a\n\
       few rounds. The saturated profile throttles every cross-region link to one message per\n\
       round; the resulting drops show up in the CSV's dropped column, yet rounds and send counts\n\
       stay at their clean-link values — the extra sends these gossips make over a hot link are\n\
       duplicates of state the receiver gets elsewhere, so throttling them costs nothing. The\n\
       deterministic cap accounting itself is pinned by test_adversarial.ml's cap tests.\n"
    (Report.grid ~jobs ~seeds:(seeds ~quick)
       (List.concat_map
          (fun family -> List.map (fun profile -> (family, profile)) (profiles ~n))
          Generate.adversarial_families)
       algorithms
       (fun (family, (_, fault)) algo seed ->
         Sweepcell.exec ~algo ~family ~n ~max_rounds:(8 * n) ~fault seed))
