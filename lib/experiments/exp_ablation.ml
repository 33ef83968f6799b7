(* Experiment T7: ablations of the design choices called out in
   DESIGN.md §5, for both the hm algorithm and flat random gossip. *)

open Repro_util
open Repro_graph
open Repro_discovery

let n ~quick = if quick then 512 else 4096
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]
let family = Generate.K_out 3

let variants () =
  let hm ?broadcast ?upward note = (Hm_gossip.with_variant ?broadcast ?upward (), note) in
  let rand spec note =
    match Registry.find ("rand:" ^ spec) with
    | Ok a -> (a, note)
    | Error e -> invalid_arg ("exp_ablation: " ^ e)
  in
  [
    (Hm_gossip.algorithm, "the full algorithm");
    hm ~upward:Hm_gossip.Full "reports carry full snapshots (pointer-cost ablation)";
    hm ~broadcast:(Hm_gossip.Cap 1) "head fan-out capped at 1 (no growing exchange)";
    hm ~broadcast:(Hm_gossip.Cap 4) "head fan-out capped at 4";
    hm ~broadcast:(Hm_gossip.Cap 16) "head fan-out capped at 16";
    hm ~broadcast:Hm_gossip.Off "heads stay silent (island stalemate)";
    (Min_pointer.algorithm, "no random ranks (deterministic ids)");
    rand "push_pull/f1" "flat gossip, push-pull, fanout 1";
    rand "push/f1" "flat gossip, push only";
    rand "pull/f1" "flat gossip, pull only";
    rand "push_pull/f4" "flat gossip, fanout 4";
    rand "push/f1/delta" "flat push gossip with unacked deltas (unsound under churn)";
    rand "push_pull/f1/nbr" "partners restricted to initial neighbors (no direct addressing)";
  ]

let t7 report ~quick ~jobs =
  let n = n ~quick in
  Report.section report ~id:"T7"
    ~title:(Printf.sprintf "Design ablations (k-out, n = %d; DNF = over 300 rounds)" n);
  let metrics = Sweepcell.[ Rounds; Messages; Pointers ] in
  Report.table report
    ~csv:("t7_ablations", "variant" :: Sweepcell.csv_header metrics)
    ~header:
      [
        ("variant", Table.Left);
        ("rounds", Table.Right);
        ("messages", Table.Right);
        ("pointers", Table.Right);
        ("what it isolates", Table.Left);
      ]
    ~row:(fun ((algo : Algorithm.t), _) -> ([ algo.Algorithm.name ], [ algo.Algorithm.name ]))
    ~col:(fun () -> [])
    ~cell:(fun (_, note) () results ->
      ( List.map (fun m -> Sweepcell.cell m results) metrics @ [ note ],
        Sweepcell.csv_fields metrics results ))
    (Report.grid ~jobs ~seeds:(seeds ~quick) (variants ()) [ () ] (fun (algo, _) () seed ->
         Sweepcell.exec ~algo ~family ~n ~max_rounds:300 seed))
