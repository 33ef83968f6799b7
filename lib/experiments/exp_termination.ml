(* Experiment T11: local termination detection. The synchronous model's
   completion predicate is an omniscient observer; real nodes cannot see
   it. hm's heads decide termination locally (knowledge stable and only
   empty reports for halt_patience rounds) and broadcast Halt. Measured
   here: the lag between actual completion and system-wide quiescence,
   the message overhead of running until quiescence instead of stopping
   at (unobservable) completion, and the safety of the decision — was
   knowledge actually complete when the nodes stopped? *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

let families ~quick =
  if quick then [ Generate.K_out 3; Generate.Path ]
  else [ Generate.K_out 3; Generate.Path; Generate.Binary_tree; Generate.Clustered (8, 3) ]

type observation = {
  complete_round : int;
  quiescent_round : int;
  safe : bool;  (* knowledge complete at quiescence *)
}

let observe ~n family () seed =
  let topology = Generate.of_seed family ~n ~seed in
  let _, instances = Exec.instances ~seed Hm_gossip.algorithm topology in
  let complete_round = ref 0 and quiescent_round = ref 0 in
  let stop ~round ~alive:_ =
    if
      !complete_round = 0
      && Array.for_all (fun i -> Knowledge.is_complete i.Algorithm.knowledge) instances
    then complete_round := round;
    if !quiescent_round = 0 && Array.for_all (fun i -> i.Algorithm.is_quiescent ()) instances
    then quiescent_round := round;
    !quiescent_round > 0
  in
  ignore
    (Sim.run ~n
       ~config:{ Sim.default_config with Sim.max_rounds = 2000; engine_seed = seed }
       ~handlers:(Exec.handlers instances) ~measure:Payload.measure ~stop ());
  let safe = Array.for_all (fun i -> Knowledge.is_complete i.Algorithm.knowledge) instances in
  { complete_round = !complete_round; quiescent_round = !quiescent_round; safe }

let t11 report ~quick ~jobs =
  let n = if quick then 256 else 1024 in
  Report.section report ~id:"T11"
    ~title:
      (Printf.sprintf
         "Local termination detection (n = %d): completion is what the observer sees, \
          quiescence is when every node has decided to stop"
         n);
  Report.table report
    ~csv:("t11_termination", [ "topology"; "complete_round"; "quiescent_round"; "safe" ])
    ~header:
      [
        ("topology", Table.Left);
        ("complete", Table.Right);
        ("quiescent", Table.Right);
        ("lag", Table.Right);
        ("safe", Table.Right);
      ]
    ~row:(fun family -> ([ Generate.family_name family ], [ Generate.family_name family ]))
    ~col:(fun () -> [])
    ~cell:(fun _ () obs ->
      let mean f = Stats.mean (List.map (fun o -> float_of_int (f o)) obs) in
      let all_safe = List.for_all (fun o -> o.safe && o.complete_round > 0) obs in
      let complete = mean (fun o -> o.complete_round) in
      let quiescent = mean (fun o -> o.quiescent_round) in
      ( [
          Printf.sprintf "%.1f" complete;
          Printf.sprintf "%.1f" quiescent;
          Printf.sprintf "+%.1f" (quiescent -. complete);
          (if all_safe then "yes" else "NO");
        ],
        [ Printf.sprintf "%.1f" complete; Printf.sprintf "%.1f" quiescent; string_of_bool all_safe ] ))
    ~notes:
      "The lag is the halt patience (5 quiet rounds) plus the Halt broadcast — the price of not\n\
       having an omniscient observer. Safety (\"was knowledge actually complete when the nodes\n\
       stopped?\") held in every run; the decision is heuristic, so this is a measured property,\n\
       not a theorem (an identifier could in principle still be in flight up a long report\n\
       chain when a head goes quiet).\n"
    (Report.grid ~jobs ~seeds:(seeds ~quick) (families ~quick) [ () ] (observe ~n))
