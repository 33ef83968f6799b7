(* Figures F2 (knowledge-growth dynamics) and F4 (per-round message
   budget): the mechanics behind the headline numbers. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

let family = Generate.K_out 3

(* One seed-1 run of each algorithm, a per-round series of each plotted
   on a log scale and written as one CSV line per (algorithm, round). *)
let per_round report ~jobs ~n ~spec ~series ~title ~ylabel ~notes ~csv_name ~column ~fmt algos =
  let runs =
    Pool.map ~jobs
      (fun (algo : Algorithm.t) ->
        let topology = Generate.of_seed family ~n ~seed:1 in
        (algo.Algorithm.name, series (Run.exec_spec spec algo topology)))
      algos
  in
  Report.emit report
    (Plot.render ~logy:true ~title ~xlabel:"round" ~ylabel
       (List.map
          (fun (label, values) ->
            {
              Plot.label;
              points = Array.to_list (Array.mapi (fun i v -> (float_of_int (i + 1), v)) values);
            })
          runs));
  Report.emit report notes;
  Report.csv report ~name:csv_name
    ~header:[ "algorithm"; "round"; column ]
    ~rows:
      (List.concat_map
         (fun (name, values) ->
           Array.to_list (Array.mapi (fun i v -> [ name; string_of_int (i + 1); fmt v ]) values))
         runs)

let f2 report ~quick ~jobs =
  let n = if quick then 1024 else 8192 in
  Report.section report ~id:"F2"
    ~title:
      (Printf.sprintf
         "Mean knowledge-set size per round (k-out, n = %d): doubly-exponential growth" n);
  per_round report ~jobs ~n
    ~spec:{ Run.default_spec with Run.seed = 1; track_growth = true; max_rounds = Some 500 }
    ~series:(fun r -> r.Run.mean_knowledge_series)
    ~title:"mean knowledge size by round" ~ylabel:"|K|"
    ~notes:
      "On a log scale, hm's slope steepens round over round (set sizes square via the growing\n\
       head exchanges) while Name-Dropper's stays straight (geometric doubling at best).\n"
    ~csv_name:"f2_growth" ~column:"mean_knowledge" ~fmt:(Printf.sprintf "%.1f")
    [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm ]

let f4 report ~quick ~jobs =
  let n = if quick then 256 else 1024 in
  Report.section report ~id:"F4"
    ~title:
      (Printf.sprintf
         "Messages sent per round (k-out, n = %d): hm stays near the optimal n budget" n);
  per_round report ~jobs ~n
    ~spec:{ Run.default_spec with Run.seed = 1; max_rounds = Some 500 }
    ~series:(fun r -> Array.map float_of_int (Metrics.sent_series r.Run.metrics))
    ~title:"messages per round" ~ylabel:"msgs"
    ~notes:
      (Printf.sprintf
         "Reference: the optimal per-round budget is n = %d messages. Swamping peaks near n^2 =\n\
          %s; hm's peak stays within a small constant of n.\n"
         n
         (Sweepcell.approx_int (float_of_int (n * n))))
    ~csv_name:"f4_msgs_per_round" ~column:"messages" ~fmt:(Printf.sprintf "%.0f")
    [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm; Swamping.algorithm ]

(* Figure F5: the mechanism itself — the head population per round. A
   node acts as a head while it is the minimum rank of its own
   knowledge; the paper's sub-logarithmic behaviour is the collapse of
   this population under the growing exchanges. *)
(* F5 instruments a single run's internal state (head counts per round),
   so there is nothing to shard — [jobs] is unused by design. *)
let f5 report ~quick ~jobs:_ =
  let n = if quick then 1024 else 8192 in
  Report.section report ~id:"F5"
    ~title:
      (Printf.sprintf
         "Cluster-head population per round (hm, k-out, n = %d): the collapsing-heads mechanism"
         n);
  let seed = 1 in
  let _, instances =
    Exec.instances ~seed Hm_gossip.algorithm (Generate.of_seed family ~n ~seed)
  in
  let head_counts = ref [] in
  let stop ~round:_ ~alive:_ =
    let heads = ref 0 in
    Array.iter
      (fun i ->
        let k = i.Algorithm.knowledge in
        if Knowledge.min_known k = Knowledge.owner k then incr heads)
      instances;
    head_counts := !heads :: !head_counts;
    Array.for_all (fun i -> Knowledge.is_complete i.Algorithm.knowledge) instances
  in
  let _ =
    Sim.run ~n
      ~config:{ Sim.default_config with Sim.max_rounds = 500; engine_seed = seed }
      ~handlers:(Exec.handlers instances) ~measure:Payload.measure ~stop ()
  in
  let series = List.rev !head_counts in
  let points = List.mapi (fun i h -> (float_of_int (i + 1), float_of_int (max h 1))) series in
  Report.emit report
    (Plot.render ~logy:true ~title:"cluster heads by round" ~xlabel:"round" ~ylabel:"heads"
       [ { Plot.label = "hm heads"; points } ]);
  Report.emit report
    (Printf.sprintf
       "Head counts: %s. Initially ~n/(k+2) local rank minima act as heads; each exchange round\n\
        collapses the population super-geometrically until only the global minimum remains —\n\
        the population is the visible form of the doubly-exponential argument.\n"
       (String.concat " → " (List.map string_of_int series)));
  Report.csv report ~name:"f5_head_population" ~header:[ "round"; "heads" ]
    ~rows:(List.mapi (fun i h -> [ string_of_int (i + 1); string_of_int h ]) series)
