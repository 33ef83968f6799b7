(* Experiment T4 (topology sensitivity) and figure F3 (the log D term on
   path graphs). *)

open Repro_util
open Repro_graph
open Repro_discovery

let t4_n ~quick = if quick then 256 else 1024
let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

let t4 report ~quick ~jobs =
  let n = t4_n ~quick in
  let max_rounds = (3 * n) + 64 in
  Report.section report ~id:"T4"
    ~title:(Printf.sprintf "Rounds by initial topology (n = %d; DNF = over %d rounds)" n max_rounds);
  let diameter family =
    Analyze.weak_diameter_estimate ~rng:(Rng.substream ~seed:1 ~index:99)
      (Generate.of_seed family ~n ~seed:1)
  in
  Report.table report
    ~csv:("t4_topology", [ "topology"; "diam"; "n"; "algorithm" ] @ Sweepcell.csv_header [ Sweepcell.Rounds ])
    ~header:
      (("topology", Table.Left) :: ("diam", Table.Right)
      :: List.map (fun (a : Algorithm.t) -> (a.Algorithm.name, Table.Right)) Registry.all)
    ~row:(fun family ->
      let label = [ Generate.family_name family; string_of_int (diameter family) ] in
      (label, label @ [ string_of_int n ]))
    ~col:(fun (a : Algorithm.t) -> [ a.Algorithm.name ])
    ~cell:(fun _ _ results ->
      ([ Sweepcell.cell Sweepcell.Rounds results ], Sweepcell.csv_fields [ Sweepcell.Rounds ] results))
    ~notes:
      "Notes: flooding cannot finish on weakly-but-not-strongly connected inputs (dpath, instar);\n\
       pull-only pointer_jump cannot spread identifiers of nodes nobody knows (dpath, instar) —\n\
       both DNFs reproduce the qualitative claims of HLL99.\n"
    (Report.grid ~jobs ~seeds:(seeds ~quick) Generate.all_families Registry.all
       (fun family algo seed -> Sweepcell.exec ~algo ~family ~n ~max_rounds seed))

let f3_sizes ~quick = if quick then [ 128; 256; 512 ] else [ 128; 256; 512; 1024; 2048; 4096; 8192 ]

let f3 report ~quick ~jobs =
  Report.section report ~id:"F3"
    ~title:"Rounds vs n on path graphs (diameter n-1): the O(log D) mixing term";
  let algos =
    [ Name_dropper.algorithm; Min_pointer.algorithm; Rand_gossip.algorithm; Hm_gossip.algorithm ]
  in
  let cells =
    Report.grid ~jobs ~seeds:(seeds ~quick) algos (f3_sizes ~quick) (fun algo n seed ->
        Sweepcell.exec ~algo ~family:Generate.Path ~n ~max_rounds:1000 seed)
  in
  let rounds_by_n by_n =
    List.filter_map
      (fun (n, results) ->
        Option.map
          (fun (s : Stats.summary) -> (n, s.Stats.mean))
          (Sweepcell.stat Sweepcell.Rounds results))
      by_n
  in
  Report.emit report
    (Plot.render ~logx:true ~title:"rounds on a path (worst-case diameter)" ~xlabel:"n"
       ~ylabel:"rounds"
       (List.map
          (fun ((a : Algorithm.t), by_n) ->
            {
              Plot.label = a.Algorithm.name;
              points = List.map (fun (n, r) -> (float_of_int n, r)) (rounds_by_n by_n);
            })
          cells));
  Report.emit report
    "Every algorithm pays the Ω(log D) knowledge-composition lower bound on a path; hm tracks\n\
     c·log2 n with a small constant, while flat gossip and Name-Dropper pay extra factors.\n";
  Report.csv report ~name:"f3_path_rounds"
    ~header:[ "algorithm"; "n"; "rounds" ]
    ~rows:
      (List.concat_map
         (fun ((a : Algorithm.t), by_n) ->
           List.map
             (fun (n, r) -> [ a.Algorithm.name; string_of_int n; Printf.sprintf "%.1f" r ])
             (rounds_by_n by_n))
         cells)
