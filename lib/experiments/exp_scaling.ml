(* Experiments T1/T2/T3 and figure F1: cost scaling with n on the
   canonical k-out random knowledge graphs. The four outputs share one
   sweep, memoised per (quick) mode within a process. *)

open Repro_util
open Repro_graph
open Repro_discovery

let family = Generate.K_out 3

let sizes ~quick =
  if quick then [ 128; 256; 512; 1024 ] else [ 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]

let seeds ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3 ]

(* Swamping's Θ(n²) messages make large sizes pointless to simulate; the
   quadratic shape is unambiguous long before that. *)
let swamping_limit = 1024

let sweep_cache : (bool, (int, Algorithm.t, Run.result option) Report.cells) Hashtbl.t =
  Hashtbl.create 2

(* The cache key ignores [jobs]: cell results are deterministic in the
   seeds, so the worker count cannot change what is memoised. *)
let sweep ~quick ~jobs =
  match Hashtbl.find_opt sweep_cache quick with
  | Some cells -> cells
  | None ->
    let cells =
      Report.grid ~jobs ~seeds:(seeds ~quick) (sizes ~quick) Registry.all (fun n algo seed ->
          if algo.Algorithm.name = "swamping" && n > swamping_limit then None
          else Some (Sweepcell.exec ~algo ~family ~n ~max_rounds:500 seed))
    in
    Hashtbl.replace sweep_cache quick cells;
    cells

(* (n, mean rounds) of the named algorithm at every size whose runs
   [ok] accepts *)
let rounds_curve cells ~ok name =
  List.filter_map
    (fun (n, by_algo) ->
      List.find_map
        (fun ((a : Algorithm.t), results) ->
          let results = List.filter_map Fun.id results in
          if a.Algorithm.name = name && ok results then
            Option.map
              (fun (s : Stats.summary) -> (float_of_int n, s.Stats.mean))
              (Sweepcell.stat Sweepcell.Rounds results)
          else None)
        by_algo)
    cells

let algo_names () = List.map (fun a -> a.Algorithm.name) Registry.all

let metric_table report ~quick ~jobs ~title ~id ~metric ~csv_name =
  let cells = sweep ~quick ~jobs in
  Report.section report ~id ~title;
  Report.table report
    ~csv:(csv_name, [ "n"; "algorithm" ] @ Sweepcell.csv_header [ metric ])
    ~header:(("n", Table.Right) :: List.map (fun a -> (a, Table.Right)) (algo_names ()))
    ~row:(fun n -> ([ string_of_int n ], [ string_of_int n ]))
    ~col:(fun (a : Algorithm.t) -> [ a.Algorithm.name ])
    ~cell:(fun _ _ results ->
      match List.filter_map Fun.id results with
      | [] -> ([ "—" ], List.map (fun _ -> "") (Sweepcell.csv_header [ metric ]))
      | results -> ([ Sweepcell.cell metric results ], Sweepcell.csv_fields [ metric ] results))
    cells

(* Least-squares shape check: which reference curve best explains the
   measured rounds of each algorithm? *)
let fit_summary report ~quick ~jobs =
  let cells = sweep ~quick ~jobs in
  let curves =
    [
      ("log log n", fun n -> Stats.loglog2 n);
      ("log n", fun n -> Stats.log2 n);
      ("log^2 n", fun n -> Stats.log2 n ** 2.0);
    ]
  in
  let all_completed = List.for_all (fun r -> r.Run.completed) in
  let fits =
    List.filter_map
      (fun a ->
        let points = rounds_curve cells ~ok:all_completed a in
        if List.length points < 4 then None
        else
          let xs = List.map fst points and ys = List.map snd points in
          Some (a, List.map (fun (name, f) -> (name, Stats.fit_residual ~xs ~ys ~f)) curves))
      (algo_names ())
  in
  Report.emit report "\nShape fit (normalised RMS residual of best c*f(n) fit; lower = better):\n";
  Report.table report
    ~header:
      (("algorithm", Table.Left)
      :: (List.map (fun (name, _) -> (name, Table.Right)) curves @ [ ("best", Table.Left) ]))
    ~row:(fun (a, _) -> ([ a ], []))
    ~col:(fun () -> [])
    ~cell:(fun (_, residuals) () _ ->
      let best =
        List.fold_left (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
          ("?", infinity) residuals
      in
      (List.map (fun (_, v) -> Printf.sprintf "%.3f" v) residuals @ [ fst best ], []))
    (List.map (fun fit -> (fit, [ ((), []) ])) fits)

let t1 report ~quick ~jobs =
  metric_table report ~quick ~jobs ~id:"T1"
    ~title:"Rounds to complete discovery vs n (k-out graphs, k=3)" ~metric:Sweepcell.Rounds
    ~csv_name:"t1_rounds_vs_n";
  fit_summary report ~quick ~jobs

let t2 report ~quick ~jobs =
  metric_table report ~quick ~jobs ~id:"T2" ~title:"Message complexity vs n"
    ~metric:Sweepcell.Messages ~csv_name:"t2_messages_vs_n"

let t3 report ~quick ~jobs =
  metric_table report ~quick ~jobs ~id:"T3" ~title:"Pointer complexity vs n"
    ~metric:Sweepcell.Pointers ~csv_name:"t3_pointers_vs_n"

let f1 report ~quick ~jobs =
  let cells = sweep ~quick ~jobs in
  Report.section report ~id:"F1" ~title:"Rounds vs n (the sub-logarithmic headline)";
  let series =
    List.filter_map
      (fun a ->
        match rounds_curve cells ~ok:(fun _ -> true) a with
        | [] -> None
        | points -> Some { Plot.label = a; points })
      [ "name_dropper"; "rand_gossip"; "min_pointer"; "hm" ]
  in
  Report.emit report
    (Plot.render ~logx:true ~title:"rounds to complete discovery" ~xlabel:"n" ~ylabel:"rounds"
       series)
