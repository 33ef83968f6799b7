(* Smoke and unit tests for the experiment harness. *)

open Repro_util
open Repro_graph
open Repro_discovery
open Repro_experiments

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro_exp_%d" (Unix.getpid ()))
  in
  Csvio.ensure_dir dir;
  dir

let test_sweepcell_aggregates () =
  let results =
    List.map
      (Sweepcell.exec ~algo:Hm_gossip.algorithm ~family:(Generate.K_out 3) ~n:64)
      [ 1; 2; 3 ]
  in
  (match Sweepcell.stat Sweepcell.Rounds results with
  | None -> Alcotest.fail "expected rounds summary"
  | Some s -> Alcotest.(check int) "three samples" 3 s.Stats.count);
  Alcotest.(check (list string)) "csv fields" [ "3"; "3" ]
    (List.filteri (fun i _ -> i < 2) (Sweepcell.csv_fields [ Sweepcell.Rounds ] results))

let test_sweepcell_dnf () =
  let results =
    [
      Sweepcell.exec
        ~algo:(Hm_gossip.with_variant ~broadcast:Hm_gossip.Off ())
        ~family:(Generate.K_out 3) ~n:64 ~max_rounds:50 1;
    ]
  in
  Alcotest.(check string) "cell renders DNF" "DNF" (Sweepcell.cell Sweepcell.Rounds results);
  Alcotest.(check string) "messages DNF" "DNF" (Sweepcell.cell Sweepcell.Messages results);
  Alcotest.(check (list string)) "csv marks DNF" [ "1"; "0"; "DNF"; "" ]
    (Sweepcell.csv_fields [ Sweepcell.Rounds ] results)

let test_of_seed_matches_cli_convention () =
  let a = Generate.of_seed (Generate.K_out 3) ~n:50 ~seed:5 in
  let rng = Rng.substream ~seed:5 ~index:0x70b0 in
  let b = Generate.build (Generate.K_out 3) ~rng ~n:50 in
  Alcotest.(check bool) "same topology" true (Topology.edges a = Topology.edges b)

let test_crash_fault_shape () =
  let f =
    Repro_engine.Fault.with_random_crashes Repro_engine.Fault.none ~seed:1 ~n:100 ~count:10
  in
  let crashes = Repro_engine.Fault.crashed_nodes f in
  Alcotest.(check int) "ten victims" 10 (List.length crashes);
  List.iter
    (fun (node, round) ->
      if node < 0 || node >= 100 then Alcotest.failf "victim out of range: %d" node;
      if round < 1 || round > 5 then Alcotest.failf "crash round out of window: %d" round)
    crashes;
  Alcotest.(check int) "count 0 means no faults" 0
    (List.length
       (Repro_engine.Fault.crashed_nodes
          (Repro_engine.Fault.with_random_crashes Repro_engine.Fault.none ~seed:1 ~n:100
             ~count:0)))

let test_approx_int () =
  Alcotest.(check string) "small" "950" (Sweepcell.approx_int 950.0);
  Alcotest.(check string) "k" "2.1k" (Sweepcell.approx_int 2100.0);
  Alcotest.(check string) "10k+" "37k" (Sweepcell.approx_int 37000.0);
  Alcotest.(check string) "M" "3.5M" (Sweepcell.approx_int 3_500_000.0);
  Alcotest.(check string) "G" "2.10G" (Sweepcell.approx_int 2.1e9)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_report_capture_and_csv () =
  let dir = tmpdir () in
  let r = Report.create ~results_dir:dir in
  Report.section r ~id:"TX" ~title:"smoke";
  Report.emit r "hello\n";
  Report.csv r ~name:"smoke" ~header:[ "a" ] ~rows:[ [ "1" ]; [ "2" ] ];
  let captured = Report.captured r in
  Alcotest.(check string) "section, text, then the data note"
    (Printf.sprintf "\n## TX — smoke\n\nhello\n(data: %s)\n" (Filename.concat dir "smoke.csv"))
    captured;
  Alcotest.(check string) "csv" "a\n1\n2\n" (read_file (Filename.concat dir "smoke.csv"))

let test_report_table () =
  (* a 2 x 2 grid with one DNF cell; a second table naming the same CSV
     joins its file, and the one data note follows the next text *)
  let dir = tmpdir () in
  let r = Report.create ~results_dir:dir in
  let measure row col seed = if row = "b" && col = 2 then None else Some (col * seed) in
  let csv = ("grid", [ "row"; "col"; "sum" ]) in
  let table rows =
    Report.table r ~csv
      ~header:[ ("row", Table.Left); ("c1", Table.Right); ("c2", Table.Right) ]
      ~row:(fun row -> ([ row ], [ row ]))
      ~col:(fun col -> [ string_of_int col ])
      ~cell:(fun _ _ results ->
        let shown =
          match List.filter_map Fun.id results with
          | [] -> "DNF"
          | xs -> string_of_int (List.fold_left ( + ) 0 xs)
        in
        ([ shown ], [ shown ]))
      ~notes:"note\n"
      (Report.grid ~jobs:2 ~seeds:[ 1; 2 ] rows [ 1; 2 ] measure)
  in
  table [ "a"; "b" ];
  table [ "c" ];
  Report.emit r "after\n";
  Alcotest.(check string) "markdown"
    (String.concat ""
       [
         "| row | c1 |  c2 |\n";
         "|-----|----|-----|\n";
         "| a   |  3 |   6 |\n";
         "| b   |  3 | DNF |\n";
         "note\n";
         "| row | c1 | c2 |\n";
         "|-----|----|----|\n";
         "| c   |  3 |  6 |\n";
         "note\n";
         Printf.sprintf "(data: %s)\n" (Filename.concat dir "grid.csv");
         "after\n";
       ])
    (Report.captured r);
  Alcotest.(check string) "csv" "row,col,sum\na,1,3\na,2,6\nb,1,3\nb,2,DNF\nc,1,3\nc,2,6\n"
    (read_file (Filename.concat dir "grid.csv"))

let test_report_grid_order () =
  (* cells come back in (row, column, seed) order at any [jobs] *)
  let measure row col seed = (row, col, seed) in
  let at jobs = Report.grid ~jobs ~seeds:[ 1; 2 ] [ "x"; "y"; "z" ] [ 10; 20 ] measure in
  let expected =
    List.map
      (fun row ->
        (row, List.map (fun col -> (col, [ (row, col, 1); (row, col, 2) ])) [ 10; 20 ]))
      [ "x"; "y"; "z" ]
  in
  Alcotest.(check bool) "jobs=1" true (at 1 = expected);
  Alcotest.(check bool) "jobs=3" true (at 3 = expected)

let test_suite_ids () =
  Alcotest.(check (list string)) "experiment ids"
    [ "T1"; "T2"; "T3"; "F1"; "T4"; "F3"; "T5"; "T6"; "T7"; "T8"; "T9"; "T10"; "T11"; "T12"; "T13"; "T14"; "F2"; "F4"; "F5" ]
    (Suite.ids ())

let test_suite_unknown_id () =
  match Suite.run ~only:[ "T99" ] ~results_dir:(tmpdir ()) () with
  | Ok () -> Alcotest.fail "expected error for unknown id"
  | Error msg -> Alcotest.(check bool) "mentions the id" true (String.length msg > 0)

let test_jobs_determinism () =
  (* the tentpole guarantee: a parallel suite run produces byte-identical
     output. Run the same selection twice into the same directory (the
     report embeds the results path) with jobs=1 and jobs=4 and compare
     bytes. T5, F3, T8 and T11 are used because they are cheap and,
     unlike T1-T3/F1, not served from the memoised scaling sweep on the
     second run; T11 measures hand-built instances rather than
     Sweepcell runs. *)
  let dir = tmpdir () in
  let files =
    [ "report.md"; "t5_loss.csv"; "f3_path_rounds.csv"; "t8_wire_bytes.csv"; "t11_termination.csv" ]
  in
  let snapshot jobs =
    match Suite.run ~only:[ "T5"; "F3"; "T8"; "T11" ] ~quick:true ~jobs ~results_dir:dir () with
    | Error msg -> Alcotest.fail msg
    | Ok () -> List.map (fun f -> read_file (Filename.concat dir f)) files
  in
  let seq = snapshot 1 in
  let par = snapshot 4 in
  List.iter2
    (fun f (a, b) ->
      if a <> b then Alcotest.failf "%s differs between jobs=1 and jobs=4" f)
    files (List.combine seq par)

let test_suite_quick_selection () =
  (* run the two cheapest entries end-to-end in quick mode *)
  let dir = tmpdir () in
  match Suite.run ~only:[ "F4"; "T7" ] ~quick:true ~results_dir:dir () with
  | Error msg -> Alcotest.fail msg
  | Ok () ->
    Alcotest.(check bool) "report written" true
      (Sys.file_exists (Filename.concat dir "report.md"));
    Alcotest.(check bool) "t7 csv" true (Sys.file_exists (Filename.concat dir "t7_ablations.csv"));
    Alcotest.(check bool) "f4 csv" true
      (Sys.file_exists (Filename.concat dir "f4_msgs_per_round.csv"))

let () =
  Alcotest.run "experiments"
    [
      ( "sweepcell",
        [
          Alcotest.test_case "aggregates" `Quick test_sweepcell_aggregates;
          Alcotest.test_case "DNF rendering" `Quick test_sweepcell_dnf;
          Alcotest.test_case "topology convention" `Quick test_of_seed_matches_cli_convention;
          Alcotest.test_case "crash fault shape" `Quick test_crash_fault_shape;
          Alcotest.test_case "approx_int" `Quick test_approx_int;
        ] );
      ( "report",
        [
          Alcotest.test_case "capture and csv" `Quick test_report_capture_and_csv;
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "grid order" `Quick test_report_grid_order;
        ] );
      ( "suite",
        [
          Alcotest.test_case "ids" `Quick test_suite_ids;
          Alcotest.test_case "unknown id" `Quick test_suite_unknown_id;
          Alcotest.test_case "quick selection runs" `Slow test_suite_quick_selection;
          Alcotest.test_case "jobs determinism" `Slow test_jobs_determinism;
        ] );
    ]
