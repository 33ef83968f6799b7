(* Tests for the reporting helpers: ASCII tables, plots, CSV files. *)

open Repro_util

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "line count" 4 (List.length lines);
  Alcotest.(check string) "header" "| name  | value |" (List.nth lines 0);
  Alcotest.(check string) "separator" "|-------|-------|" (List.nth lines 1);
  Alcotest.(check string) "left align" "| alpha |     1 |" (List.nth lines 2);
  Alcotest.(check string) "right align" "| b     |    22 |" (List.nth lines 3)

let test_table_pads_characters () =
  (* "±" is two bytes and "—" three, but one column each *)
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "a"; "4.5 ± 0.7" ];
  Table.add_row t [ "—"; "4.0" ];
  let chars s = List.length (List.filter (fun c -> Char.code c land 0xC0 <> 0x80) (List.of_seq (String.to_seq s))) in
  let lines = String.split_on_char '\n' (Table.render t) |> List.filter (fun l -> l <> "") in
  Alcotest.(check (list int)) "every line as wide as the header" [ 20; 20; 20; 20 ]
    (List.map chars lines)

let test_table_width_check () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  let s = Stats.summarize [ 1.0; 3.0 ] in
  Alcotest.(check string) "mean±std" "2.0 ± 1.4" (Table.cell_mean_std s)

let test_plot_contains_series () =
  let rendered =
    Plot.render ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [
        { Plot.label = "one"; points = [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] };
        { Plot.label = "two"; points = [ (1.0, 2.0); (2.0, 2.0) ] };
      ]
  in
  Alcotest.(check bool) "title present" true (String.length rendered > 0);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "legend one" true (contains rendered "[*] one");
  Alcotest.(check bool) "legend two" true (contains rendered "[o] two");
  Alcotest.(check bool) "glyphs plotted" true (contains rendered "*")

let test_plot_empty () =
  let rendered = Plot.render ~title:"empty" ~xlabel:"x" ~ylabel:"y" [] in
  Alcotest.(check bool) "placeholder" true
    (String.length rendered > 0
    && String.sub rendered 0 5 = "empty")

let test_plot_log_drops_nonpositive () =
  (* must not raise on zero/negative points under log axes *)
  let rendered =
    Plot.render ~logx:true ~logy:true ~title:"log" ~xlabel:"x" ~ylabel:"y"
      [ { Plot.label = "s"; points = [ (0.0, 1.0); (-1.0, 2.0); (2.0, 8.0); (4.0, 16.0) ] } ]
  in
  Alcotest.(check bool) "rendered" true (String.length rendered > 0)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_csv_escape () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "repro_csv_escape.csv" in
  let line row =
    Csvio.write ~path ~header:row ~rows:[];
    let s = read_file path in
    String.sub s 0 (String.length s - 1)
  in
  Alcotest.(check string) "plain" "abc" (line [ "abc" ]);
  Alcotest.(check string) "comma" "\"a,b\"" (line [ "a,b" ]);
  Alcotest.(check string) "quote" "\"a\"\"b\"" (line [ "a\"b" ]);
  Alcotest.(check string) "newline" "\"a\nb\"" (line [ "a\nb" ]);
  Alcotest.(check string) "row" "a,\"b,c\",d" (line [ "a"; "b,c"; "d" ]);
  Sys.remove path

let test_csv_write () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro_csv_test" in
  let path = Filename.concat dir "out.csv" in
  Csvio.write ~path ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ];
  Alcotest.(check string) "contents" "a,b\n1,2\n3,4\n" (read_file path);
  Csvio.write ~path ~header:[ "x" ] ~rows:[];
  Alcotest.(check string) "truncated rewrite" "x\n" (read_file path)

let () =
  Alcotest.run "reporting"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width check" `Quick test_table_width_check;
          Alcotest.test_case "pads characters" `Quick test_table_pads_characters;
          Alcotest.test_case "cell formats" `Quick test_table_cells;
        ] );
      ( "plot",
        [
          Alcotest.test_case "series and legend" `Quick test_plot_contains_series;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "log axes drop nonpositive" `Quick test_plot_log_drops_nonpositive;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escape;
          Alcotest.test_case "write" `Quick test_csv_write;
        ] );
    ]
