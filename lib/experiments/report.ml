open Repro_util

(* A CSV waiting for its "(data: …)" note: name, header, lines in
   reverse order. *)
type pending = { name : string; header : string list; mutable lines : string list list }

type t = { results_dir : string; buf : Buffer.t; mutable pending : pending list }

let create ~results_dir = { results_dir; buf = Buffer.create 4096; pending = [] }

let output t s =
  print_string s;
  flush stdout;
  Buffer.add_string t.buf s

let flush_data t =
  List.iter
    (fun p ->
      let path = Filename.concat t.results_dir (p.name ^ ".csv") in
      Csvio.write ~path ~header:p.header ~rows:(List.rev p.lines);
      output t (Printf.sprintf "(data: %s)\n" path))
    (List.rev t.pending);
  t.pending <- []

let emit t s =
  flush_data t;
  output t s

let section t ~id ~title = emit t (Printf.sprintf "\n## %s — %s\n\n" id title)

let csv t ~name ~header ~rows =
  match List.find_opt (fun p -> p.name = name) t.pending with
  | Some p -> p.lines <- List.rev_append rows p.lines
  | None -> t.pending <- { name; header; lines = List.rev rows } :: t.pending

let captured t =
  flush_data t;
  Buffer.contents t.buf

type ('r, 'c, 'a) cells = ('r * ('c * 'a list) list) list

let grid ?(jobs = Pool.default_jobs ()) ~seeds rows cols measure =
  let items =
    List.concat_map
      (fun r -> List.concat_map (fun c -> List.map (fun seed -> (r, c, seed)) seeds) cols)
      rows
  in
  let results = Array.of_list (Pool.map ~jobs (fun (r, c, seed) -> measure r c seed) items) in
  let ncols = List.length cols and nseeds = List.length seeds in
  List.mapi
    (fun i r ->
      ( r,
        List.mapi
          (fun j c -> (c, List.init nseeds (fun k -> results.((((i * ncols) + j) * nseeds) + k))))
          cols ))
    rows

let table t ?csv:data ~header ~row ~col ~cell ?(rule = fun _ -> false) ?(notes = "") cells =
  let tbl = Table.create ~columns:header in
  let lines =
    List.concat_map
      (fun (r, by_col) ->
        let label, key = row r in
        let shown, lines =
          List.split
            (List.map
               (fun (c, results) ->
                 let shown, fields = cell r c results in
                 (shown, key @ col c @ fields))
               by_col)
        in
        if rule r then Table.add_separator tbl;
        Table.add_row tbl (label @ List.concat shown);
        lines)
      cells
  in
  output t (Table.render tbl);
  output t notes;
  Option.iter (fun (name, header) -> csv t ~name ~header ~rows:lines) data
