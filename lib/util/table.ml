type align = Left | Right

type row = Cells of string list | Separator

type t = { headers : string list; aligns : align list; mutable rows : row list }

let create ~columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: row width differs from header";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

(* Display width in UTF-8 code points: "±" and "—" are one column
   each, though two and three bytes. *)
let chars s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad align width s =
  let n = chars s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match row with
            | Separator -> acc
            | Cells cells -> max acc (chars (List.nth cells i)))
          (chars h) rows)
      t.headers
  in
  let buf = Buffer.create 256 in
  let emit_row cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad (List.nth t.aligns i) (List.nth widths i) c))
      cells;
    Buffer.add_string buf " |\n"
  in
  let emit_rule () =
    Buffer.add_string buf "|";
    List.iteri
      (fun i w ->
        ignore i;
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_string buf "|")
      widths;
    Buffer.add_string buf "\n"
  in
  emit_row t.headers;
  emit_rule ();
  List.iter (function Cells cells -> emit_row cells | Separator -> emit_rule ()) rows;
  Buffer.contents buf

let cell_mean_std (s : Stats.summary) = Printf.sprintf "%.1f ± %.1f" s.Stats.mean s.Stats.stddev
