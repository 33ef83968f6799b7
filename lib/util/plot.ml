type series = { label : string; points : (float * float) list }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '='; '~' |]

let transform log v = if log then Stats.log2 v else v

(* the grid, in characters *)
let width = 64
let height = 18

let render ?(logx = false) ?(logy = false) ~title ~xlabel ~ylabel series_list =
  let usable =
    List.map
      (fun s ->
        let pts =
          List.filter (fun (x, y) -> (not logx || x > 0.0) && (not logy || y > 0.0)) s.points
        in
        { s with points = pts })
      series_list
  in
  let all_points = List.concat_map (fun s -> s.points) usable in
  if all_points = [] then Printf.sprintf "%s\n  (no plottable points)\n" title
  else begin
    (* All geometry below happens in transformed (plot-space) coordinates. *)
    let xs = List.map (fun (x, _) -> transform logx x) all_points in
    let ys = List.map (fun (_, y) -> transform logy y) all_points in
    let xmin = List.fold_left Float.min infinity xs in
    let xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = List.fold_left Float.min infinity ys in
    let ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    let cell_of x y =
      let gx = int_of_float (Float.round ((x -. xmin) /. xspan *. float_of_int (width - 1))) in
      let gy = int_of_float (Float.round ((y -. ymin) /. yspan *. float_of_int (height - 1))) in
      (height - 1 - max 0 (min (height - 1) gy), max 0 (min (width - 1) gx))
    in
    let draw_series idx s =
      let glyph = glyphs.(idx mod Array.length glyphs) in
      let sorted =
        List.sort (fun (a, _) (b, _) -> compare a b) s.points
        |> List.map (fun (x, y) -> (transform logx x, transform logy y))
      in
      (* Faint interpolation dots between consecutive points so curves
         read as lines rather than isolated markers. *)
      let rec segments = function
        | (x1, y1) :: ((x2, y2) :: _ as rest) ->
          let steps = 8 in
          for k = 1 to steps - 1 do
            let f = float_of_int k /. float_of_int steps in
            let row, col = cell_of (x1 +. (f *. (x2 -. x1))) (y1 +. (f *. (y2 -. y1))) in
            if grid.(row).(col) = ' ' then grid.(row).(col) <- '.'
          done;
          segments rest
        | _ -> ()
      in
      segments sorted;
      List.iter
        (fun (x, y) ->
          let row, col = cell_of x y in
          if grid.(row).(col) = ' ' || grid.(row).(col) = '.' then grid.(row).(col) <- glyph)
        sorted
    in
    List.iteri draw_series usable;
    let buf = Buffer.create 2048 in
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    let fmt_tick v log =
      if log then Printf.sprintf "%.3g" (Float.pow 2.0 v) else Printf.sprintf "%.3g" v
    in
    let ylab_top = fmt_tick ymax logy in
    let ylab_bot = fmt_tick ymin logy in
    let margin =
      List.fold_left max 0
        (List.map String.length [ ylab_top; ylab_bot; ylabel ])
    in
    for row = 0 to height - 1 do
      let label =
        if row = 0 then ylab_top
        else if row = height - 1 then ylab_bot
        else if row = height / 2 then ylabel
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "%*s |" margin label);
      Buffer.add_string buf (String.init width (fun c -> grid.(row).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make margin ' ');
    Buffer.add_string buf " +";
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    let left_tick = fmt_tick xmin logx and right_tick = fmt_tick xmax logx in
    let gap = max 1 (width - String.length left_tick - String.length right_tick) in
    let xlabel_line =
      let pad_total = max 0 (gap - String.length xlabel) in
      let lpad = pad_total / 2 in
      String.make lpad ' ' ^ xlabel ^ String.make (max 0 (pad_total - lpad)) ' '
    in
    Buffer.add_string buf
      (Printf.sprintf "%*s  %s%s%s\n" margin "" left_tick xlabel_line right_tick);
    Buffer.add_string buf "legend:";
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf " [%c] %s" glyphs.(i mod Array.length glyphs) s.label))
      usable;
    Buffer.add_char buf '\n';
    if logx then Buffer.add_string buf "(x axis: log2 scale)\n";
    if logy then Buffer.add_string buf "(y axis: log2 scale)\n";
    Buffer.contents buf
  end
