(* Medians, the process's peak RSS, and the result line. The result
   names each metric and gives its value only: run.py takes the units,
   and the order, from BENCHMARK.json. *)

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A whole number prints without a fraction; anything else with all the
   digits a double holds. JSON has no NaN: a value missing because a run
   failed (and the result says so) prints as 0. *)
let number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Human-readable lines, then the one-line JSON result. *)
let print ~correct ~attempted ~failed values =
  List.iter (fun (name, v) -> Printf.printf "%-28s %s\n" name (number v)) values;
  let values = List.map (fun (name, v) -> Printf.sprintf "%S: %s" name (number v)) values in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n%!" correct
    attempted failed (String.concat ", " values)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
