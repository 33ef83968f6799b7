open Repro_engine

type final = {
  ticks : int;
  sent : int;
  delivered : int;
  dropped : int;
  pointers : int;
  bytes : int;
  complete_tick : int option;
  decode_errors : int;
  retransmits : int;
  corrupt_frames : int;
}

let zero_final =
  {
    ticks = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    pointers = 0;
    bytes = 0;
    complete_tick = None;
    decode_errors = 0;
    retransmits = 0;
    corrupt_frames = 0;
  }

let add_final acc f =
  {
    acc with
    ticks = acc.ticks + f.ticks;
    sent = acc.sent + f.sent;
    delivered = acc.delivered + f.delivered;
    dropped = acc.dropped + f.dropped;
    pointers = acc.pointers + f.pointers;
    bytes = acc.bytes + f.bytes;
    decode_errors = acc.decode_errors + f.decode_errors;
    retransmits = acc.retransmits + f.retransmits;
    corrupt_frames = acc.corrupt_frames + f.corrupt_frames;
  }

let metrics_of_final t =
  let metrics = Metrics.create () in
  Metrics.absorb metrics ~retransmits:t.retransmits ~corrupt_frames:t.corrupt_frames ~sent:t.sent
    ~delivered:t.delivered ~dropped:t.dropped ~pointers:t.pointers ~bytes:t.bytes ();
  metrics

type msg = Event of float * Trace.event | Completed of float * int | Final of final

(* Times are printed with the same "%.12g" convention as the trace JSON
   so a re-serialised merged stream is byte-stable. *)
let time_str t = Printf.sprintf "%.12g" t

(* Id lists travel as one comma-joined word ("-" when empty) so event
   lines stay space-separated with a fixed arity per kind. *)
let ids_str ids =
  if Array.length ids = 0 then "-"
  else String.concat "," (Array.to_list (Array.map string_of_int ids))

(* The decoder accepts a line only in the form the encoders above print
   it, so every accepted line re-encodes to itself. An integer is the
   canonical decimal of a non-negative int: "0", or a non-zero digit
   and more digits. [int_of_string] alone would also take "01", "+5",
   "0x1f", "1_0" and negatives, which no encoder prints (the final
   report's "-1" for "never completed" is matched on its own). Raises
   [Failure] otherwise, like [int_of_string] on overflow. *)
let nat_of_string s =
  let digit c = c >= '0' && c <= '9' in
  if s <> "" && String.for_all digit s && (s.[0] <> '0' || String.length s = 1) then
    int_of_string s
  else failwith "Control: non-canonical integer"

(* A time must be finite and printed exactly as [time_str] prints it:
   "1e3", "1.50" and "nan" are refused. *)
let time_of_string s =
  match float_of_string_opt s with
  | Some t when Float.is_finite t && String.equal (time_str t) s -> t
  | _ -> failwith "Control: non-canonical time"

let parse_ids = function
  | "-" -> [||]
  | s -> Array.of_list (List.map nat_of_string (String.split_on_char ',' s))

let event_line ~time (ev : Trace.event) =
  let body =
    match ev with
    | Trace.Tick { node; count; _ } -> Printf.sprintf "tick %d %d" node count
    | Trace.Send { src; dst; pointers; bytes } ->
      Printf.sprintf "send %d %d %d %d" src dst pointers bytes
    | Trace.Deliver { src; dst } -> Printf.sprintf "deliver %d %d" src dst
    | Trace.Drop { src; dst; reason } ->
      Printf.sprintf "drop %d %d %s" src dst (Trace.drop_reason_name reason)
    | Trace.Join { node } -> Printf.sprintf "join %d" node
    | Trace.Crash { node } -> Printf.sprintf "crash %d" node
    | Trace.Genesis { node; ids } -> Printf.sprintf "genesis %d %s" node (ids_str ids)
    | Trace.Content { src; dst; ids } -> Printf.sprintf "content %d %d %s" src dst (ids_str ids)
    | Trace.Leave { node } -> Printf.sprintf "leave %d" node
    | Trace.Suspect { node; target } -> Printf.sprintf "suspect %d %d" node target
    | Trace.Retire { node; target } -> Printf.sprintf "retire %d %d" node target
    | Trace.Converge { node; epoch } -> Printf.sprintf "converge %d %d" node epoch
    | Trace.Complete -> "complete"
    | Trace.Give_up -> "give_up"
    | Trace.Round_begin { round } -> Printf.sprintf "round_begin %d" round
  in
  Printf.sprintf "E %s %s\n" (time_str time) body

let completed_line ~time ~tick = Printf.sprintf "C %s %d\n" (time_str time) tick

let final_line f =
  Printf.sprintf "F %d %d %d %d %d %d %d %d %d %d\n" f.ticks f.sent f.delivered f.dropped
    f.pointers f.bytes
    (match f.complete_tick with Some t -> t | None -> -1)
    f.decode_errors f.retransmits f.corrupt_frames

let halt_line = "H\n"

let parse_event ~time = function
  | [ "tick"; node; count ] ->
    Ok (Trace.Tick { node = nat_of_string node; time; count = nat_of_string count })
  | [ "send"; src; dst; pointers; bytes ] ->
    Ok
      (Trace.Send
         {
           src = nat_of_string src;
           dst = nat_of_string dst;
           pointers = nat_of_string pointers;
           bytes = nat_of_string bytes;
         })
  | [ "deliver"; src; dst ] ->
    Ok (Trace.Deliver { src = nat_of_string src; dst = nat_of_string dst })
  | [ "drop"; src; dst; name ] -> (
    let drop reason =
      Ok (Trace.Drop { src = nat_of_string src; dst = nat_of_string dst; reason })
    in
    match name with
    | "loss" -> drop Trace.Loss
    | "dead_dst" -> drop Trace.Dead_dst
    | "unjoined_dst" -> drop Trace.Unjoined_dst
    | "partitioned" -> drop Trace.Partitioned
    | "throttled" -> drop Trace.Throttled
    | _ -> Error (Printf.sprintf "unknown drop reason %S" name))
  | [ "join"; node ] -> Ok (Trace.Join { node = nat_of_string node })
  | [ "crash"; node ] -> Ok (Trace.Crash { node = nat_of_string node })
  | [ "genesis"; node; ids ] ->
    Ok (Trace.Genesis { node = nat_of_string node; ids = parse_ids ids })
  | [ "content"; src; dst; ids ] ->
    Ok
      (Trace.Content { src = nat_of_string src; dst = nat_of_string dst; ids = parse_ids ids })
  | [ "leave"; node ] -> Ok (Trace.Leave { node = nat_of_string node })
  | [ "suspect"; node; target ] ->
    Ok (Trace.Suspect { node = nat_of_string node; target = nat_of_string target })
  | [ "retire"; node; target ] ->
    Ok (Trace.Retire { node = nat_of_string node; target = nat_of_string target })
  | [ "converge"; node; epoch ] ->
    Ok (Trace.Converge { node = nat_of_string node; epoch = nat_of_string epoch })
  | [ "complete" ] -> Ok Trace.Complete
  | [ "give_up" ] -> Ok Trace.Give_up
  | [ "round_begin"; round ] -> Ok (Trace.Round_begin { round = nat_of_string round })
  | words -> Error (Printf.sprintf "unknown event %S" (String.concat " " words))

let parse line =
  let fail () = Error (Printf.sprintf "malformed control line %S" line) in
  let body =
    if String.ends_with ~suffix:"\n" line then String.sub line 0 (String.length line - 1)
    else line
  in
  try
    match String.split_on_char ' ' body with
    | "E" :: time :: rest ->
      let t = time_of_string time in
      Result.map (fun ev -> Event (t, ev)) (parse_event ~time:t rest)
    | [ "C"; time; tick ] -> Ok (Completed (time_of_string time, nat_of_string tick))
    | [
        "F"; ticks; sent; delivered; dropped; pointers; bytes; complete_tick; decode_errors;
        retransmits; corrupt_frames;
      ] ->
      let i = nat_of_string in
      Ok
        (Final
           {
             ticks = i ticks;
             sent = i sent;
             delivered = i delivered;
             dropped = i dropped;
             pointers = i pointers;
             bytes = i bytes;
             complete_tick = (if complete_tick = "-1" then None else Some (i complete_tick));
             decode_errors = i decode_errors;
             retransmits = i retransmits;
             corrupt_frames = i corrupt_frames;
           })
    | _ -> fail ()
  with Failure _ -> fail ()
