(* One trace event's JSON line as the buffer sink writes it, newline
   dropped: the spelling the CLI's trace files hold. *)

open Repro_engine

let event =
  let buf = Buffer.create 128 in
  let sink = Trace.buffer buf in
  fun ev ->
    Buffer.clear buf;
    Trace.emit sink ev;
    Buffer.sub buf 0 (Buffer.length buf - 1)
