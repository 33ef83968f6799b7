open Repro_util

type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable pointers : int;
  mutable bytes : int;
  sent_per_round : Intvec.t;
}

let create () =
  { sent = 0; delivered = 0; dropped = 0; pointers = 0; bytes = 0; sent_per_round = Intvec.create () }

let begin_round t = Intvec.push t.sent_per_round 0

let record_send t ~pointers ~bytes =
  t.sent <- t.sent + 1;
  t.pointers <- t.pointers + pointers;
  t.bytes <- t.bytes + bytes;
  let i = Intvec.length t.sent_per_round - 1 in
  Intvec.set t.sent_per_round i (Intvec.get t.sent_per_round i + 1)

let record_delivery t = t.delivered <- t.delivered + 1
let record_drop t = t.dropped <- t.dropped + 1

let absorb t ~sent ~delivered ~dropped ~pointers ~bytes =
  if sent < 0 || delivered < 0 || dropped < 0 || pointers < 0 || bytes < 0 then
    invalid_arg "Metrics.absorb: negative totals";
  t.sent <- t.sent + sent;
  t.delivered <- t.delivered + delivered;
  t.dropped <- t.dropped + dropped;
  t.pointers <- t.pointers + pointers;
  t.bytes <- t.bytes + bytes

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let pointers_sent t = t.pointers
let bytes_sent t = t.bytes
let sent_series t = Intvec.to_array t.sent_per_round

let max_messages_in_round t =
  Intvec.fold (fun (acc : int) (k : int) -> if k > acc then k else acc) 0 t.sent_per_round
