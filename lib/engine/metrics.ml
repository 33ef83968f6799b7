open Repro_util

type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable pointers : int;
  mutable bytes : int;
  mutable retransmits : int;
  mutable corrupt_frames : int;
  sent_per_round : Intvec.t;
  pointers_per_round : Intvec.t;
  bytes_per_round : Intvec.t;
}

let create () =
  {
    sent = 0;
    delivered = 0;
    dropped = 0;
    pointers = 0;
    bytes = 0;
    retransmits = 0;
    corrupt_frames = 0;
    sent_per_round = Intvec.create ();
    pointers_per_round = Intvec.create ();
    bytes_per_round = Intvec.create ();
  }

let begin_round t =
  Intvec.push t.sent_per_round 0;
  Intvec.push t.pointers_per_round 0;
  Intvec.push t.bytes_per_round 0

let bump vec delta =
  let i = Intvec.length vec - 1 in
  Intvec.set vec i (Intvec.get vec i + delta)

let record_send t ~pointers ~bytes =
  t.sent <- t.sent + 1;
  t.pointers <- t.pointers + pointers;
  t.bytes <- t.bytes + bytes;
  bump t.sent_per_round 1;
  bump t.pointers_per_round pointers;
  bump t.bytes_per_round bytes

let record_delivery t = t.delivered <- t.delivered + 1
let record_drop t = t.dropped <- t.dropped + 1

let absorb t ?(retransmits = 0) ?(corrupt_frames = 0) ~sent ~delivered ~dropped ~pointers ~bytes
    () =
  if
    sent < 0 || delivered < 0 || dropped < 0 || pointers < 0 || bytes < 0 || retransmits < 0
    || corrupt_frames < 0
  then invalid_arg "Metrics.absorb: negative totals";
  t.sent <- t.sent + sent;
  t.delivered <- t.delivered + delivered;
  t.dropped <- t.dropped + dropped;
  t.pointers <- t.pointers + pointers;
  t.bytes <- t.bytes + bytes;
  t.retransmits <- t.retransmits + retransmits;
  t.corrupt_frames <- t.corrupt_frames + corrupt_frames

let rounds t = Intvec.length t.sent_per_round
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let pointers_sent t = t.pointers
let bytes_sent t = t.bytes
let retransmits t = t.retransmits
let corrupt_frames t = t.corrupt_frames

let sent_series t = Intvec.to_array t.sent_per_round
let pointer_series t = Intvec.to_array t.pointers_per_round
let byte_series t = Intvec.to_array t.bytes_per_round

let max_messages_in_round t = Intvec.fold max 0 t.sent_per_round
