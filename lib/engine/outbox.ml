(* Grow-only struct-of-arrays message buffer. The engine reuses one
   instance across every round of a run: [clear] just resets the length,
   so the steady state pushes into already-allocated arrays and the send
   phase allocates nothing.

   A slot's source and destination share one int word: the destination
   in bits 0-30, the source in bits 31-61. Cancelling a slot sets the
   sign bit, so a live word is non-negative and a cancelled one keeps
   its ids. One word per slot instead of two pays for the engine's
   per-round delivery index.

   The message array is seeded lazily from the first pushed message —
   ['msg] has no fabricable dummy value — and deliberately keeps stale
   message references after [clear] until they are overwritten by later
   pushes. The retention is bounded by the high-water mark of a single
   round and the payloads are small shared values, so scrubbing would
   cost more than it saves. *)

type 'msg t = {
  mutable routes : int array;  (* (src lsl 31) lor dst, min_int set when cancelled *)
  mutable msgs : 'msg array;
  mutable len : int;
}

let max_id = 0x7fff_ffff

let create () = { routes = [||]; msgs = [||]; len = 0 }

let length t = t.len
let clear t = t.len <- 0
let capacity t = Array.length t.routes

let grow t msg =
  let cap = Array.length t.routes in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let routes = Array.make cap' 0 in
  let msgs = Array.make cap' msg in
  Repro_util.Intvec.blit_ints t.routes 0 routes 0 t.len;
  Array.blit t.msgs 0 msgs 0 t.len;
  t.routes <- routes;
  t.msgs <- msgs

let push t ~src ~dst msg =
  (* one test catches a negative id and one past [max_id] *)
  if (src lor dst) lsr 31 <> 0 then invalid_arg "Outbox.push: id out of range";
  if t.len = Array.length t.routes then grow t msg;
  t.routes.(t.len) <- (src lsl 31) lor dst;
  t.msgs.(t.len) <- msg;
  t.len <- t.len + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Outbox: slot out of range"

let dst t i =
  check t i;
  let e = t.routes.(i) in
  if e < 0 then -1 else e land max_id

let src t i =
  check t i;
  (t.routes.(i) lsr 31) land max_id

let msg t i =
  check t i;
  t.msgs.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    let e = t.routes.(i) in
    if e >= 0 then f (e lsr 31) (e land max_id) t.msgs.(i)
  done

let filter t keep =
  for i = 0 to t.len - 1 do
    let e = t.routes.(i) in
    if e >= 0 && not (keep (e lsr 31) (e land max_id) t.msgs.(i)) then t.routes.(i) <- e lor min_int
  done
