(* Grow-only struct-of-arrays message buffer. The engine reuses one
   instance across every round of a run: [clear] just resets the length,
   so the steady state pushes into already-allocated arrays and the send
   phase allocates nothing.

   The message array is seeded lazily from the first pushed message —
   ['msg] has no fabricable dummy value — and deliberately keeps stale
   message references after [clear] until they are overwritten by later
   pushes. The retention is bounded by the high-water mark of a single
   round and the payloads are small shared values, so scrubbing would
   cost more than it saves. *)

type 'msg t = {
  mutable srcs : int array;
  mutable dsts : int array;
  mutable msgs : 'msg array;
  mutable len : int;
}

let create () = { srcs = [||]; dsts = [||]; msgs = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let clear t = t.len <- 0
let capacity t = Array.length t.srcs

let grow t msg =
  let cap = Array.length t.srcs in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let srcs = Array.make cap' 0 in
  let dsts = Array.make cap' 0 in
  let msgs = Array.make cap' msg in
  Array.blit t.srcs 0 srcs 0 t.len;
  Array.blit t.dsts 0 dsts 0 t.len;
  Array.blit t.msgs 0 msgs 0 t.len;
  t.srcs <- srcs;
  t.dsts <- dsts;
  t.msgs <- msgs

let push t ~src ~dst msg =
  if t.len = Array.length t.srcs then grow t msg;
  t.srcs.(t.len) <- src;
  t.dsts.(t.len) <- dst;
  t.msgs.(t.len) <- msg;
  t.len <- t.len + 1

(* a cancelled message keeps its slot, marked by a negative destination *)
let iter t f =
  for i = 0 to t.len - 1 do
    let dst = t.dsts.(i) in
    if dst >= 0 then f t.srcs.(i) dst t.msgs.(i)
  done

let filter t keep =
  for i = 0 to t.len - 1 do
    let dst = t.dsts.(i) in
    if dst >= 0 && not (keep t.srcs.(i) dst t.msgs.(i)) then t.dsts.(i) <- -1
  done
