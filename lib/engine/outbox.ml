(* Grow-only struct-of-arrays message buffer in fixed segments. The
   engine reuses one instance across every round of a run: [clear] just
   resets the length, so the steady state pushes into already-allocated
   segments and the send phase allocates nothing.

   Storage: slot [i] lives in segment [i lsr seg_bits] at offset
   [i land seg_mask]; a segment is a pair of per-slot arrays, one in
   [routes] and one in [msgs], each indexed by the segment directory.
   Segment 0 doubles from 64 slots up to [seg_size], copying as it
   grows, so a small run allocates what one doubling array would. Every
   later segment is a block of [seg_size] slots, allocated once and
   never copied; only the directory (one word per segment) doubles.
   A buffer whose fullest round held m > [seg_size] slots therefore
   holds m rounded up to whole segments: at most [seg_size - 1] spare,
   not the up-to-m spare of a doubling array, and it allocated that
   capacity plus segment 0's doubling chain over the run, not about
   twice its doubled capacity. Below one segment it grows as a doubling
   array did.

   A slot's source and destination share one int word: the destination
   in bits 0-30, the source in bits 31-61. Cancelling a slot sets the
   sign bit, so a live word is non-negative and a cancelled one keeps
   its ids. One word per slot instead of two pays for the engine's
   per-round delivery index.

   Segment 0's message array is seeded from the message whose push
   grows it — ['msg] has no fabricable dummy value — and each later
   segment starts as a copy of segment 0. Every segment keeps stale
   message references after [clear] until later pushes overwrite them.
   The retention is bounded by the capacity above and the payloads are
   small shared values, so scrubbing would cost more than it saves. *)

(* 2^12 slots (two 32 KB arrays) per segment. perfbench's
   paper-table-1k (seed 1, 2 cores) read 8.78 M major words a run with
   the doubling buffer and 5.79 / 5.88 / 6.03 / 6.20 M with segments of
   2^10 / 2^12 / 2^14 / 2^16 slots: a smaller segment rounds a round
   up less and shortens segment 0's doubling chain. 2^12 is within 2%
   of 2^10 and keeps the directory at most 256 words, a minor-heap
   block, up to 2^20 slots in a round. EXPERIMENTS.md "Segmented
   outboxes". *)
let seg_bits = 12
let seg_size = 1 lsl seg_bits
let seg_mask = seg_size - 1

type 'msg t = {
  mutable routes : int array array;  (* (src lsl 31) lor dst, min_int set when cancelled *)
  mutable msgs : 'msg array array;
  mutable cap : int;
  mutable len : int;
}

let max_id = 0x7fff_ffff

(* a directory of one empty segment 0, so growth never special-cases
   an empty buffer *)
let create () = { routes = Array.make 1 [||]; msgs = Array.make 1 [||]; cap = 0; len = 0 }

let length t = t.len
let clear t = t.len <- 0
let capacity t = t.cap

(* Only called on a full buffer, so [t.len = t.cap]. A later segment's
   message array is a copy of segment 0, not [Array.make seg_size msg]:
   a block that size goes straight to the major heap, and [Array.make]
   seeded with a young message first runs a minor collection to promote
   the seed, which would be one collection per segment. The copy's
   references are stale slots like any other. *)
let grow t msg =
  let cap = t.cap in
  if cap < seg_size then begin
    let cap' = if cap = 0 then 64 else 2 * cap in
    let routes = Array.make cap' 0 and msgs = Array.make cap' msg in
    Repro_util.Intvec.blit_ints t.routes.(0) 0 routes 0 cap;
    Array.blit t.msgs.(0) 0 msgs 0 cap;
    t.routes.(0) <- routes;
    t.msgs.(0) <- msgs;
    t.cap <- cap'
  end
  else begin
    let k = cap lsr seg_bits in
    if k = Array.length t.routes then begin
      let routes = Array.make (2 * k) [||] and msgs = Array.make (2 * k) [||] in
      Array.blit t.routes 0 routes 0 k;
      Array.blit t.msgs 0 msgs 0 k;
      t.routes <- routes;
      t.msgs <- msgs
    end;
    t.routes.(k) <- Array.make seg_size 0;
    t.msgs.(k) <- Array.copy t.msgs.(0);
    t.cap <- cap + seg_size
  end

let push t ~src ~dst msg =
  (* one test catches a negative id and one past [max_id] *)
  if (src lor dst) lsr 31 <> 0 then invalid_arg "Outbox.push: id out of range";
  let i = t.len in
  if i = t.cap then grow t msg;
  let k = i lsr seg_bits and o = i land seg_mask in
  t.routes.(k).(o) <- (src lsl 31) lor dst;
  t.msgs.(k).(o) <- msg;
  t.len <- i + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Outbox: slot out of range"

let route t i = t.routes.(i lsr seg_bits).(i land seg_mask)

let dst t i =
  check t i;
  let e = route t i in
  if e < 0 then -1 else e land max_id

let src t i =
  check t i;
  (route t i lsr 31) land max_id

let msg t i =
  check t i;
  t.msgs.(i lsr seg_bits).(i land seg_mask)

(* slots in segment [k]: a full segment's worth, less for the last *)
let segment_length t k =
  let left = t.len - (k lsl seg_bits) in
  if left > seg_size then seg_size else left

let iter t f =
  for k = 0 to ((t.len + seg_mask) lsr seg_bits) - 1 do
    let routes = t.routes.(k) and msgs = t.msgs.(k) in
    for o = 0 to segment_length t k - 1 do
      let e = routes.(o) in
      if e >= 0 then f (e lsr 31) (e land max_id) msgs.(o)
    done
  done

let filter t keep =
  for k = 0 to ((t.len + seg_mask) lsr seg_bits) - 1 do
    let routes = t.routes.(k) and msgs = t.msgs.(k) in
    for o = 0 to segment_length t k - 1 do
      let e = routes.(o) in
      if e >= 0 && not (keep (e lsr 31) (e land max_id) msgs.(o)) then routes.(o) <- e lor min_int
    done
  done
