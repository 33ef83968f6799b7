(* The host's speed, from a fixed reference computation that calls nothing
   in the library. The VM this benchmark runs on changes speed by up to
   about 2x, in phases that last from seconds to minutes, so a raw wall
   time says as much about the host as about the program. Timing the
   reference right before and right after a call into the library, and
   dividing, gives the call's time at a fixed host speed: [scale] reports
   it in seconds at the speed at which one kernel run takes [nominal]
   seconds. A change to the library moves the scaled time; a change of the
   host's speed moves both timings and mostly cancels. *)

open Bigarray

let nominal = 0.006
let walk_size = 1 lsl 15
let stream_size = 1 lsl 22

(* A 256 KiB table of indices that stays in the core's caches, and a
   32 MiB array that does not; both outside the OCaml heap, so the
   collector never scans them, and both written once, so they are
   resident from the start. *)
let table =
  Array1.init int c_layout walk_size (fun i -> ((i * 0x9E3779B1) + 0x7F4A7C15) land (walk_size - 1))

let stream = Array1.init int c_layout stream_size Fun.id

(* Megabytes the two arrays keep resident, which the process's peak RSS
   leaves out. *)
let resident_mb = float_of_int (8 * (walk_size + stream_size)) /. 1048576.0

(* Two halves, because the host's slow phases slow the core and main
   memory by different amounts, and the program needs both: a walk whose
   every read picks the next index, as a heap traversal does, and a
   sequential read of the 32 MiB array. It allocates nothing, so it
   leaves the GC counts of a sample alone. *)
let kernel () =
  let j = ref 0 and acc = ref 0 in
  for i = 1 to 500_000 do
    let v = Array1.unsafe_get table !j in
    acc := (!acc * 31) + v;
    j := (v + i) land (walk_size - 1)
  done;
  for i = 0 to stream_size - 1 do
    acc := !acc + Array1.unsafe_get stream i
  done;
  !acc

(* Seconds one kernel run takes now: the median of three back-to-back
   runs, so that one interruption does not count. *)
let measure () =
  let once () =
    let t0 = Spans.now () in
    ignore (Sys.opaque_identity (kernel ()) : int);
    Spans.now () -. t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* [seconds] timed between reference timings [before] and [after], in
   seconds at the nominal speed. *)
let scale seconds ~before ~after = seconds *. nominal *. 2.0 /. (before +. after)
