(* xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64. Chosen over
   Stdlib.Random for cross-version reproducibility: experiment outputs are
   a pure function of the integer seed.

   The 64-bit state words are stored as (hi, lo) pairs of 32-bit halves in
   tagged OCaml ints rather than as [int64] fields: without flambda every
   [Int64] operation boxes its result, which made each draw allocate ~20
   minor words — enough to dominate the allocation profile of a whole
   simulation. All arithmetic below is exact 64-bit arithmetic carried out
   on the halves, so the output stream is bit-identical to the boxed
   implementation. *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* last output word, written by [next] (avoids returning a pair) *)
  mutable rh : int;
  mutable rl : int;
}

let m32 = 0xFFFFFFFF

(* low 32 bits of (a * b) where a, b < 2^32: split [a] into 16-bit limbs
   so no intermediate product exceeds 2^48 *)
let mul_lo32 a b = (((a land 0xFFFF) * b) + ((((a lsr 16) * b) land 0xFFFF) lsl 16)) land m32

(* 64-bit scratch word for the (cold) seeding path: carrying (hi, lo)
   pairs through continuations or tuples would allocate per step *)
type w64 = { mutable wh : int; mutable wl : int }

(* w <- low 64 bits of (ah:al) * (bh:bl) *)
let mul64_into w ah al bh bl =
  let a0 = al land 0xFFFF and a1 = al lsr 16 in
  let b0 = bl land 0xFFFF and b1 = bl lsr 16 in
  let p00 = a0 * b0 in
  let mid = (p00 lsr 16) + (a0 * b1) + (a1 * b0) in
  w.wl <- (p00 land 0xFFFF) lor ((mid land 0xFFFF) lsl 16);
  w.wh <- ((a1 * b1) + (mid lsr 16) + mul_lo32 al bh + mul_lo32 ah bl) land m32

(* one xoshiro256** step: advances the state and leaves the output word
   in [rh]/[rl]; everything is immediate ints, so no allocation *)
let next t =
  let s1h = t.s1h and s1l = t.s1l in
  (* x5 = s1 * 5 *)
  let l5 = (s1l lsl 2) + s1l in
  let h5 = ((s1h lsl 2) + s1h + (l5 lsr 32)) land m32 in
  let l5 = l5 land m32 in
  (* r = rotl x5 7 *)
  let rh = ((h5 lsl 7) lor (l5 lsr 25)) land m32 in
  let rl = ((l5 lsl 7) lor (h5 lsr 25)) land m32 in
  (* result = r * 9 *)
  let l9 = (rl lsl 3) + rl in
  t.rh <- ((rh lsl 3) + rh + (l9 lsr 32)) land m32;
  t.rl <- l9 land m32;
  (* state update: t2 = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3;
     s2 ^= t2; s3 = rotl s3 45 *)
  let th = ((s1h lsl 17) lor (s1l lsr 15)) land m32 in
  let tl = (s1l lsl 17) land m32 in
  let s2h = t.s2h lxor t.s0h and s2l = t.s2l lxor t.s0l in
  let s3h = t.s3h lxor s1h and s3l = t.s3l lxor s1l in
  t.s1h <- s1h lxor s2h;
  t.s1l <- s1l lxor s2l;
  t.s0h <- t.s0h lxor s3h;
  t.s0l <- t.s0l lxor s3l;
  t.s2h <- s2h lxor th;
  t.s2l <- s2l lxor tl;
  (* rotl 45 swaps the halves (45 >= 32), then rotates by 13 *)
  t.s3h <- ((s3l lsl 13) land m32) lor (s3h lsr 19);
  t.s3l <- ((s3h lsl 13) land m32) lor (s3l lsr 19)

(* (hi, lo) halves of the sign-extended 64-bit image of an OCaml int *)
let hi_of_int v = (v asr 32) land m32
let lo_of_int v = v land m32

(* splitmix64 step: [st] holds the state, the output lands in [z] *)
let splitmix_next st z =
  (* state += 0x9E3779B97F4A7C15 *)
  let l = st.wl + 0x7F4A7C15 in
  let h = (st.wh + 0x9E3779B9 + (l lsr 32)) land m32 in
  let l = l land m32 in
  st.wh <- h;
  st.wl <- l;
  (* z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 *)
  let zh = h lxor (h lsr 30) and zl = l lxor (((h lsl 2) lor (l lsr 30)) land m32) in
  mul64_into z zh zl 0xBF58476D 0x1CE4E5B9;
  (* z = (z ^ (z >> 27)) * 0x94D049BB133111EB *)
  let zh = z.wh lxor (z.wh lsr 27)
  and zl = z.wl lxor (((z.wh lsl 5) lor (z.wl lsr 27)) land m32) in
  mul64_into z zh zl 0x94D049BB 0x133111EB;
  (* z ^ (z >> 31) *)
  let zh = z.wh and zl = z.wl in
  z.wh <- zh lxor (zh lsr 31);
  z.wl <- zl lxor (((zh lsl 1) lor (zl lsr 31)) land m32)

let of_splitmix h l =
  let st = { wh = h; wl = l } and z = { wh = 0; wl = 0 } in
  splitmix_next st z;
  let s0h = z.wh and s0l = z.wl in
  splitmix_next st z;
  let s1h = z.wh and s1l = z.wl in
  splitmix_next st z;
  let s2h = z.wh and s2l = z.wl in
  splitmix_next st z;
  let s3h = z.wh and s3l = z.wl in
  (* xoshiro state must not be all-zero; splitmix output makes this
     astronomically unlikely, but guard anyway *)
  if s0h lor s0l lor s1h lor s1l lor s2h lor s2l lor s3h lor s3l = 0 then
    { s0h = 0; s0l = 1; s1h = 0; s1l = 2; s2h = 0; s2l = 3; s3h = 0; s3l = 4; rh = 0; rl = 0 }
  else { s0h; s0l; s1h; s1l; s2h; s2l; s3h; s3l; rh = 0; rl = 0 }

let create ~seed = of_splitmix (hi_of_int seed) (lo_of_int seed)

let bits64 t =
  next t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t =
  next t;
  of_splitmix t.rh t.rl

let substream ~seed ~index =
  (* state = seed ^ (index * 0xD1342543DE82EF95) *)
  let w = { wh = 0; wl = 0 } in
  mul64_into w (hi_of_int index) (lo_of_int index) 0xD1342543 0xDE82EF95;
  of_splitmix (hi_of_int seed lxor w.wh) (lo_of_int seed lxor w.wl)

(* Unbiased bounded sampling by rejection on the top 62 bits (staying in
   OCaml's nativeint-friendly positive range). *)
let top62 t =
  next t;
  (t.rh lsl 30) lor (t.rl lsr 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = top62 t in
  if bound land (bound - 1) = 0 then mask land (bound - 1)
  else begin
    let limit = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
    let rec draw v = if v < limit then v mod bound else draw (top62 t) in
    draw mask
  end

(* 53 random mantissa bits in [0, 1); inlined, so a comparison against
   it (the engines' per-message loss coin) boxes no float *)
let[@inline] unit t =
  next t;
  float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) *. (1.0 /. 9007199254740992.0)

let float t bound = unit t *. bound
let bernoulli t ~p = if p <= 0.0 then false else if p >= 1.0 then true else unit t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_distinct t ~n ~k ~avoid =
  let eligible = if avoid >= 0 && avoid < n then n - 1 else n in
  if k < 0 || k > eligible then invalid_arg "Rng.sample_distinct: unsatisfiable request";
  (* Floyd-style rejection keeps this O(k) in expectation for k << n; fall
     back to a shuffle when k is a large fraction of n. *)
  if k * 3 >= eligible then begin
    let pool = Array.make eligible 0 in
    let j = ref 0 in
    for v = 0 to n - 1 do
      if v <> avoid then begin
        pool.(!j) <- v;
        incr j
      end
    done;
    shuffle_in_place t pool;
    Array.sub pool 0 k
  end
  else begin
    (* distinctness by linear scan of the sample built so far: [k] is a
       small fan-out on this path, and the scan spares the per-call hash
       table the previous implementation allocated *)
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      let fresh = ref (v <> avoid) in
      for i = 0 to !filled - 1 do
        if out.(i) = v then fresh := false
      done;
      if !fresh then begin
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
