(* xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64. Chosen over
   Stdlib.Random for cross-version reproducibility: experiment outputs are
   a pure function of the integer seed.

   The four 64-bit state words live unboxed in one 32-byte [Bytes] block,
   read and written through the [%caml_bytes_get64u] / [%caml_bytes_set64u]
   primitives. An [int64] bound by [let] and passed straight to a primitive
   stays in a register, also without flambda, and [next] is inlined into
   every draw, so its output word is consumed unboxed: a draw allocates
   nothing. Only [bits64], which returns the word itself, boxes. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* one xoshiro256** step: advances the state and returns the output word *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

(* splitmix64 step over the 8-byte state [st]; returns the output word *)
let[@inline] splitmix st =
  let z = Int64.add (get st 0) 0x9E3779B97F4A7C15L in
  set st 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_splitmix seed =
  let st = Bytes.create 8 and t = Bytes.create 32 in
  set st 0 seed;
  for i = 0 to 3 do
    set t (8 * i) (splitmix st)
  done;
  (* xoshiro state must not be all-zero; splitmix output makes this
     astronomically unlikely, but guard anyway *)
  let any = Int64.logor (Int64.logor (get t 0) (get t 8)) (Int64.logor (get t 16) (get t 24)) in
  if Int64.equal any 0L then
    for i = 0 to 3 do
      set t (8 * i) (Int64.of_int (i + 1))
    done;
  t

let create ~seed = of_splitmix (Int64.of_int seed)
let bits64 t = next t
let split t = of_splitmix (next t)

let substream ~seed ~index =
  let mix = Int64.mul (Int64.of_int index) 0xD1342543DE82EF95L in
  of_splitmix (Int64.logxor (Int64.of_int seed) mix)

(* Unbiased bounded sampling by rejection on the top 62 bits (staying in
   OCaml's nativeint-friendly positive range). *)
let[@inline] top62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* the rejection loop, top level so that no closure is built per call *)
let rec reject t bound limit v = if v < limit then v mod bound else reject t bound limit (top62 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = top62 t in
  if bound land (bound - 1) = 0 then mask land (bound - 1)
  else reject t bound (0x3FFF_FFFF_FFFF_FFFF / bound * bound) mask

(* 53 random mantissa bits in [0, 1); inlined, as is [float], so a
   comparison against a draw (the engines' per-message loss coin, the
   latency draws) boxes no float *)
let[@inline] unit t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  *. (1.0 /. 9007199254740992.0)

let[@inline] float t bound = unit t *. bound
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
