type t = { mutable data : int array; mutable len : int }

(* Int moves. [Array.blit] cannot tell an [int array] from an array of
   pointers, so into an array on the major heap it pays the write
   barrier ([caml_modify]) per element, several times the cost of
   these loops, whose [int array] stores compile to plain moves. *)
let blit_ints (src : int array) spos (dst : int array) dpos len =
  if len < 0 || spos < 0 || spos > Array.length src - len || dpos < 0
     || dpos > Array.length dst - len
  then invalid_arg "Intvec.blit_ints: invalid range";
  if src == dst && spos < dpos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
    done

(* A copy of up to 256 words (the runtime's Max_young_wosize) lands on
   the minor heap, where [Array.copy] is one memcpy; a larger one lands
   on the major heap, where [Array.copy] initialises element by element
   and the int loop is faster. *)
let copy_ints (a : int array) =
  let n = Array.length a in
  if n <= 256 then Array.copy a
  else begin
    let b = Array.make n 0 in
    blit_ints a 0 b 0 n;
    b
  end

let create ?(capacity = 8) () = { data = Array.make (max capacity 1) 0; len = 0 }
let length t = t.len

let check t i = if i < 0 || i >= t.len then invalid_arg "Intvec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i v =
  check t i;
  t.data.(i) <- v

let reserve t cap =
  if cap > Array.length t.data then begin
    let data = Array.make cap 0 in
    blit_ints t.data 0 data 0 t.len;
    t.data <- data
  end

let push t v =
  if t.len = Array.length t.data then reserve t (2 * t.len);
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Intvec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0
let is_empty t = t.len = 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_array t = Array.sub t.data 0 t.len

(* Natural merge sort of [arr.(0..m-1)]. Discovery's id batches arrive
   as a few ascending runs laid end to end (a flooding delta is a slice
   of a learn order, which grows by ascending batches), so the sort finds
   the maximal ascending runs, extends any run shorter than [min_run]
   with insertion sort, and merges adjacent runs pairwise, back and forth
   between [arr] and a scratch, until one run is left: O(m) on sorted
   input, O(m log r) on r runs, O(m log m) at worst. [Array.sort] cannot
   sort a prefix of a longer scratch without an allocating copy, and its
   comparison closure costs a call per step; these loops are top-level
   and int-typed, so they build no closures and compare inline.

   The merge buffer and the run bounds are domain-local (parallel
   sweeps sort concurrently) and grow-only. The first sort on a domain
   sizes the buffer for at least [min_scratch] ids, so small sorts never
   grow it again; every run but the last is at least [min_run] long, so
   ⌈m / min_run⌉ + 1 bounds suffice. *)
let min_run = 32
let min_scratch = 1024

type scratch = { mutable buf : int array; mutable bounds : int array }

let bounds_for cap = Array.make (((cap + min_run - 1) / min_run) + 1) 0

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { buf = Array.make min_scratch 0; bounds = bounds_for min_scratch })

let scratch_for m =
  let sc = Domain.DLS.get scratch_key in
  let have = Array.length sc.buf in
  if have < m then begin
    let cap = if m > 2 * have then m else 2 * have in
    sc.buf <- Array.make cap 0;
    sc.bounds <- bounds_for cap
  end;
  sc

(* Insertion of [arr.(sorted .. hi-1)] into the ascending [arr.(lo .. sorted-1)]. *)
let insertion_sort (arr : int array) lo sorted hi =
  for i = sorted to hi - 1 do
    let v = Array.unsafe_get arr i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get arr !j > v do
      Array.unsafe_set arr (!j + 1) (Array.unsafe_get arr !j);
      decr j
    done;
    Array.unsafe_set arr (!j + 1) v
  done

(* End of the run starting at [lo], at least [min_run] long (or up to [m]). *)
let next_run (arr : int array) lo m =
  let hi = ref (lo + 1) in
  while !hi < m && Array.unsafe_get arr (!hi - 1) <= Array.unsafe_get arr !hi do
    incr hi
  done;
  let stop = if lo + min_run < m then lo + min_run else m in
  if !hi < stop then begin
    insertion_sort arr lo !hi stop;
    stop
  end
  else !hi

(* Merge ascending [src.(lo .. mid-1)] and [src.(mid .. hi-1)] into [dst.(lo .. hi-1)]. *)
let merge (src : int array) lo mid hi (dst : int array) =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    if a <= b then begin
      Array.unsafe_set dst !k a;
      incr i
    end
    else begin
      Array.unsafe_set dst !k b;
      incr j
    end;
    incr k
  done;
  if !i < mid then blit_ints src !i dst !k (mid - !i) else blit_ints src !j dst !k (hi - !j)

let sort_prefix arr m =
  if m < 0 || m > Array.length arr then invalid_arg "Intvec.sort_prefix: invalid length";
  let sc = scratch_for m in
  let bounds = sc.bounds in
  (* bounds.(0 .. runs) delimit the runs *)
  let runs = ref 0 and lo = ref 0 in
  while !lo < m do
    let hi = next_run arr !lo m in
    incr runs;
    bounds.(!runs) <- hi;
    lo := hi
  done;
  let src = ref arr and dst = ref sc.buf in
  while !runs > 1 do
    let merged = ref 0 and r = ref 0 in
    while !r < !runs do
      let lo = bounds.(!r) in
      if !r + 1 < !runs then begin
        merge !src lo bounds.(!r + 1) bounds.(!r + 2) !dst;
        r := !r + 2
      end
      else begin
        (* the odd run out moves across as it is *)
        blit_ints !src lo !dst lo (bounds.(!r + 1) - lo);
        incr r
      end;
      incr merged;
      bounds.(!merged) <- bounds.(!r)
    done;
    runs := !merged;
    let t = !src in
    src := !dst;
    dst := t
  done;
  if !src != arr then blit_ints !src 0 arr 0 m

let sort t = sort_prefix t.data t.len

let of_array a = { data = (if Array.length a = 0 then Array.make 1 0 else copy_ints a); len = Array.length a }

(* Zero-copy slices. A slice captures the backing array by reference, so
   it stays valid across later [push]es (including ones that grow and
   replace [t.data] — the captured array keeps the old elements) as long
   as the sliced range itself is not overwritten via [set]/[clear]+push.
   The append-only vectors this is used for (knowledge learn orders)
   satisfy that by construction. *)
type slice = { sdata : int array; spos : int; slen : int }

let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Intvec.slice: invalid slice";
  { sdata = t.data; spos = pos; slen = len }

let slice_length s = s.slen

let slice_get s i =
  if i < 0 || i >= s.slen then invalid_arg "Intvec.slice_get: index out of bounds";
  s.sdata.(s.spos + i)

let slice_iter f s =
  for i = s.spos to s.spos + s.slen - 1 do
    f s.sdata.(i)
  done

let slice_fold f init s =
  let acc = ref init in
  slice_iter (fun v -> acc := f !acc v) s;
  !acc

let slice_to_array s = Array.sub s.sdata s.spos s.slen

let last t =
  if t.len = 0 then invalid_arg "Intvec.last: empty";
  t.data.(t.len - 1)
