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

(* In-place heapsort of [arr.(0..m-1)]: [Array.sort] cannot sort a
   prefix of a longer scratch without an allocating copy, and its
   comparison closure costs a call per step. [sift] and the swaps are
   top-level and int-typed, so the sort builds no closures and compares
   inline. *)
let rec sift (arr : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && arr.(l + 1) > arr.(l) then l + 1 else l in
    if arr.(c) > arr.(i) then begin
      let t = arr.(i) in
      arr.(i) <- arr.(c);
      arr.(c) <- t;
      sift arr c len
    end
  end

let sort_prefix arr m =
  if m < 0 || m > Array.length arr then invalid_arg "Intvec.sort_prefix: invalid length";
  for i = (m / 2) - 1 downto 0 do
    sift arr i m
  done;
  for len = m - 1 downto 1 do
    let t = arr.(0) in
    arr.(0) <- arr.(len);
    arr.(len) <- t;
    sift arr 0 len
  done

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
