type t = { mutable data : int array; mutable len : int }

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
    Array.blit t.data 0 data 0 t.len;
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

let of_array a = { data = (if Array.length a = 0 then Array.make 1 0 else Array.copy a); len = Array.length a }

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
