(* Adaptive compressed integer sets (Roaring-style).

   The universe is split into containers of 2^16 consecutive ids; each
   container picks the cheapest of three representations for its local
   density and promotes itself as it fills:

   - [Arr]: a sorted array of the member ids' low 16 bits. O(members)
     memory — a node that knows 12 of 65,536 ids pays 16 words, not an
     8 KiB bitmap. Promoted to [Bmp] past [arr_max] (= range/512), where
     a bitmap becomes the cheaper one to merge into: an array union or
     sorted insert moves every member, a bitmap absorbs a member with
     one OR and a bitmap source one word at a time. The array is still
     the smaller of the two there; promotion follows merge cost, not
     memory. The payload's capacity follows [add]: 8 slots, doubling as
     it fills; an array union that outgrows it takes the next doubling,
     capped at [arr_max], and one that fits merges in place (private
     payloads only — an aliased one is copied instead). Int payloads
     move through [Intvec.blit_ints], never [Array.blit], which pays
     the write barrier per element into a major-heap array.
   - [Bmp]: a dense bitmap in a [Bytes] block, 64 bits per 8-byte word,
     in the wire's bit order (member [v] is bit [v land 7] of byte
     [v lsr 3]), counted with a SWAR popcount. The major GC does not
     scan a [Bytes] block, and each of its words holds 64 members.
   - [Full]: every id of the container's range, with no payload.
     Containers collapse to it the moment they saturate, which makes
     the dominant steady state of discovery runs — every node knows
     everyone — O(1) memory per container and O(1) to merge: a union
     whose source container is full replaces the destination container
     outright, and a union into a full destination is a no-op. Removing
     a member of a full container expands it to a bitmap first.

   Sharing: [freeze] is an O(containers) immutable view (mutating it
   raises); the owner keeps mutating through copy-on-write. Two levels:
   the frozen view aliases the owner's container-pointer array (the
   owner re-materialises private container records on its first write
   after a freeze), and each re-materialised record initially aliases
   the old payload, copying it only when an in-place write lands (a
   representation change allocates a fresh payload anyway). A merge
   that learns nothing therefore never copies. *)

(* container kinds *)
let arr_kind = 0
let bmp_kind = 1
let full_kind = 2

type container = {
  mutable kind : int;
  mutable data : int array;  (* Arr: sorted low-16 ids in [0..card-1]; otherwise empty *)
  mutable bits : Bytes.t;
      (* Bmp: ⌈range/64⌉ 8-byte words, bits at or past the range clear;
         otherwise empty. Full has neither payload: [ccard] is the range. *)
  mutable ccard : int;
  mutable cshared : bool;  (* the payload is aliased: copy before in-place write *)
}

type status = Owned | Shared | Frozen

type t = {
  mutable n : int;  (* universe for bounded sets; high-water capacity when unbounded *)
  unbounded : bool;
  mutable containers : container array;
  mutable card : int;
  mutable status : status;
}

(* Span of one container, 2^16 ids as in classic Roaring: a container's
   payload is at most 2048 words (one 64 KiB bitmap). Smaller spans were
   measured and rejected — 2^12 spans multiply the container count by
   16, and during a gossip flood every merge touches most containers, so
   the per-container bookkeeping (kind dispatch, copy-on-write record
   churn, subset prechecks) outweighs what the smaller payload copies
   save: deliver-phase time at n = 65,536 rose ~30% versus 2^16. *)
let container_bits = 16
let container_span = 1 lsl container_bits
let low_mask = container_span - 1

(* Stdlib.min/max are polymorphic (a C call per comparison); these show
   up in every hot path, so specialise them to ints. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* One shared sentinel for "this container is empty": per-node knowledge
   sets at n = 1M would otherwise pay a fresh record per container per
   set. Mutators must replace it with a private record before writing
   ([writable] below); nothing ever mutates the sentinel itself. *)
let empty_c = { kind = arr_kind; data = [||]; bits = Bytes.empty; ccard = 0; cshared = true }

let containers_for n = (n + container_span - 1) lsr container_bits

let create n =
  if n < 0 then invalid_arg "Cset.create: negative capacity";
  {
    n;
    unbounded = false;
    containers = Array.make (containers_for n) empty_c;
    card = 0;
    status = Owned;
  }

let create_unbounded () =
  { n = 0; unbounded = true; containers = [||]; card = 0; status = Owned }

let capacity t = t.n
let cardinal t = t.card
let is_empty t = t.card = 0
let is_full t = (not t.unbounded) && t.card = t.n
let is_frozen t = t.status = Frozen

(* span of ids covered by container [ci] *)
let range_of t ci =
  if t.unbounded then container_span else imin container_span (t.n - (ci lsl container_bits))

let frozen_error () = invalid_arg "Cset: mutation of a frozen view"

let freeze t =
  if t.status = Frozen then t
  else begin
    t.status <- Shared;
    { n = t.n; unbounded = t.unbounded; containers = t.containers; card = t.card; status = Frozen }
  end

(* First write after a freeze: private container records over the shared
   payload arrays. O(containers), i.e. O(n / 65536). *)
let unshare_set t =
  match t.status with
  | Owned -> ()
  | Shared ->
    t.containers <-
      Array.map
        (fun c ->
          if c == empty_c then c
          else { kind = c.kind; data = c.data; bits = c.bits; ccard = c.ccard; cshared = true })
        t.containers;
    t.status <- Owned
  | Frozen -> frozen_error ()

(* Writable container record at [ci]; call only with [t.status = Owned]. *)
let writable t ci =
  let c = t.containers.(ci) in
  if c == empty_c then begin
    let c' = { kind = arr_kind; data = [||]; bits = Bytes.empty; ccard = 0; cshared = false } in
    t.containers.(ci) <- c';
    c'
  end
  else c

(* payload about to be written in place: privatise if aliased *)
let own_data c =
  if c.cshared then begin
    if c.kind = bmp_kind then c.bits <- Bytes.copy c.bits
    else c.data <- Intvec.copy_ints c.data;
    c.cshared <- false
  end

(* ---- bitmap words ----

   A [Bmp] payload is read and written a 64-bit word at a time through
   the unchecked primitives below. An [int64] bound by [let] and passed
   straight to a primitive or to an inlined function stays in a
   register, also without flambda and across dune's -opaque, so no
   kernel allocates. OR, AND-NOT and popcount do not depend on where a
   bit sits in the word and use it as loaded; the kernels that need bit
   positions read it in wire order through [load_le], which swaps the
   bytes on a big-endian host, and work on its two 32-bit halves as
   native ints. Single members are one byte access. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load bits w = get64 bits (w lsl 3)
let[@inline] store bits w x = set64 bits (w lsl 3) x

(* a loaded word with bit [i] standing for member [64w + i] *)
let[@inline] le x = if Sys.big_endian then swap64 x else x
let[@inline] load_le bits w = le (load bits w)
let[@inline] andnot a b = Int64.logand a (Int64.logxor b (-1L))

(* SWAR popcount of a 64-bit word: bit pairs, then nibbles, then bytes
   summed by one multiply into the top byte. *)
let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* the same over 32-bit values held in native ints *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let[@inline] lo32 x = Int64.to_int x land 0xFFFF_FFFF
let[@inline] hi32 x = Int64.to_int (Int64.shift_right_logical x 32)

(* index of the lowest set bit of a non-zero 32-bit value *)
let[@inline] ctz32 b = popcount ((b land -b) - 1)

(* index of the [k]-th set bit (0-based) of a 32-bit value *)
let select32 b k =
  let b = ref b in
  for _ = 1 to k do
    b := !b land (!b - 1)
  done;
  ctz32 !b

(* lowest set bit and [k]-th set bit of a non-zero wire-order word *)
let[@inline] lowest x =
  let lo = lo32 x in
  if lo <> 0 then ctz32 lo else 32 + ctz32 (hi32 x)

let[@inline] select x k =
  let lo = lo32 x in
  let pl = popcount lo in
  if k < pl then select32 lo k else 32 + select32 (hi32 x) (k - pl)

let[@inline] byte buf i = Char.code (Bytes.unsafe_get buf i)

(* bit [v] of the bitmap at byte [off] of [buf]; callers keep [v] in range *)
let[@inline] bit_mem buf off v = byte buf (off + (v lsr 3)) land (1 lsl (v land 7)) <> 0

let[@inline] set_bit buf off v =
  let i = off + (v lsr 3) in
  Bytes.unsafe_set buf i (Char.unsafe_chr (byte buf i lor (1 lsl (v land 7))))

let[@inline] clear_bit buf v =
  let i = v lsr 3 in
  Bytes.unsafe_set buf i (Char.unsafe_chr (byte buf i land lnot (1 lsl (v land 7))))

(* bits [s, e) of the bitmap at [off]: ragged ends bit by bit, whole
   bytes in between by one fill *)
let set_bit_range buf off s e =
  let v = ref s in
  while !v < e && !v land 7 <> 0 do
    set_bit buf off !v;
    incr v
  done;
  let aligned_end = e land lnot 7 in
  if !v < aligned_end then begin
    Bytes.fill buf (off + (!v lsr 3)) ((aligned_end - !v) lsr 3) '\255';
    v := aligned_end
  end;
  while !v < e do
    set_bit buf off !v;
    incr v
  done

let words_for range = (range + 63) lsr 6

(* Arr -> Bmp promotion threshold, floored so tiny containers still
   start as arrays: the merge-cost crossover, measured on whole hm runs
   at n = 17,408 and 65,536 over range/64 … range/512 with 64-bit
   bitmap words (EXPERIMENTS.md, "Cset by merge cost"). range/32, the
   memory crossover (1 word/member vs 1 bit/member) it once was, kept
   hm's mid-density knowledge sets in sorted arrays whose unions cost
   most of the merge time. *)
let arr_max range = imax 8 (range lsr 9)

(* ---- per-kind membership ---- *)

(* The [Arr] kernels below are typed [int array] so comparisons compile
   inline: an inferred ['a array] would make every comparison a C call
   to the polymorphic [caml_lessthan]/[caml_equal]. *)
let arr_rank (data : int array) card (v : int) =
  (* number of elements < v; also the insertion point *)
  let lo = ref 0 and hi = ref card in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if data.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let arr_mem (data : int array) card (v : int) =
  let i = arr_rank data card v in
  i < card && data.(i) = v

let cmem c v =
  if c.ccard = 0 then false
  else if c.kind = arr_kind then arr_mem c.data c.ccard v
  else if c.kind = bmp_kind then bit_mem c.bits 0 v
  else (* full *) true

let check t v =
  if v < 0 || ((not t.unbounded) && v >= t.n) then invalid_arg "Cset: element out of range"

let mem t v =
  check t v;
  let ci = v lsr container_bits in
  if ci >= Array.length t.containers then false
  else cmem t.containers.(ci) (v land low_mask)

(* ---- representation changes (always produce a private payload) ---- *)

let to_bmp c range =
  if c.kind <> bmp_kind then begin
    let bits = Bytes.make (words_for range lsl 3) '\000' in
    if c.kind = arr_kind then
      for i = 0 to c.ccard - 1 do
        set_bit bits 0 c.data.(i)
      done
    else set_bit_range bits 0 0 range;
    c.kind <- bmp_kind;
    c.data <- [||];
    c.bits <- bits;
    c.cshared <- false
  end

let make_full c range =
  c.kind <- full_kind;
  c.data <- [||];
  c.bits <- Bytes.empty;
  c.ccard <- range;
  c.cshared <- false

(* collapse a just-saturated container to the payload-free full form *)
let maybe_collapse c range = if c.ccard = range then make_full c range

(* ---- add / remove ---- *)

let ensure_containers t ci =
  let len = Array.length t.containers in
  if ci >= len then begin
    let grown = imax (ci + 1) (imax 1 (2 * len)) in
    t.containers <- Array.append t.containers (Array.make (grown - len) empty_c)
  end

let add t v =
  check t v;
  if t.status = Frozen then frozen_error ();
  let ci = v lsr container_bits in
  let low = v land low_mask in
  if ci < Array.length t.containers && cmem t.containers.(ci) low then false
  else begin
    unshare_set t;
    if t.unbounded then begin
      ensure_containers t ci;
      if v >= t.n then t.n <- v + 1
    end;
    let range = range_of t ci in
    let c = writable t ci in
    (if c.kind = arr_kind then begin
       if c.ccard >= arr_max range then begin
         to_bmp c range;
         set_bit c.bits 0 low
       end
       else begin
         let pos = arr_rank c.data c.ccard low in
         if c.ccard = Array.length c.data then begin
           (* grow (always produces a private array, so no own_data) *)
           let cap = imax 8 (2 * Array.length c.data) in
           let a = Array.make cap 0 in
           Intvec.blit_ints c.data 0 a 0 pos;
           Intvec.blit_ints c.data pos a (pos + 1) (c.ccard - pos);
           a.(pos) <- low;
           c.data <- a;
           c.cshared <- false
         end
         else begin
           own_data c;
           Intvec.blit_ints c.data pos c.data (pos + 1) (c.ccard - pos);
           c.data.(pos) <- low
         end
       end
     end
     else begin
       (* a bitmap: a full container already holds [low] *)
       own_data c;
       set_bit c.bits 0 low
     end);
    c.ccard <- c.ccard + 1;
    t.card <- t.card + 1;
    maybe_collapse c range;
    true
  end

let remove t v =
  check t v;
  if t.status = Frozen then frozen_error ();
  let ci = v lsr container_bits in
  let low = v land low_mask in
  if ci >= Array.length t.containers || not (cmem t.containers.(ci) low) then false
  else begin
    unshare_set t;
    let c = writable t ci in
    (if c.kind = full_kind then to_bmp c (range_of t ci);
     if c.kind = bmp_kind then begin
       own_data c;
       clear_bit c.bits low
     end
     else begin
       own_data c;
       let pos = arr_rank c.data c.ccard low in
       Intvec.blit_ints c.data (pos + 1) c.data pos (c.ccard - pos - 1)
     end);
    c.ccard <- c.ccard - 1;
    t.card <- t.card - 1;
    true
  end

(* ---- iteration ---- *)

let rec iter_word_bits base bits f =
  if bits <> 0 then begin
    let low = bits land -bits in
    f (base + popcount (low - 1));
    iter_word_bits base (bits lxor low) f
  end

(* the members of a wire-order word, ascending, through its halves *)
let[@inline] iter_word base x f =
  iter_word_bits base (lo32 x) f;
  iter_word_bits (base + 32) (hi32 x) f

let citer c base f =
  if c.ccard > 0 then
    if c.kind = arr_kind then
      for i = 0 to c.ccard - 1 do
        f (base + c.data.(i))
      done
    else if c.kind = bmp_kind then
      for w = 0 to (Bytes.length c.bits lsr 3) - 1 do
        let x = load c.bits w in
        if x <> 0L then iter_word (base + (w lsl 6)) (le x) f
      done
    else
      for v = base to base + c.ccard - 1 do
        f v
      done

let iter f t =
  for ci = 0 to Array.length t.containers - 1 do
    citer t.containers.(ci) (ci lsl container_bits) f
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let elements t = List.rev (fold (fun acc v -> v :: acc) [] t)

let to_array t =
  let out = Array.make t.card 0 in
  let i = ref 0 in
  iter
    (fun v ->
      out.(!i) <- v;
      incr i)
    t;
  out

let of_array n vs =
  let t = create n in
  Array.iter (fun v -> ignore (add t v)) vs;
  t

(* ---- little-endian byte bitmaps ----

   The wire's bitmap layout is the [Bmp] payload's own: member v is bit
   [v land 7] of byte [v lsr 3], and container [ci] is the 8 KiB slice
   at byte [ci * 8192]. Both directions copy a bitmap container with
   one [Bytes.blit]; only the ragged last byte of the universe needs a
   mask. *)

let bytes_per_container = container_span lsr 3

(* Capacity an [Arr] payload reaches when [card] members are added one
   at a time: [add] starts at 8 slots and doubles. *)
let arr_capacity card =
  let rec grow c = if c >= card then c else grow (2 * c) in
  grow 8

(* byte [i] of a container's wire slice at [off], bits at or beyond the
   container's [range] cleared (they lie past the universe) *)
let[@inline] wire_byte buf off range i =
  let b = byte buf (off + i) in
  if (i + 1) lsl 3 > range then b land ((1 lsl (range land 7)) - 1) else b

(* members in a container's wire slice: the words wholly inside
   [range], then the rest byte by byte *)
let wire_cardinal buf off range =
  let whole = range lsr 6 in
  let card = ref 0 in
  for w = 0 to whole - 1 do
    card := !card + popcount64 (get64 buf (off + (w lsl 3)))
  done;
  for i = whole lsl 3 to ((range + 7) lsr 3) - 1 do
    card := !card + popcount (wire_byte buf off range i)
  done;
  !card

let of_bitmap_bytes n buf pos =
  let t = create n in
  let width = (n + 7) lsr 3 in
  if pos < 0 || pos > Bytes.length buf - width then
    invalid_arg "Cset.of_bitmap_bytes: bitmap exceeds the buffer";
  for ci = 0 to Array.length t.containers - 1 do
    let range = range_of t ci in
    let off = pos + (ci * bytes_per_container) in
    let nbytes = (range + 7) lsr 3 in
    let card = wire_cardinal buf off range in
    (* the representation [add] would reach, member by member in
       ascending order: saturated collapses to full, at most [arr_max]
       members stay an array, anything denser is a bitmap *)
    if card = range then
      t.containers.(ci) <-
        { kind = full_kind; data = [||]; bits = Bytes.empty; ccard = range; cshared = false }
    else if card > arr_max range then begin
      let size = words_for range lsl 3 in
      let bits = Bytes.create size in
      Bytes.blit buf off bits 0 nbytes;
      Bytes.fill bits nbytes (size - nbytes) '\000';
      let last = nbytes - 1 in
      Bytes.unsafe_set bits last (Char.unsafe_chr (wire_byte bits 0 range last));
      t.containers.(ci) <- { kind = bmp_kind; data = [||]; bits; ccard = card; cshared = false }
    end
    else if card > 0 then begin
      let data = Array.make (arr_capacity card) 0 in
      let k = ref 0 in
      for i = 0 to nbytes - 1 do
        let b = ref (wire_byte buf off range i) in
        while !b <> 0 do
          data.(!k) <- (i lsl 3) + ctz32 !b;
          incr k;
          b := !b land (!b - 1)
        done
      done;
      t.containers.(ci) <-
        { kind = arr_kind; data; bits = Bytes.empty; ccard = card; cshared = false }
    end;
    t.card <- t.card + card
  done;
  t

let blit_bitmap_bytes t buf pos =
  let width = (t.n + 7) lsr 3 in
  if pos < 0 || pos > Bytes.length buf - width then
    invalid_arg "Cset.blit_bitmap_bytes: bitmap exceeds the buffer";
  let ncont = (width + bytes_per_container - 1) / bytes_per_container in
  for ci = 0 to ncont - 1 do
    let nbytes = imin bytes_per_container (width - (ci * bytes_per_container)) in
    let off = pos + (ci * bytes_per_container) in
    let c = if ci < Array.length t.containers then t.containers.(ci) else empty_c in
    if c.ccard > 0 && c.kind = bmp_kind then Bytes.blit c.bits 0 buf off nbytes
    else begin
      Bytes.fill buf off nbytes '\000';
      if c.ccard > 0 then
        if c.kind = arr_kind then
          for i = 0 to c.ccard - 1 do
            set_bit buf off c.data.(i)
          done
        else set_bit_range buf off 0 c.ccard
    end
  done

(* ---- rank / select ---- *)

let choose_nth t k =
  if k < 0 || k >= t.card then invalid_arg "Cset.choose_nth: rank out of range";
  let remaining = ref k in
  let ci = ref 0 in
  while !remaining >= t.containers.(!ci).ccard do
    remaining := !remaining - t.containers.(!ci).ccard;
    incr ci
  done;
  let c = t.containers.(!ci) in
  let base = !ci lsl container_bits in
  let k = !remaining in
  if c.kind = arr_kind then base + c.data.(k)
  else if c.kind = full_kind then base + k
  else begin
    let k = ref k in
    let w = ref 0 in
    let pc = ref (popcount64 (load c.bits 0)) in
    while !k >= !pc do
      k := !k - !pc;
      incr w;
      pc := popcount64 (load c.bits !w)
    done;
    base + (!w lsl 6) + select (load_le c.bits !w) !k
  end

let rank t v =
  check t v;
  let ci = v lsr container_bits in
  let low = v land low_mask in
  let acc = ref 0 in
  for i = 0 to imin ci (Array.length t.containers) - 1 do
    acc := !acc + t.containers.(i).ccard
  done;
  if ci < Array.length t.containers then begin
    let c = t.containers.(ci) in
    if c.ccard > 0 then
      if c.kind = arr_kind then acc := !acc + arr_rank c.data c.ccard low
      else if c.kind = bmp_kind then begin
        for w = 0 to (low lsr 6) - 1 do
          acc := !acc + popcount64 (load c.bits w)
        done;
        let below = Int64.sub (Int64.shift_left 1L (low land 63)) 1L in
        acc := !acc + popcount64 (Int64.logand (load_le c.bits (low lsr 6)) below)
      end
      else acc := !acc + low
  end;
  !acc

let min_elt t =
  if t.card = 0 then invalid_arg "Cset.min_elt: empty set";
  let ci = ref 0 in
  while t.containers.(!ci).ccard = 0 do
    incr ci
  done;
  let c = t.containers.(!ci) in
  let base = !ci lsl container_bits in
  if c.kind = arr_kind then base + c.data.(0)
  else if c.kind = full_kind then base
  else begin
    let w = ref 0 in
    while load c.bits !w = 0L do
      incr w
    done;
    base + (!w lsl 6) + lowest (load_le c.bits !w)
  end

(* ---- union ---- *)

let same_capacity a b =
  if a.unbounded || b.unbounded || a.n <> b.n then invalid_arg "Cset: capacity mismatch"

(* every member of container [a] present in container [b]? Word-parallel
   for bitmap pairs; containers are checked smallest-representation
   first, so the per-element fallback only ever walks small arrays. *)
let csubset a b range =
  if a.ccard = 0 then true
  else if a.ccard > b.ccard then false
  else if b.ccard = range then true
  else if a.kind = bmp_kind && b.kind = bmp_kind then begin
    let ok = ref true in
    let w = ref 0 in
    let nw = Bytes.length a.bits lsr 3 in
    while !ok && !w < nw do
      if andnot (load a.bits !w) (load b.bits !w) <> 0L then ok := false;
      incr w
    done;
    !ok
  end
  else if a.kind = arr_kind then begin
    (* a closure-free loop: the array-union precheck must not allocate *)
    let i = ref 0 in
    while !i < a.ccard && cmem b a.data.(!i) do
      incr i
    done;
    !i = a.ccard
  end
  else begin
    let ok = ref true in
    (try citer a 0 (fun v -> if not (cmem b v) then (ok := false; raise Exit)) with Exit -> ());
    !ok
  end

(* Merge sorted [a.(aoff .. aoff+na-1)] and [b.(0 .. nb-1)] into
   [out.(0 ..)], sized by the caller with [count_union]; calls [f] on
   members of [b] absent from [a], ascending. [out] may be [a] itself
   when [a]'s members sit at its top ([aoff + na = Array.length a]) with
   room for the union: the write cursor then never passes the next
   unread member of [a], since it trails it by the [aoff] slots still
   free minus the fresh members already written. *)
let merge_sorted (a : int array) aoff na (b : int array) nb (out : int array) f base =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(aoff + !i) and y = b.(!j) in
    if x < y then begin
      out.(!k) <- x;
      incr i
    end
    else if x > y then begin
      out.(!k) <- y;
      (match f with Some f -> f (base + y) | None -> ());
      incr j
    end
    else begin
      out.(!k) <- x;
      incr i;
      incr j
    end;
    incr k
  done;
  while !i < na do
    out.(!k) <- a.(aoff + !i);
    incr i;
    incr k
  done;
  while !j < nb do
    out.(!k) <- b.(!j);
    (match f with Some f -> f (base + b.(!j)) | None -> ());
    incr j;
    incr k
  done

(* count of the union of two sorted arrays, without writing *)
let count_union (a : int array) na (b : int array) nb =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    incr k
  done;
  !k + (na - !i) + (nb - !j)

let rec union_words_with dw sw w stop acc base f =
  if w >= stop then acc
  else begin
    let d = load dw w and s = load sw w in
    let fresh = andnot s d in
    if fresh = 0L then union_words_with dw sw (w + 1) stop acc base f
    else begin
      store dw w (Int64.logor d s);
      (match f with Some f -> iter_word (base + (w lsl 6)) (le fresh) f | None -> ());
      union_words_with dw sw (w + 1) stop (acc + popcount64 fresh) base f
    end
  end

(* OR the [card] sorted members [vals] into [c]'s private bitmap,
   counting the fresh ones into [c.ccard] and calling [f] on each,
   ascending *)
let absorb_array c (vals : int array) card base f =
  let bits = c.bits in
  for i = 0 to card - 1 do
    let v = vals.(i) in
    if not (bit_mem bits 0 v) then begin
      set_bit bits 0 v;
      c.ccard <- c.ccard + 1;
      match f with Some f -> f (base + v) | None -> ()
    end
  done

(* add every member of [src] absent from [dst-container c]; [c] must be
   writable. Returns the number added; calls [f] per fresh id ascending. *)
let cunion t ci c (src : container) base f =
  let range = range_of t ci in
  if src.ccard = range then begin
    (* full source: the destination becomes full outright *)
    let added = range - c.ccard in
    (match f with
    | Some f ->
      (* enumerate the complement of c, ascending *)
      if c.ccard = 0 then
        for v = 0 to range - 1 do
          f (base + v)
        done
      else
        for v = 0 to range - 1 do
          if not (cmem c v) then f (base + v)
        done
    | None -> ());
    make_full c range;
    added
  end
  else if c.kind = arr_kind && src.kind = arr_kind then begin
    let un = count_union c.data c.ccard src.data src.ccard in
    if un <= arr_max range then begin
      let na = c.ccard in
      let cap = Array.length c.data in
      if (not c.cshared) && un <= cap then begin
        (* private payload with room: lift the members to its top and
           merge forward from the bottom, allocating nothing *)
        Intvec.blit_ints c.data 0 c.data (cap - na) na;
        merge_sorted c.data (cap - na) na src.data src.ccard c.data f base
      end
      else begin
        let out = Array.make (imin (arr_capacity un) (arr_max range)) 0 in
        merge_sorted c.data 0 na src.data src.ccard out f base;
        c.data <- out;
        c.cshared <- false
      end;
      c.ccard <- un;
      un - na
    end
    else begin
      (* merged array would cross the promotion threshold: go dense *)
      to_bmp c range;
      let before = c.ccard in
      absorb_array c src.data src.ccard base f;
      maybe_collapse c range;
      c.ccard - before
    end
  end
  else begin
    (* general path: destination as bitmap, absorb the source *)
    to_bmp c range;
    own_data c;
    let before = c.ccard in
    (if src.kind = arr_kind then absorb_array c src.data src.ccard base f
     else begin
       (* a bitmap: a full source was handled above *)
       let nw = Bytes.length src.bits lsr 3 in
       c.ccard <- c.ccard + union_words_with c.bits src.bits 0 nw 0 base f
     end);
    maybe_collapse c range;
    c.ccard - before
  end

let union_gen ~dst ~src f =
  same_capacity dst src;
  if dst.status = Frozen then frozen_error ();
  if src.card = 0 || dst.card = dst.n then 0
  else begin
    (* A frozen source's payload arrays are immutable (the owner
       re-materialises on its first post-freeze write), so an empty
       destination container can alias them outright — the common "first
       big merge" of a snapshot into a near-empty set costs O(1) per
       container instead of an allocate-and-copy. *)
    let alias_ok = (match f with None -> true | Some _ -> false) && src.status = Frozen in
    let added = ref 0 in
    for ci = 0 to Array.length dst.containers - 1 do
      let sc = src.containers.(ci) in
      if sc.ccard > 0 && dst.containers.(ci).ccard < range_of dst ci then begin
        (* write-free pre-check: a no-op union must keep sharing. The
           subset test is word-parallel for bitmap pairs — never the
           per-element probe the hot no-op case (re-delivered snapshots)
           used to pay. *)
        let dc0 = dst.containers.(ci) in
        if alias_ok && dc0.ccard = 0 then begin
          unshare_set dst;
          dst.containers.(ci) <-
            { kind = sc.kind; data = sc.data; bits = sc.bits; ccard = sc.ccard; cshared = true };
          added := !added + sc.ccard
        end
        else if alias_ok && dc0.kind = arr_kind && sc.kind = bmp_kind then begin
          (* Small-array destination vs big frozen bitmap: probe the
             array's members against the bitmap instead of materialising
             a destination bitmap and scanning the source. The typical
             first delivery of a head's view — to a node that learned
             most of what it knows *from* that head — is a subset, and
             then the container aliases the source payload outright;
             otherwise one copy of the source absorbs the leftovers,
             still one pass cheaper than promote-and-scan. *)
          let miss = ref 0 in
          for i = 0 to dc0.ccard - 1 do
            if not (cmem sc dc0.data.(i)) then incr miss
          done;
          unshare_set dst;
          if !miss = 0 then begin
            dst.containers.(ci) <-
              { kind = sc.kind; data = sc.data; bits = sc.bits; ccard = sc.ccard; cshared = true };
            added := !added + (sc.ccard - dc0.ccard)
          end
          else begin
            (* [writable] may return [dc0] itself (already-owned set):
               capture the array payload before repurposing the record *)
            let avals = dc0.data and acard = dc0.ccard in
            let c = writable dst ci in
            c.kind <- bmp_kind;
            c.data <- [||];
            c.bits <- Bytes.copy sc.bits;
            c.cshared <- false;
            c.ccard <- sc.ccard;
            absorb_array c avals acard 0 None;
            added := !added + (c.ccard - acard);
            maybe_collapse c (range_of dst ci)
          end
        end
        else begin
          let fresh_exists =
            sc.ccard > dc0.ccard || not (csubset sc dc0 (range_of dst ci))
          in
          if fresh_exists then begin
            unshare_set dst;
            let c = writable dst ci in
            added := !added + cunion dst ci c sc (ci lsl container_bits) f
          end
        end
      end
    done;
    dst.card <- dst.card + !added;
    !added
  end

let union_into ~dst ~src = union_gen ~dst ~src None
let union_into_with ~dst ~src f = union_gen ~dst ~src (Some f)

(* ---- set predicates ---- *)

let subset a b =
  same_capacity a b;
  a.card <= b.card
  &&
  let ok = ref true in
  let nc = Array.length a.containers in
  let ci = ref 0 in
  while !ok && !ci < nc do
    if not (csubset a.containers.(!ci) b.containers.(!ci) (range_of a !ci)) then ok := false;
    incr ci
  done;
  !ok

let equal a b =
  (not a.unbounded) && (not b.unbounded) && a.n = b.n && a.card = b.card && subset a b

(* members of one container present in the other: iterate the smaller,
   probe the larger. Its own function, so the counter that its closure
   captures is allocated only on this path. *)
let probe_count ca cb =
  let small, big = if ca.ccard <= cb.ccard then (ca, cb) else (cb, ca) in
  let k = ref 0 in
  citer small 0 (fun v -> if cmem big v then incr k);
  !k

let inter_cardinal a b =
  same_capacity a b;
  let total = ref 0 in
  for ci = 0 to Array.length a.containers - 1 do
    let ca = a.containers.(ci) and cb = b.containers.(ci) in
    if ca.ccard > 0 && cb.ccard > 0 then begin
      let range = range_of a ci in
      if ca.ccard = range then total := !total + cb.ccard
      else if cb.ccard = range then total := !total + ca.ccard
      else if ca.kind = bmp_kind && cb.kind = bmp_kind then
        for w = 0 to (Bytes.length ca.bits lsr 3) - 1 do
          total := !total + popcount64 (Int64.logand (load ca.bits w) (load cb.bits w))
        done
      else total := !total + probe_count ca cb
    end
  done;
  !total

(* ---- difference ---- *)

(* remove from container [c] (private record, non-empty) every member of
   [src] (non-empty, not full). Work follows [c]: an array is filtered in
   place by probing [src]; a bitmap clears [src]'s bits word by word, or
   member by member when [src] is a small array. A payload is copied
   only when the first member is actually removed. Returns the number
   removed. *)
let cdiff c (src : container) range =
  if c.kind = full_kind then to_bmp c range;
  if c.kind = arr_kind then begin
    let k = ref 0 in
    for i = 0 to c.ccard - 1 do
      let v = c.data.(i) in
      if not (cmem src v) then begin
        if !k <> i then begin
          own_data c;
          c.data.(!k) <- v
        end;
        incr k
      end
    done;
    let removed = c.ccard - !k in
    c.ccard <- !k;
    removed
  end
  else begin
    let removed = ref 0 in
    (if src.kind = bmp_kind then
       for w = 0 to (Bytes.length c.bits lsr 3) - 1 do
         let hit = Int64.logand (load c.bits w) (load src.bits w) in
         if hit <> 0L then begin
           own_data c;
           store c.bits w (Int64.logxor (load c.bits w) hit);
           removed := !removed + popcount64 hit
         end
       done
     else
       for i = 0 to src.ccard - 1 do
         let v = src.data.(i) in
         if bit_mem c.bits 0 v then begin
           own_data c;
           clear_bit c.bits v;
           incr removed
         end
       done);
    c.ccard <- c.ccard - !removed;
    !removed
  end

let diff_into ~dst ~src =
  same_capacity dst src;
  if dst.status = Frozen then frozen_error ();
  if dst.card = 0 || src.card = 0 then 0
  else begin
    (* a frozen view aliases the container records: re-materialise them
       first, so the view keeps its members *)
    unshare_set dst;
    let removed = ref 0 in
    for ci = 0 to Array.length dst.containers - 1 do
      let c = dst.containers.(ci) and sc = src.containers.(ci) in
      if c.ccard > 0 && sc.ccard > 0 then begin
        let range = range_of dst ci in
        if sc.ccard = range then begin
          removed := !removed + c.ccard;
          c.ccard <- 0
        end
        else removed := !removed + cdiff c sc range;
        (* an emptied bitmap is released; an emptied array keeps
           its small payload for the adds that refill it *)
        if c.ccard = 0 && c.kind <> arr_kind then dst.containers.(ci) <- empty_c
      end
    done;
    dst.card <- dst.card - !removed;
    !removed
  end

let copy t =
  {
    n = t.n;
    unbounded = t.unbounded;
    containers =
      Array.map
        (fun c ->
          if c.ccard = 0 then empty_c
          else
            {
              kind = c.kind;
              data = Intvec.copy_ints c.data;
              bits = (if c.kind = bmp_kind then Bytes.copy c.bits else Bytes.empty);
              ccard = c.ccard;
              cshared = false;
            })
        t.containers;
    card = t.card;
    status = Owned;
  }

(* Heap words held by the set: the record and pointer array, and per
   container its record and payload, headers included. A [Bytes] bitmap
   of [8w] bytes is [w + 1] words (the last one holds the length
   padding) plus its header. Shared payloads are counted once per alias,
   which over-reports frozen views — fine for a ballpark. *)
let memory_words t =
  let payload c =
    if c.kind = bmp_kind then (Bytes.length c.bits lsr 3) + 2 else Array.length c.data + 1
  in
  let total = ref (Array.length t.containers + 7) in
  Array.iter (fun c -> if c != empty_c then total := !total + 6 + payload c) t.containers;
  !total

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun v ->
      if !first then first := false else Format.fprintf ppf ", ";
      Format.fprintf ppf "%d" v)
    t;
  Format.fprintf ppf "}"
