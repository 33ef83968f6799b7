(* Adaptive compressed integer sets (Roaring-style).

   The universe is split into containers of 2^16 consecutive ids; each
   container picks the cheapest of three representations for its local
   density and promotes itself as it fills:

   - [Arr]: a sorted array of the member ids' low 16 bits. O(members)
     memory — a node that knows 12 of 65,536 ids pays 16 words, not a
     2 KB bitmap. Promoted to [Bmp] past [arr_max] (= range/256), where
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
   - [Bmp]: a dense bitmap, 32 bits per word, counted with a SWAR
     popcount.
   - [Run]: sorted disjoint (start, length) pairs. Containers collapse
     to a single full run the moment they saturate, which makes the
     dominant steady state of discovery runs — every node knows
     everyone — O(1) memory per container and O(1) to merge: a union
     whose source container is full replaces the destination container
     outright, and a union into a full destination is a no-op.

   Sharing: [freeze] is an O(containers) immutable view (mutating it
   raises); the owner keeps mutating through copy-on-write. Two levels:
   the frozen view aliases the owner's container-pointer array (the
   owner re-materialises private container records on its first write
   after a freeze), and each re-materialised record initially aliases
   the old payload array, copying it only when an in-place write lands
   (a representation change allocates a fresh payload anyway). A merge
   that learns nothing therefore never copies. *)

(* container kinds *)
let arr_kind = 0
let bmp_kind = 1
let run_kind = 2

type container = {
  mutable kind : int;
  mutable data : int array;
      (* Arr: sorted low-16 ids in [0..card-1];
         Bmp: 32-bit words; Run: [s0; l0; s1; l1; ..] over 2*nruns *)
  mutable ccard : int;
  mutable nruns : int;  (* Run only *)
  mutable cshared : bool;  (* [data] is aliased: copy before in-place write *)
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
let empty_c = { kind = arr_kind; data = [||]; ccard = 0; nruns = 0; cshared = true }

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
          else { kind = c.kind; data = c.data; ccard = c.ccard; nruns = c.nruns; cshared = true })
        t.containers;
    t.status <- Owned
  | Frozen -> frozen_error ()

(* Writable container record at [ci]; call only with [t.status = Owned]. *)
let writable t ci =
  let c = t.containers.(ci) in
  if c == empty_c then begin
    let c' = { kind = arr_kind; data = [||]; ccard = 0; nruns = 0; cshared = false } in
    t.containers.(ci) <- c';
    c'
  end
  else c

(* data array about to be written in place: privatise if aliased *)
let own_data c =
  if c.cshared then begin
    c.data <- Intvec.copy_ints c.data;
    c.cshared <- false
  end

(* SWAR popcount over 32-bit values held in native ints: bit pairs, then
   nibbles, then bytes summed by one multiply. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let words_for range = (range + 31) lsr 5

(* Arr -> Bmp promotion threshold, floored so tiny containers still
   start as arrays: the merge-cost crossover, measured on whole hm runs
   at n = 17,408 and 65,536 over range/32 … range/512 (EXPERIMENTS.md,
   "Cset by merge cost"). range/32, the memory crossover (1 word/member
   vs 1 bit/member) it used to be, kept hm's mid-density knowledge sets
   in sorted arrays whose unions cost most of the merge time. *)
let arr_max range = imax 8 (range lsr 8)

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

let run_index_mem data nruns v =
  let lo = ref 0 and hi = ref (nruns - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let s = data.(2 * mid) and l = data.((2 * mid) + 1) in
    if v < s then hi := mid - 1 else if v >= s + l then lo := mid + 1 else found := true
  done;
  !found

let cmem c v =
  if c.ccard = 0 then false
  else if c.kind = arr_kind then arr_mem c.data c.ccard v
  else if c.kind = bmp_kind then c.data.(v lsr 5) land (1 lsl (v land 31)) <> 0
  else run_index_mem c.data c.nruns v

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
    let words = Array.make (words_for range) 0 in
    (if c.kind = arr_kind then
       for i = 0 to c.ccard - 1 do
         let v = c.data.(i) in
         words.(v lsr 5) <- words.(v lsr 5) lor (1 lsl (v land 31))
       done
     else
       for r = 0 to c.nruns - 1 do
         let s = c.data.(2 * r) and l = c.data.((2 * r) + 1) in
         for v = s to s + l - 1 do
           words.(v lsr 5) <- words.(v lsr 5) lor (1 lsl (v land 31))
         done
       done);
    c.kind <- bmp_kind;
    c.data <- words;
    c.nruns <- 0;
    c.cshared <- false
  end

let make_full c range =
  c.kind <- run_kind;
  c.data <- [| 0; range |];
  c.nruns <- 1;
  c.ccard <- range;
  c.cshared <- false

(* collapse a just-saturated container to the O(1) full-run form *)
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
         own_data c;
         c.data.(low lsr 5) <- c.data.(low lsr 5) lor (1 lsl (low land 31))
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
     else if c.kind = bmp_kind then begin
       own_data c;
       c.data.(low lsr 5) <- c.data.(low lsr 5) lor (1 lsl (low land 31))
     end
     else begin
       (* non-full run container gaining a member: go through the bitmap *)
       to_bmp c range;
       c.data.(low lsr 5) <- c.data.(low lsr 5) lor (1 lsl (low land 31))
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
    (if c.kind = run_kind then to_bmp c (range_of t ci);
     if c.kind = bmp_kind then begin
       own_data c;
       c.data.(low lsr 5) <- c.data.(low lsr 5) land lnot (1 lsl (low land 31))
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

let citer c base f =
  if c.ccard > 0 then
    if c.kind = arr_kind then
      for i = 0 to c.ccard - 1 do
        f (base + c.data.(i))
      done
    else if c.kind = bmp_kind then
      for w = 0 to Array.length c.data - 1 do
        let bits = Array.unsafe_get c.data w in
        if bits <> 0 then iter_word_bits (base + (w lsl 5)) bits f
      done
    else
      for r = 0 to c.nruns - 1 do
        let s = c.data.(2 * r) and l = c.data.((2 * r) + 1) in
        for v = base + s to base + s + l - 1 do
          f v
        done
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

   The wire's bitmap layout: member v is bit [v land 7] of byte [v lsr 3].
   A [Bmp] container's 32-bit word [w] is exactly bytes [4w .. 4w+3] of
   its 8 KiB slice, little-endian, so both directions move one word per
   step; the byte-level paths below only handle a container's ragged
   last word. *)

let bytes_per_container = container_span lsr 3

(* word [w] of the [nbytes]-byte region at [off], zero-padded past its end *)
let get_word buf off nbytes w =
  let b = w lsl 2 in
  if b + 4 <= nbytes then
    Bytes.get_uint16_le buf (off + b) lor (Bytes.get_uint16_le buf (off + b + 2) lsl 16)
  else begin
    let x = ref 0 in
    for k = 0 to nbytes - b - 1 do
      x := !x lor (Char.code (Bytes.get buf (off + b + k)) lsl (8 * k))
    done;
    !x
  end

let set_word buf off nbytes w x =
  let b = w lsl 2 in
  if b + 4 <= nbytes then begin
    Bytes.set_uint16_le buf (off + b) (x land 0xFFFF);
    Bytes.set_uint16_le buf (off + b + 2) ((x lsr 16) land 0xFFFF)
  end
  else
    for k = 0 to nbytes - b - 1 do
      Bytes.set buf (off + b + k) (Char.unsafe_chr ((x lsr (8 * k)) land 0xFF))
    done

let set_bit buf off v =
  let i = off + (v lsr 3) in
  Bytes.set buf i (Char.unsafe_chr (Char.code (Bytes.get buf i) lor (1 lsl (v land 7))))

(* bits [s, e) of the region at [off]: ragged ends bit by bit, whole
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

(* Capacity an [Arr] payload reaches when [card] members are added one
   at a time: [add] starts at 8 slots and doubles. *)
let arr_capacity card =
  let rec grow c = if c >= card then c else grow (2 * c) in
  grow 8

(* Word [w] of container [ci]'s slice, with bits at or beyond the
   container's range cleared (they lie past the universe). *)
let container_word buf off nbytes range w =
  let x = get_word buf off nbytes w in
  let tail = range land 31 in
  if tail <> 0 && w = words_for range - 1 then x land ((1 lsl tail) - 1) else x

let of_bitmap_bytes n buf pos =
  let t = create n in
  let width = (n + 7) lsr 3 in
  if pos < 0 || pos > Bytes.length buf - width then
    invalid_arg "Cset.of_bitmap_bytes: bitmap exceeds the buffer";
  for ci = 0 to Array.length t.containers - 1 do
    let range = range_of t ci in
    let off = pos + (ci * bytes_per_container) in
    let nbytes = (range + 7) lsr 3 in
    let nw = words_for range in
    let card = ref 0 in
    for w = 0 to nw - 1 do
      card := !card + popcount (container_word buf off nbytes range w)
    done;
    let card = !card in
    (* the representation [add] would reach, member by member in
       ascending order: saturated collapses to a run, at most [arr_max]
       members stay an array, anything denser is a bitmap *)
    if card = range then
      t.containers.(ci) <-
        { kind = run_kind; data = [| 0; range |]; ccard = range; nruns = 1; cshared = false }
    else if card > arr_max range then begin
      let words = Array.make nw 0 in
      for w = 0 to nw - 1 do
        words.(w) <- container_word buf off nbytes range w
      done;
      t.containers.(ci) <- { kind = bmp_kind; data = words; ccard = card; nruns = 0; cshared = false }
    end
    else if card > 0 then begin
      let data = Array.make (arr_capacity card) 0 in
      let k = ref 0 in
      for w = 0 to nw - 1 do
        let bits = ref (container_word buf off nbytes range w) in
        while !bits <> 0 do
          let low = !bits land - !bits in
          data.(!k) <- (w lsl 5) + popcount (low - 1);
          incr k;
          bits := !bits lxor low
        done
      done;
      t.containers.(ci) <- { kind = arr_kind; data; ccard = card; nruns = 0; cshared = false }
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
    if c.ccard > 0 && c.kind = bmp_kind then
      for w = 0 to ((nbytes + 3) lsr 2) - 1 do
        set_word buf off nbytes w c.data.(w)
      done
    else begin
      Bytes.fill buf off nbytes '\000';
      if c.ccard > 0 then
        if c.kind = arr_kind then
          for i = 0 to c.ccard - 1 do
            set_bit buf off c.data.(i)
          done
        else
          for r = 0 to c.nruns - 1 do
            let s = c.data.(2 * r) in
            set_bit_range buf off s (s + c.data.((2 * r) + 1))
          done
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
  else if c.kind = run_kind then begin
    let k = ref k in
    let r = ref 0 in
    while !k >= c.data.((2 * !r) + 1) do
      k := !k - c.data.((2 * !r) + 1);
      incr r
    done;
    base + c.data.(2 * !r) + !k
  end
  else begin
    let k = ref k in
    let w = ref 0 in
    let pc = ref (popcount c.data.(0)) in
    while !k >= !pc do
      k := !k - !pc;
      incr w;
      pc := popcount c.data.(!w)
    done;
    (* k-th set bit of word w *)
    let bits = ref c.data.(!w) in
    for _ = 1 to !k do
      bits := !bits land (!bits - 1)
    done;
    let low = !bits land - !bits in
    base + (!w lsl 5) + popcount (low - 1)
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
        for w = 0 to (low lsr 5) - 1 do
          acc := !acc + popcount c.data.(w)
        done;
        acc := !acc + popcount (c.data.(low lsr 5) land ((1 lsl (low land 31)) - 1))
      end
      else begin
        let r = ref 0 in
        let stop = ref false in
        while (not !stop) && !r < c.nruns do
          let s = c.data.(2 * !r) and l = c.data.((2 * !r) + 1) in
          if low < s then stop := true
          else if low < s + l then begin
            acc := !acc + (low - s);
            stop := true
          end
          else begin
            acc := !acc + l;
            incr r
          end
        done
      end
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
  else if c.kind = run_kind then base + c.data.(0)
  else begin
    let w = ref 0 in
    while c.data.(!w) = 0 do
      incr w
    done;
    let low = c.data.(!w) land -c.data.(!w) in
    base + (!w lsl 5) + popcount (low - 1)
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
    let nw = Array.length a.data in
    while !ok && !w < nw do
      if a.data.(!w) land lnot b.data.(!w) <> 0 then ok := false;
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
    let d = Array.unsafe_get dw w and s = Array.unsafe_get sw w in
    let fresh = s land lnot d in
    if fresh = 0 then union_words_with dw sw (w + 1) stop acc base f
    else begin
      Array.unsafe_set dw w (d lor s);
      (match f with Some f -> iter_word_bits (base + (w lsl 5)) fresh f | None -> ());
      union_words_with dw sw (w + 1) stop (acc + popcount fresh) base f
    end
  end

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
      for i = 0 to src.ccard - 1 do
        let v = src.data.(i) in
        let w = v lsr 5 and bit = 1 lsl (v land 31) in
        if c.data.(w) land bit = 0 then begin
          c.data.(w) <- c.data.(w) lor bit;
          c.ccard <- c.ccard + 1;
          match f with Some f -> f (base + v) | None -> ()
        end
      done;
      maybe_collapse c range;
      c.ccard - before
    end
  end
  else begin
    (* general path: destination as bitmap, absorb the source *)
    to_bmp c range;
    own_data c;
    let before = c.ccard in
    (if src.kind = arr_kind then
       for i = 0 to src.ccard - 1 do
         let v = src.data.(i) in
         let w = v lsr 5 and bit = 1 lsl (v land 31) in
         if c.data.(w) land bit = 0 then begin
           c.data.(w) <- c.data.(w) lor bit;
           c.ccard <- c.ccard + 1;
           match f with Some f -> f (base + v) | None -> ()
         end
       done
     else if src.kind = bmp_kind then begin
       let nw = Array.length src.data in
       c.ccard <- c.ccard + union_words_with c.data src.data 0 nw 0 base f
     end
     else
       for r = 0 to src.nruns - 1 do
         let s = src.data.(2 * r) and l = src.data.((2 * r) + 1) in
         for v = s to s + l - 1 do
           let w = v lsr 5 and bit = 1 lsl (v land 31) in
           if c.data.(w) land bit = 0 then begin
             c.data.(w) <- c.data.(w) lor bit;
             c.ccard <- c.ccard + 1;
             match f with Some f -> f (base + v) | None -> ()
           end
         done
       done);
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
            { kind = sc.kind; data = sc.data; ccard = sc.ccard; nruns = sc.nruns; cshared = true };
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
              { kind = sc.kind; data = sc.data; ccard = sc.ccard; nruns = sc.nruns;
                cshared = true };
            added := !added + (sc.ccard - dc0.ccard)
          end
          else begin
            (* [writable] may return [dc0] itself (already-owned set):
               capture the array payload before repurposing the record *)
            let avals = dc0.data and acard = dc0.ccard in
            let c = writable dst ci in
            c.kind <- bmp_kind;
            c.data <- Intvec.copy_ints sc.data;
            c.nruns <- 0;
            c.cshared <- false;
            c.ccard <- sc.ccard;
            for i = 0 to acard - 1 do
              let v = avals.(i) in
              let w = v lsr 5 and bit = 1 lsl (v land 31) in
              if c.data.(w) land bit = 0 then begin
                c.data.(w) <- c.data.(w) lor bit;
                c.ccard <- c.ccard + 1
              end
            done;
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
        for w = 0 to Array.length ca.data - 1 do
          total := !total + popcount (ca.data.(w) land cb.data.(w))
        done
      else begin
        (* iterate the smaller, probe the larger *)
        let small, big = if ca.ccard <= cb.ccard then (ca, cb) else (cb, ca) in
        citer small 0 (fun v -> if cmem big v then incr total)
      end
    end
  done;
  !total

(* ---- difference ---- *)

(* clear the members of bitmap container [c] in low ids [s, e), one
   masked word at a time; [c] must be a private record. Returns the
   number cleared. *)
let clear_bit_range c s e =
  let removed = ref 0 in
  let v = ref s in
  while !v < e do
    let w = !v lsr 5 in
    let hi = imin 32 (e - (w lsl 5)) in
    let mask = ((1 lsl hi) - 1) land lnot ((1 lsl (!v land 31)) - 1) in
    let hit = c.data.(w) land mask in
    if hit <> 0 then begin
      own_data c;
      c.data.(w) <- c.data.(w) lxor hit;
      removed := !removed + popcount hit
    end;
    v := (w + 1) lsl 5
  done;
  !removed

(* remove from container [c] (private record, non-empty) every member of
   [src] (non-empty, not full). Work follows [c]: an array is filtered in
   place by probing [src]; a bitmap clears [src]'s bits word by word, or
   member by member when [src] is a small array. A payload is copied
   only when the first member is actually removed. Returns the number
   removed. *)
let cdiff c (src : container) range =
  if c.kind = run_kind then to_bmp c range;
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
       for w = 0 to Array.length c.data - 1 do
         let hit = c.data.(w) land src.data.(w) in
         if hit <> 0 then begin
           own_data c;
           c.data.(w) <- c.data.(w) lxor hit;
           removed := !removed + popcount hit
         end
       done
     else if src.kind = arr_kind then
       for i = 0 to src.ccard - 1 do
         let v = src.data.(i) in
         let bit = 1 lsl (v land 31) in
         if c.data.(v lsr 5) land bit <> 0 then begin
           own_data c;
           c.data.(v lsr 5) <- c.data.(v lsr 5) lxor bit;
           incr removed
         end
       done
     else
       for r = 0 to src.nruns - 1 do
         let s = src.data.(2 * r) in
         removed := !removed + clear_bit_range c s (s + src.data.((2 * r) + 1))
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
        (* an emptied bitmap or run is released; an emptied array keeps
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
            { kind = c.kind; data = Intvec.copy_ints c.data; ccard = c.ccard; nruns = c.nruns;
              cshared = false })
        t.containers;
    card = t.card;
    status = Owned;
  }

(* Words of heap payload held by the set (container payloads plus the
   pointer array); used by the scaling experiments to report knowledge
   memory without OS-level noise. Shared payloads are counted once per
   alias, which over-reports frozen views — fine for a ballpark. *)
let memory_words t =
  let total = ref (Array.length t.containers + 4) in
  Array.iter (fun c -> if c != empty_c then total := !total + Array.length c.data + 6) t.containers;
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
