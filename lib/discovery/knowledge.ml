open Repro_util

(* Bulk merges are container-level set unions with O(1) argmin
   maintenance from the payload's carried minima — no per-identifier
   work, which is what makes a full-knowledge run O(total containers
   merged) instead of Θ(n²) learn events. [order] holds only
   *explicitly* learned identifiers (singletons and id-list batches):
   exactly the ones hm-style custody must forward upward, while
   snapshot contents stay in the sharer's custody. *)

type snap = {
  set : Cset.t;
  sbest : int;
  sbest_raw : int;
  mutable vbytes : int;  (* Wire's cached varint body size; -1 until computed *)
}

type t = {
  owner : int;
  bits : Cset.t;
  order : Intvec.t;  (* explicitly learned ids, in learn order *)
  noted : Cset.t;  (* membership of [order] *)
  labels : int array;
  mutable best : int;  (* argmin of labels over the known set *)
  mutable best_raw : int;  (* min raw index over the known set *)
  mutable version : int;  (* bumped on every change; keys the snapshot cache *)
  mutable snap_cache : snap option;
  mutable snap_version : int;
  mutable last_merged : snap option;
      (* physical identity of the last fully-absorbed snapshot: merging
         it again is a no-op (frozen snapshots are immutable and [bits]
         never shrinks), so the broadcast steady state — every round the
         head re-sends the same cached snapshot — skips the set union
         entirely *)
  fy_pos : Intvec.t;  (* sampling scratch: positions displaced this call *)
  fy_val : Intvec.t;  (* sampling scratch: their current values *)
}

(* Most learn orders hold a handful of explicit learns (an hm node's
   owner, neighbours, reporters and introductions), so they are born
   small and double. One that outgrows [order_spill] entries is on an
   explicit-learn diet — flooding's deltas, id-list gossip — and heads
   for the full cardinality: it jumps straight to [min n 257] words,
   which is either exactly sized (small n) or the smallest array the
   runtime allocates directly on the major heap, so the long tail of
   doublings is never copied by minor-heap promotion. *)
let order_spill = 16

let create ~n ~owner ~labels () =
  if owner < 0 || owner >= n then invalid_arg "Knowledge.create: owner out of range";
  if Array.length labels <> n then invalid_arg "Knowledge.create: labels length mismatch";
  let bits = Cset.create n in
  ignore (Cset.add bits owner);
  let order = Intvec.create ~capacity:8 () in
  Intvec.push order owner;
  let noted = Cset.create n in
  ignore (Cset.add noted owner);
  {
    owner;
    bits;
    order;
    noted;
    labels;
    best = owner;
    best_raw = owner;
    version = 0;
    snap_cache = None;
    snap_version = -1;
    last_merged = None;
    fy_pos = Intvec.create ~capacity:1 ();
    fy_val = Intvec.create ~capacity:1 ();
  }

let owner t = t.owner
let universe t = Cset.capacity t.bits
let cardinal t = Cset.cardinal t.bits
let knows t v = Cset.mem t.bits v
let is_complete t = Cset.is_full t.bits
let version t = t.version

let bump_best t v =
  if t.labels.(v) < t.labels.(t.best) then t.best <- v;
  if v < t.best_raw then t.best_raw <- v

(* enter an identifier into the learn order (the caller checked [noted]) *)
let note t v =
  if Intvec.length t.order = order_spill then
    Intvec.reserve t.order (min (Cset.capacity t.bits) 257);
  Intvec.push t.order v;
  ignore (Cset.add t.noted v)

(* a fresh *explicitly* learned identifier *)
let note_explicit_fresh t v =
  note t v;
  bump_best t v

let add t v =
  let fresh = Cset.add t.bits v in
  if fresh then begin
    note_explicit_fresh t v;
    t.version <- t.version + 1
  end
  else if not (Cset.mem t.noted v) then
    (* Already known through a bulk snapshot, but now learned explicitly:
       enter the explicit stream so custody-style delta reports forward
       it upward. *)
    note t v;
  fresh

let note_explicit t v = if Cset.mem t.bits v && not (Cset.mem t.noted v) then note t v

let merge_bits t src =
  let added = Cset.union_into_with ~dst:t.bits ~src (bump_best t) in
  if added > 0 then t.version <- t.version + 1;
  added

let merge_snapshot t (s : snap) =
  match t.last_merged with
  | Some prev when prev == s -> 0
  | _ ->
    let added =
      if s.sbest >= 0 then begin
        (* O(containers): the argmin over the union is the smaller of the
           two argmins, carried by the snapshot — no element enumeration *)
        let a = Cset.union_into ~dst:t.bits ~src:s.set in
        if a > 0 then begin
          if t.labels.(s.sbest) < t.labels.(t.best) then t.best <- s.sbest;
          let raw = if s.sbest_raw >= 0 then s.sbest_raw else Cset.min_elt s.set in
          if raw < t.best_raw then t.best_raw <- raw
        end;
        a
      end
      else
        (* snapshot of unknown minima (adversarial, or decoded without
           the run's labels): enumerate the fresh identifiers to
           maintain the argmin *)
        Cset.union_into_with ~dst:t.bits ~src:s.set (bump_best t)
    in
    if added > 0 then t.version <- t.version + 1;
    t.last_merged <- Some s;
    added

(* Identifier batches are semantically sets: the order a sender happened
   to serialise them in is a transport artefact (an in-memory delta
   arrives in the sender's learn order, the wire codecs deliver sorted
   ids, set unions walk ascending). Folding the fresh members in
   ascending id order makes the learn order — and everything derived
   from it: broadcast fan-out order, sampling, delta windows — a
   function of the delivery sequence alone, which is what lets the live
   backends certify trace-identity against the in-memory engines.

   Most of a gossip batch is already known (about five in six ids of a
   flooding delta), so the batch is filtered first: only ids absent from
   [bits] go into a scratch vector, which is sorted (in one pass when it
   is already ascending) and then added in order. The scratch is
   domain-local (parallel sweeps merge concurrently) rather than per
   knowledge, so a run pays for one, not one per node. *)
let fresh_scratch : Intvec.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Intvec.create ())

let fresh_batch () =
  let fresh = Domain.DLS.get fresh_scratch in
  Intvec.clear fresh;
  fresh

let stage t fresh v = if not (Cset.mem t.bits v) then Intvec.push fresh v

let absorb_fresh t fresh =
  let m = Intvec.length fresh in
  Intvec.sort fresh;
  let learned = ref 0 in
  for i = 0 to m - 1 do
    let v = Intvec.get fresh i in
    (* a batch may repeat an id: only its first copy is fresh *)
    if Cset.add t.bits v then begin
      note_explicit_fresh t v;
      incr learned
    end
  done;
  if !learned > 0 then t.version <- t.version + 1;
  !learned

(* one loop per batch type: a shared [~get] accessor would be a closure
   allocated per call *)
let merge_ids t ids =
  let fresh = fresh_batch () in
  for i = 0 to Array.length ids - 1 do
    stage t fresh ids.(i)
  done;
  absorb_fresh t fresh

let merge_slice t s =
  let fresh = fresh_batch () in
  for i = 0 to Intvec.slice_length s - 1 do
    stage t fresh (Intvec.slice_get s i)
  done;
  absorb_fresh t fresh

(* O(containers): an immutable view of the live set plus its carried
   minima. The live set privatises its storage on the next write
   (copy-on-write), so the snapshot is a stable value even though
   nothing was copied here. Cached per [version] so a node whose
   knowledge is stable (the broadcast steady state) re-sends the same
   snapshot value with no allocation at all. *)
let snapshot t =
  match t.snap_cache with
  | Some s when t.snap_version = t.version -> s
  | _ ->
    let s = { set = Cset.freeze t.bits; sbest = t.best; sbest_raw = t.best_raw; vbytes = -1 } in
    t.snap_cache <- Some s;
    t.snap_version <- t.version;
    s

let external_snapshot set = { set; sbest = -1; sbest_raw = -1; vbytes = -1 }

(* One walk of the set, paid once per decoded view rather than once per
   receiver that merges it. *)
let decoded_snapshot ~(labels : int array) set =
  if Array.length labels <> Cset.capacity set then
    invalid_arg "Knowledge.decoded_snapshot: labels length mismatch";
  let best = ref (-1) in
  Cset.iter (fun v -> if !best < 0 || labels.(v) < labels.(!best) then best := v) set;
  let raw = if !best < 0 then -1 else Cset.min_elt set in
  { set = Cset.freeze set; sbest = !best; sbest_raw = raw; vbytes = -1 }

let contents t = t.bits

let mark t = Intvec.length t.order

let since_slice t ~mark =
  if mark < 0 || mark > Intvec.length t.order then
    invalid_arg "Knowledge.since_slice: invalid mark";
  Intvec.slice t.order ~pos:mark ~len:(Intvec.length t.order - mark)

let iter_known t f = Cset.iter f t.bits

let random_known t rng =
  let card = Cset.cardinal t.bits in
  if card <= 1 then None
  else begin
    (* rank-space draw over the set minus the owner: one RNG draw *)
    let orank = Cset.rank t.bits t.owner in
    let r = Rng.int rng (card - 1) in
    Some (Cset.choose_nth t.bits (if r >= orank then r + 1 else r))
  end

(* Virtual partial Fisher–Yates over the non-owner ranks. The rank
   permutation is conceptually the identity at the start of every call,
   and a k-draw sample displaces at most k positions, so instead of
   materialising an [avail]-sized rank array — whose repeated growth
   would be a major-heap allocation per knowledge-growth event — we
   record just the displaced (position, value) pairs in two reused
   scratch vectors. A lookup scans the ≤ k entries backwards (latest
   write wins), keeping the call allocation-free beyond the result
   array while still issuing exactly [min k (cardinal-1)] RNG draws.
   Ranks run over the set in ascending id order with the owner's rank
   spliced out. *)
let rank_at t x =
  let n = Intvec.length t.fy_pos in
  let rec scan i = if i < 0 then x else if Intvec.get t.fy_pos i = x then Intvec.get t.fy_val i else scan (i - 1) in
  scan (n - 1)

let random_known_among t rng ~k =
  let avail = Cset.cardinal t.bits - 1 in
  let k = min k avail in
  if k <= 0 then [||]
  else begin
    let orank = Cset.rank t.bits t.owner in
    let select e = Cset.choose_nth t.bits (if e >= orank then e + 1 else e) in
    if k = 1 then [| select (Rng.int rng avail) |]
    else begin
      Intvec.clear t.fy_pos;
      Intvec.clear t.fy_val;
      let out = Array.make k 0 in
      for i = 0 to k - 1 do
        let j = i + Rng.int rng (avail - i) in
        let vj = rank_at t j in
        let vi = rank_at t i in
        out.(i) <- select vj;
        (* Position [i] is never read again; only [j]'s displacement must
           be visible to later iterations. *)
        Intvec.push t.fy_pos j;
        Intvec.push t.fy_val vi
      done;
      out
    end
  end

let min_known t = t.best
let min_known_raw t = t.best_raw

let min_known_excluding t ~suspects =
  if Cset.capacity suspects <> Cset.capacity t.bits then
    invalid_arg "Knowledge.min_known_excluding: capacity mismatch";
  if not (Cset.mem suspects t.best) then t.best
  else begin
    (* A suspected owner competes like any other node: it is skipped
       while an unsuspected candidate exists and is only returned as the
       last-resort fallback when every known node (including the owner)
       is suspected. *)
    let best = ref (-1) in
    let consider v =
      if (not (Cset.mem suspects v)) && (!best < 0 || t.labels.(v) < t.labels.(!best)) then
        best := v
    in
    Cset.iter consider t.bits;
    if !best < 0 then t.owner else !best
  end
