open Repro_util
open Repro_discovery

(* Status bytes mirror the wire encoding; 255 marks never-observed so
   the whole array initialises with one Bytes.make. *)
let unknown = 255

type t = {
  owner : int;
  statuses : Bytes.t;
  versions : int array;  (* highest observed incarnation per node; 0 = never observed *)
  peers : Intvec.t;  (* the live (alive or suspect) nodes other than the owner, unordered *)
  mutable digest : int;  (* XOR of [entry_word] over the exported triples *)
}

type applied = Stale | Updated | Changed of bool

(* --- the view digest ---

   One word per known node, XORed together, so the digest does not
   depend on the order the entries arrived in and [apply] updates it in
   O(1). The word packs the exported triple into 62 bits (status in
   bits 0-1, node in bits 2-25, version above) and runs it through an
   invertible 62-bit mixer: xor-shifts and multiplications by odd
   constants are bijections modulo 2^62. Packing is injective for
   nodes below 2^24 and versions below 2^36, so two different triples
   get two different words, and a pair of views that differ in one
   entry (one word swapped, added or removed) cannot share a digest.
   The xor with [offset] first makes the packed value whose word is 0
   one with status bits 11, which no triple has, so no word is 0 and an
   added entry always shows. *)

let mask62 = (1 lsl 62) - 1
let offset = 0x2545f4914f6cdd1f lor 3

let[@inline] entry_word ~node ~version ~status =
  let x = ((version lsl 26) lor (node lsl 2) lor status) land mask62 in
  let x = x lxor offset in
  let x = x lxor (x lsr 31) in
  let x = (x * 0x3f51afd7ed558ccd) land mask62 in
  let x = x lxor (x lsr 29) in
  let x = (x * 0x04ceb9fe1a85ec53) land mask62 in
  x lxor (x lsr 32)

(* suspicion is local: a full-state batch, and so the digest, carries
   the lattice status *)
let[@inline] exported s = if s = Payload.status_suspect then Payload.status_alive else s

let create ~cap ~owner =
  if owner < 0 || owner >= cap then invalid_arg "View.create: owner out of range";
  let versions = Array.make cap 0 in
  versions.(owner) <- 1;
  let statuses = Bytes.make cap (Char.chr unknown) in
  Bytes.set statuses owner (Char.chr Payload.status_alive);
  let digest = entry_word ~node:owner ~version:1 ~status:Payload.status_alive in
  (* sized to the universe up front: the list never grows, so it is
     never copied *)
  let peers = Intvec.create ~capacity:cap () in
  { owner; statuses; versions; peers; digest }

let owner t = t.owner
let universe t = Array.length t.versions

let status t node =
  if node < 0 || node >= Bytes.length t.statuses then invalid_arg "View.status: out of range";
  Char.code (Bytes.get t.statuses node)

let exported_status t node = exported (status t node)

let version t node =
  if node < 0 || node >= Array.length t.versions then invalid_arg "View.version: out of range";
  t.versions.(node)

let live_status s = s = Payload.status_alive || s = Payload.status_suspect
let is_live t node = live_status (status t node)
let live_count t = Intvec.length t.peers + if is_live t t.owner then 1 else 0
let digest t = t.digest
let iter_live t f = Intvec.iter f t.peers

let swap t i j =
  let v = Intvec.get t.peers i in
  Intvec.set t.peers i (Intvec.get t.peers j);
  Intvec.set t.peers j v

(* The owner is never in [peers]: nobody draws itself. A node leaves
   by swap-remove, the last peer moving into its hole; the hole is found
   by a scan, as a node goes down far more rarely than a peer is
   drawn. *)
let add_peer t node = if node <> t.owner then Intvec.push t.peers node

let remove_peer t node =
  if node <> t.owner then begin
    let last = Intvec.length t.peers - 1 in
    let i = ref last in
    while Intvec.get t.peers !i <> node do
      decr i
    done;
    swap t !i last;
    ignore (Intvec.pop t.peers)
  end

let set_status t node s =
  let was = live_status (status t node) in
  let now = live_status s in
  Bytes.set t.statuses node (Char.chr s);
  if was && not now then remove_peer t node else if now && not was then add_peer t node;
  if was = now then Updated else Changed now

let[@inline] apply t ~node ~version ~status:s =
  if node < 0 || node >= Bytes.length t.statuses then invalid_arg "View.apply: node out of range";
  if version < 0 then invalid_arg "View.apply: negative version";
  if s < 0 || s > Payload.status_down then invalid_arg "View.apply: unknown status";
  let cur_v = t.versions.(node) in
  let cur_s = status t node in
  let stronger =
    if cur_s = unknown then true
    else version > cur_v || (version = cur_v && s > cur_s)
  in
  if not stronger then Stale
  else begin
    let old =
      if cur_s = unknown then 0 else entry_word ~node ~version:cur_v ~status:(exported cur_s)
    in
    t.digest <- t.digest lxor old lxor entry_word ~node ~version ~status:(exported s);
    t.versions.(node) <- version;
    set_status t node s
  end

let suspect t node =
  status t node = Payload.status_alive
  && (Bytes.set t.statuses node (Char.chr Payload.status_suspect);
      true)

let unsuspect t node =
  status t node = Payload.status_suspect
  && (Bytes.set t.statuses node (Char.chr Payload.status_alive);
      true)

let random_live t rng =
  let n = Intvec.length t.peers in
  if n = 0 then -1 else Intvec.get t.peers (Rng.int rng n)

(* A partial Fisher-Yates over [peers] in place: each draw swaps a
   uniform pick from [m .. range-1] into position [m]. A draw that lands
   on [exclude] swaps it past the end of the range instead, where no
   later draw reaches it. The list is unordered, so the shuffle loses
   nothing. *)
let random_live_sample t rng ~k ~exclude =
  let range = ref (Intvec.length t.peers) in
  let m = ref 0 in
  while !m < k && !m < !range do
    let j = !m + Rng.int rng (!range - !m) in
    if Intvec.get t.peers j = exclude then begin
      decr range;
      swap t j !range
    end
    else begin
      swap t j !m;
      incr m
    end
  done;
  Array.init !m (Intvec.get t.peers)
