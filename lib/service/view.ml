open Repro_util
open Repro_discovery

(* Status bytes mirror the wire encoding; 255 marks never-observed so
   the whole array initialises with one Bytes.make. *)
let unknown = 255

type t = {
  knowledge : Knowledge.t;
  statuses : Bytes.t;
  versions : int array;  (* highest observed incarnation per node; 0 = never observed *)
  mutable live : int;  (* known nodes whose status is alive or suspect *)
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

let create ~cap ~owner ~labels =
  let knowledge = Knowledge.create ~n:cap ~owner ~labels () in
  let versions = Array.make cap 0 in
  versions.(owner) <- 1;
  let statuses = Bytes.make cap (Char.chr unknown) in
  Bytes.set statuses owner (Char.chr Payload.status_alive);
  let digest = entry_word ~node:owner ~version:1 ~status:Payload.status_alive in
  { knowledge; statuses; versions; live = 1; digest }

let knowledge t = t.knowledge
let owner t = Knowledge.owner t.knowledge

let status t node =
  if node < 0 || node >= Bytes.length t.statuses then invalid_arg "View.status: out of range";
  Char.code (Bytes.get t.statuses node)

let exported_status t node = exported (status t node)

let version t node =
  if node < 0 || node >= Array.length t.versions then invalid_arg "View.version: out of range";
  t.versions.(node)

let live_status s = s = Payload.status_alive || s = Payload.status_suspect
let is_live t node = live_status (status t node)
let live_count t = t.live
let digest t = t.digest

let set_status t node s =
  let was = live_status (status t node) in
  let now = live_status s in
  Bytes.set t.statuses node (Char.chr s);
  if was && not now then t.live <- t.live - 1
  else if now && not was then t.live <- t.live + 1;
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
    ignore (Knowledge.add t.knowledge node);
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
  if t.live <= 1 then None
  else begin
    (* the known set is mostly live in steady state, so rejection
       sampling almost always lands within a draw or two *)
    let found = ref (-1) in
    let attempts = ref 0 in
    while !found < 0 && !attempts < 8 do
      incr attempts;
      match Knowledge.random_known t.knowledge rng with
      | Some v when is_live t v -> found := v
      | Some _ | None -> ()
    done;
    if !found >= 0 then Some !found
    else begin
      (* retirement-heavy view: fall back to a uniform choice over an
         explicit enumeration of the live non-owners *)
      let self = owner t in
      let live = ref [] in
      let count = ref 0 in
      Knowledge.iter_known t.knowledge (fun v ->
          if v <> self && is_live t v then begin
            live := v :: !live;
            incr count
          end);
      if !count = 0 then None
      else begin
        let k = Rng.int rng !count in
        let rec nth l i = match l with [] -> assert false | x :: tl -> if i = 0 then x else nth tl (i - 1) in
        Some (nth !live k)
      end
    end
  end

(* Up to [k] distinct live nodes, excluding the owner and [exclude] —
   the intermediary sample of an indirect-probe round. Rejection
   sampling first (the known set is mostly live in steady state), then
   a linear enumeration fallback like [random_live]. *)
let random_live_sample t rng ~k ~exclude =
  if k <= 0 || t.live <= 1 then [||]
  else begin
    let self = owner t in
    let picked = Array.make k (-1) in
    let count = ref 0 in
    let mem v =
      let rec go i = i < !count && (picked.(i) = v || go (i + 1)) in
      go 0
    in
    let attempts = ref 0 in
    while !count < k && !attempts < 8 * k do
      incr attempts;
      match Knowledge.random_known t.knowledge rng with
      | Some v when v <> self && v <> exclude && is_live t v && not (mem v) ->
        picked.(!count) <- v;
        incr count
      | Some _ | None -> ()
    done;
    if !count < k then begin
      (* sparse live set: enumerate the candidates and take a uniform
         draw-without-replacement over what the sampler missed *)
      let rest = ref [] in
      let rest_n = ref 0 in
      Knowledge.iter_known t.knowledge (fun v ->
          if v <> self && v <> exclude && is_live t v && not (mem v) then begin
            rest := v :: !rest;
            incr rest_n
          end);
      let rest = Array.of_list !rest in
      (* Fisher-Yates over the remainder, stopping once [picked] fills *)
      let n = !rest_n in
      let i = ref 0 in
      while !count < k && !i < n do
        let j = !i + Rng.int rng (n - !i) in
        let v = rest.(j) in
        rest.(j) <- rest.(!i);
        rest.(!i) <- v;
        incr i;
        picked.(!count) <- v;
        incr count
      done
    end;
    Array.sub picked 0 !count
  end

let iter_known t f = Knowledge.iter_known t.knowledge f
