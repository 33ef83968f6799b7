open Repro_util

type data =
  | Bits of Knowledge.snap
  | Ids of int array
  | Delta of Intvec.slice
  | Updates of { full : bool; count : int; entries : int array }

type t =
  | Share of data
  | Exchange of data
  | Reply of data
  | Probe
  | Halt
  | Probe_req of { target : int; nonce : int }
  | Probe_ack of { target : int; nonce : int }
  | Suspicion of { target : int; version : int }
  | Sync of { digest : int }

let status_alive = 0
let status_suspect = 1
let status_down = 2

(* Flat batch layout: entry [i] is [entries.(2i) = (node lsl 2) lor
   status] and [entries.(2i+1) = version]; a batch is the first [count]
   entries. *)
let update_node entries i = entries.(2 * i) asr 2
let update_status entries i = entries.(2 * i) land 3
let update_version entries i = entries.((2 * i) + 1)

let set_update entries i ~node ~version ~status =
  if status < 0 || status > status_down then invalid_arg "Payload.set_update: unknown status";
  entries.(2 * i) <- (node lsl 2) lor status;
  entries.((2 * i) + 1) <- version

let data_size = function
  | Bits b -> Cset.cardinal b.Knowledge.set
  | Ids a -> Array.length a
  | Delta s -> Intvec.slice_length s
  | Updates u -> u.count

let measure = function
  | Share d | Exchange d | Reply d ->
    (* an update batch always costs at least the sender's own address,
       like a Probe: empty full-state requests are real messages *)
    (match d with Updates _ -> max 1 (data_size d) | Bits _ | Ids _ | Delta _ -> data_size d)
  | Probe | Halt | Sync _ -> 1
  (* indirect-probe and suspicion traffic names a second node: the
     implicit sender address plus the target pointer *)
  | Probe_req _ | Probe_ack _ | Suspicion _ -> 2

let merge_data knowledge = function
  | Bits b -> Knowledge.merge_snapshot knowledge b
  | Ids a -> Knowledge.merge_ids knowledge a
  | Delta s -> Knowledge.merge_slice knowledge s
  | Updates u ->
    (* an update teaches the receiver the node's id; its version and
       status are protocol state, applied by the service's membership
       view, not by the knowledge set *)
    let fresh = ref 0 in
    for i = 0 to u.count - 1 do
      if Knowledge.add knowledge (update_node u.entries i) then incr fresh
    done;
    !fresh

(* Preallocated empty delta: steady-state "I learned nothing since my
   last send" resends are the hot case and should not allocate. *)
let empty_delta = Delta (Intvec.slice (Intvec.create ()) ~pos:0 ~len:0)

let pp ppf = function
  | Share d -> Format.fprintf ppf "share(%d)" (data_size d)
  | Exchange d -> Format.fprintf ppf "exchange(%d)" (data_size d)
  | Reply d -> Format.fprintf ppf "reply(%d)" (data_size d)
  | Probe -> Format.fprintf ppf "probe"
  | Halt -> Format.fprintf ppf "halt"
  | Probe_req p -> Format.fprintf ppf "probe-req(%d#%d)" p.target p.nonce
  | Probe_ack p -> Format.fprintf ppf "probe-ack(%d#%d)" p.target p.nonce
  | Suspicion s -> Format.fprintf ppf "suspicion(%d@%d)" s.target s.version
  | Sync s -> Format.fprintf ppf "sync(%x)" s.digest
