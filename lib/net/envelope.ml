(* Framed message envelope for the socket transports. Layout (all
   multi-byte fields little-endian):

     offset  size  field
     0       2     magic "RD"
     2       1     version (currently 3)
     3       1     kind (low 7 bits: 0 = data, 1 = ack, 2 = hello,
                   3 = done; bit 7: sender's knowledge is complete)
     4       4     src node id
     8       4     stamp (sender's tick count when the message left)
     12      4     sequence number (per-link, 1-based; 0 on bare frames)
     16      4     cumulative ack (highest in-order seq received from dst)
     20      4     body length
     24      4     CRC-32 (IEEE) of bytes [0, 24) ++ body
     28      ...   body ([Wire]-encoded payload)

   The header carries its own integrity evidence: magic + version gate
   resynchronisation bugs, the length field is bounded before any
   allocation, and the CRC — seeded over the first 24 header bytes and
   continued over the body — catches corruption of the addressing and
   reliability fields as well as the payload.

   Version 2 added the kind/seq/ack fields for the reliability layer;
   version 3 added the Done kind and the completion flag bit for
   fleet-wide termination gossip. Older frames are rejected as an
   unsupported version (live fleets are always spawned from one build,
   so no cross-version traffic exists). *)

let magic0 = 'R'
let magic1 = 'D'
let version = 3
let header_size = 28

(* generous per-message bound: a bitmap body for n = 2^24 nodes is 2 MiB *)
let max_body = 16 * 1024 * 1024

type kind = Data | Ack | Hello | Done

type t = { kind : kind; src : int; stamp : int; seq : int; ack : int; comp : bool; body : bytes }

let kind_code = function Data -> 0 | Ack -> 1 | Hello -> 2 | Done -> 3
let comp_bit = 0x80
let crc_mismatch = "CRC mismatch"

(* --- CRC-32 (IEEE 802.3), table-driven --- *)

let crc_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_init = 0xFFFFFFFF

let crc_update c buf off len =
  let table = crc_table in
  let c = ref c in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let crc_finish c = c lxor 0xFFFFFFFF

(* --- little-endian u32 helpers --- *)

let put_u32 buf off v =
  Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set buf (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set buf (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set buf (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let get_u32 buf off =
  Char.code (Bytes.unsafe_get buf off)
  lor (Char.code (Bytes.unsafe_get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get buf (off + 3)) lsl 24)

let check_u31 name v =
  if v < 0 || v > 0x7FFFFFFF then invalid_arg (Printf.sprintf "Envelope.encode: %s out of range" name)

let encode t =
  check_u31 "src" t.src;
  check_u31 "stamp" t.stamp;
  check_u31 "seq" t.seq;
  check_u31 "ack" t.ack;
  let blen = Bytes.length t.body in
  if blen > max_body then invalid_arg "Envelope.encode: body too large";
  let out = Bytes.create (header_size + blen) in
  Bytes.set out 0 magic0;
  Bytes.set out 1 magic1;
  Bytes.set out 2 (Char.chr version);
  Bytes.set out 3 (Char.chr (kind_code t.kind lor if t.comp then comp_bit else 0));
  put_u32 out 4 t.src;
  put_u32 out 8 t.stamp;
  put_u32 out 12 t.seq;
  put_u32 out 16 t.ack;
  put_u32 out 20 blen;
  Bytes.blit t.body 0 out header_size blen;
  (* CRC spans the 24 addressing bytes plus the body (the CRC field
     itself is excluded) *)
  put_u32 out 24 (crc_finish (crc_update (crc_update crc_init out 0 24) t.body 0 blen));
  out

(* The mux runtime classifies frames it is about to "transmit" without
   a full decode: data frames get simulator-aligned latency draws. *)
let peek_kind buf =
  if Bytes.length buf < 4 then None
  else
    match Char.code (Bytes.get buf 3) land lnot comp_bit with
    | 0 -> Some Data
    | 1 -> Some Ack
    | 2 -> Some Hello
    | 3 -> Some Done
    | _ -> None

let decode buf ~off ~len =
  if len < header_size then `Need_more
  else if Bytes.get buf off <> magic0 || Bytes.get buf (off + 1) <> magic1 then
    `Corrupt "bad magic"
  else if Char.code (Bytes.get buf (off + 2)) <> version then
    `Corrupt
      (Printf.sprintf "unsupported envelope version %d (this build speaks %d)"
         (Char.code (Bytes.get buf (off + 2)))
         version)
  else begin
    let kind_byte = Char.code (Bytes.get buf (off + 3)) in
    let comp = kind_byte land comp_bit <> 0 in
    let kind_byte = kind_byte land lnot comp_bit in
    if kind_byte > 3 then `Corrupt (Printf.sprintf "unknown frame kind %d" kind_byte)
    else begin
      let src = get_u32 buf (off + 4) in
      let stamp = get_u32 buf (off + 8) in
      let seq = get_u32 buf (off + 12) in
      let ack = get_u32 buf (off + 16) in
      let blen = get_u32 buf (off + 20) in
      if blen < 0 || blen > max_body then
        `Corrupt (Printf.sprintf "body length %d out of bounds" blen)
      else if len < header_size + blen then `Need_more
      else begin
        let crc = get_u32 buf (off + 24) in
        let actual =
          crc_finish (crc_update (crc_update crc_init buf off 24) buf (off + header_size) blen)
        in
        if crc <> actual then `Corrupt crc_mismatch
        else begin
          let kind = match kind_byte with 0 -> Data | 1 -> Ack | 2 -> Hello | _ -> Done in
          `Frame
            ( { kind; src; stamp; seq; ack; comp; body = Bytes.sub buf (off + header_size) blen },
              header_size + blen )
        end
      end
    end
  end
