(* Framed message envelope for the socket transports. Layout (all
   multi-byte fields little-endian):

     offset  size  field
     0       2     magic "RD"
     2       1     version (currently 4)
     3       1     kind (0 = data, 1 = ack, 2 = hello)
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
   version 3 added a termination-gossip kind and a completion flag bit,
   which version 4 removed again (the runtime's observer alone decides
   that a run is over). Other versions are rejected as an
   unsupported version (live fleets are always spawned from one build,
   so no cross-version traffic exists). *)

let magic0 = 'R'
let magic1 = 'D'
let version = 4
let header_size = 28

(* generous per-message bound: a bitmap body for n = 2^24 nodes is 2 MiB *)
let max_body = 16 * 1024 * 1024

type kind = Data | Ack | Hello

let kind_code = function Data -> 0 | Ack -> 1 | Hello -> 2
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
  if v < 0 || v > 0x7FFFFFFF then invalid_arg (Printf.sprintf "Envelope.seal: %s out of range" name)

(* The header is written into the frame's first [header_size] bytes,
   where [Wire.encode ~room:header_size] left room; the body behind it
   is read for the CRC and never moved. *)
let seal frame kind ~src ~stamp ~seq ~ack =
  check_u31 "src" src;
  check_u31 "stamp" stamp;
  check_u31 "seq" seq;
  check_u31 "ack" ack;
  let blen = Bytes.length frame - header_size in
  if blen < 0 then invalid_arg "Envelope.seal: frame shorter than the header";
  if blen > max_body then invalid_arg "Envelope.seal: body too large";
  Bytes.unsafe_set frame 0 magic0;
  Bytes.unsafe_set frame 1 magic1;
  Bytes.unsafe_set frame 2 (Char.unsafe_chr version);
  Bytes.unsafe_set frame 3 (Char.unsafe_chr (kind_code kind));
  put_u32 frame 4 src;
  put_u32 frame 8 stamp;
  put_u32 frame 12 seq;
  put_u32 frame 16 ack;
  put_u32 frame 20 blen;
  (* CRC spans the 24 addressing bytes plus the body (the CRC field
     itself is excluded) *)
  put_u32 frame 24 (crc_finish (crc_update (crc_update crc_init frame 0 24) frame header_size blen))

(* The mux runtime classifies frames it is about to "transmit" without
   a full decode: data frames get simulator-aligned latency draws. *)
let peek_kind buf =
  if Bytes.length buf < 4 then None
  else
    match Char.code (Bytes.get buf 3) with
    | 0 -> Some Data
    | 1 -> Some Ack
    | 2 -> Some Hello
    | _ -> None

(* [decode]'s verdicts: a frame's length, or one of these *)
let need_more = 0
let bad_magic = -1
let bad_version = -2
let bad_kind = -3
let bad_length = -4
let bad_crc = -5

let decode buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Envelope.decode: slice out of bounds";
  if len < header_size then need_more
  else if Bytes.unsafe_get buf off <> magic0 || Bytes.unsafe_get buf (off + 1) <> magic1 then
    bad_magic
  else if Char.code (Bytes.unsafe_get buf (off + 2)) <> version then bad_version
  else if Char.code (Bytes.unsafe_get buf (off + 3)) > 2 then bad_kind
  else begin
    let blen = get_u32 buf (off + 20) in
    if blen > max_body then bad_length
    else if len < header_size + blen then need_more
    else if
      get_u32 buf (off + 24)
      <> crc_finish (crc_update (crc_update crc_init buf off 24) buf (off + header_size) blen)
    then bad_crc
    else header_size + blen
  end

let reason buf ~off verdict =
  if verdict = bad_magic then "bad magic"
  else if verdict = bad_version then
    Printf.sprintf "unsupported envelope version %d (this build speaks %d)"
      (Char.code (Bytes.get buf (off + 2)))
      version
  else if verdict = bad_kind then
    Printf.sprintf "unknown frame kind %d" (Char.code (Bytes.get buf (off + 3)))
  else if verdict = bad_length then
    Printf.sprintf "body length %d out of bounds" (get_u32 buf (off + 20))
  else if verdict = bad_crc then crc_mismatch
  else invalid_arg "Envelope.reason: not a corruption verdict"

(* --- header fields of a frame [decode] accepted, read in place --- *)

let kind buf ~off =
  match Char.code (Bytes.get buf (off + 3)) with 0 -> Data | 1 -> Ack | _ -> Hello

let src buf ~off = get_u32 buf (off + 4)
let stamp buf ~off = get_u32 buf (off + 8)
let seq buf ~off = get_u32 buf (off + 12)
let ack buf ~off = get_u32 buf (off + 16)
let body_length buf ~off = get_u32 buf (off + 20)
