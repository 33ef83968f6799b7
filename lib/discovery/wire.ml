open Repro_util

type encoding = Raw32 | Varint_delta | Bitmap | Adaptive

let encoding_name = function
  | Raw32 -> "raw32"
  | Varint_delta -> "varint"
  | Bitmap -> "bitmap"
  | Adaptive -> "adaptive"

let all_encodings = [ Raw32; Varint_delta; Bitmap; Adaptive ]

(* --- primitive writers/readers --- *)

let varint_size v =
  let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
  go (max v 0) 1

let write_varint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let read_varint bytes pos =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length bytes then invalid_arg "Wire.decode: truncated varint";
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
    else if !shift > 62 then invalid_arg "Wire.decode: varint overflow"
  done;
  !v

(* canonical identifier list of a data payload: sorted, deduplicated *)
let ids_of_data = function
  | Payload.Bits b -> Cset.elements b.Knowledge.set
  | Payload.Ids a -> List.sort_uniq Int.compare (Array.to_list a)
  | Payload.Delta s -> List.sort_uniq Int.compare (Array.to_list (Intvec.slice_to_array s))
  | Payload.Updates u -> Array.to_list (Array.map (fun e -> e.Payload.node) u.entries)

let ids_of_payload = function
  | Payload.Share d | Payload.Exchange d | Payload.Reply d -> ids_of_data d
  | Payload.Probe | Payload.Halt | Payload.Probe_req _ | Payload.Probe_ack _
  | Payload.Suspicion _ -> []

let check_range ~universe ids =
  List.iter
    (fun v ->
      if v < 0 || v >= universe then invalid_arg "Wire.encode: identifier out of range")
    ids

(* --- id-set codecs (byte bodies, excluding the message kind byte) --- *)

let raw32_body ids =
  let buf = Buffer.create (4 * List.length ids) in
  write_varint buf (List.length ids);
  List.iter
    (fun v ->
      Buffer.add_char buf (Char.chr (v land 0xFF));
      Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
      Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
      Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF)))
    ids;
  buf

let varint_body ids =
  let buf = Buffer.create 64 in
  write_varint buf (List.length ids);
  let prev = ref (-1) in
  List.iter
    (fun v ->
      write_varint buf (v - !prev - 1);
      prev := v)
    ids;
  buf

let varint_size_of ids =
  let total = ref (varint_size (List.length ids)) in
  let prev = ref (-1) in
  List.iter
    (fun v ->
      total := !total + varint_size (v - !prev - 1);
      prev := v)
    ids;
  !total

let bitmap_body ~universe ids =
  let width = (universe + 7) / 8 in
  let body = Bytes.make width '\000' in
  List.iter
    (fun v ->
      let byte = v lsr 3 and bit = v land 7 in
      Bytes.set body byte (Char.chr (Char.code (Bytes.get body byte) lor (1 lsl bit))))
    ids;
  let buf = Buffer.create (width + 1) in
  Buffer.add_bytes buf body;
  buf

let bitmap_size ~universe = (universe + 7) / 8

(* --- update-batch codec (body codec 3) ---

   Canonical form required of the payload: entries sorted by node,
   strictly ascending (one entry per node). Body: varint count, then per
   entry a varint node gap (node - prev - 1), a varint version and one
   status byte. The 0x40 bit of the codec byte carries the batch's
   [full] flag. *)

let updates_full_flag = 0x40

let check_updates ~universe (entries : Payload.update array) =
  let prev = ref (-1) in
  Array.iter
    (fun (e : Payload.update) ->
      if e.Payload.node <= !prev then invalid_arg "Wire.encode: updates not strictly ascending";
      if e.Payload.node >= universe then invalid_arg "Wire.encode: identifier out of range";
      if e.Payload.version < 0 then invalid_arg "Wire.encode: negative version";
      if e.Payload.status < 0 || e.Payload.status > Payload.status_down then
        invalid_arg "Wire.encode: unknown update status";
      prev := e.Payload.node)
    entries

let updates_body (entries : Payload.update array) =
  let buf = Buffer.create (8 + (3 * Array.length entries)) in
  write_varint buf (Array.length entries);
  let prev = ref (-1) in
  Array.iter
    (fun (e : Payload.update) ->
      write_varint buf (e.Payload.node - !prev - 1);
      write_varint buf e.Payload.version;
      Buffer.add_char buf (Char.chr e.Payload.status);
      prev := e.Payload.node)
    entries;
  buf

let updates_body_size (entries : Payload.update array) =
  let total = ref (varint_size (Array.length entries)) in
  let prev = ref (-1) in
  Array.iter
    (fun (e : Payload.update) ->
      total := !total + varint_size (e.Payload.node - !prev - 1) + varint_size e.Payload.version + 1;
      prev := e.Payload.node)
    entries;
  !total

(* --- message framing ---

   byte 0: message kind (0 Share, 1 Exchange, 2 Reply, 3 Probe, 4 Halt,
     5 Probe_req, 6 Probe_ack, 7 Suspicion)
   byte 1 (data payloads only): body codec (0 raw32, 1 varint, 2 bitmap,
     3 updates) in the low bits, plus the snapshot-form flag (0x80) in
     the top bit and — update batches only — the full-state flag (0x40)
   rest: codec body. [Adaptive] picks the smaller of varint/bitmap.
   Update batches always use codec 3: the versions make them
   incompressible into the id-set codecs, and their encoding is
   independent of the [encoding] choice.

   The snapshot flag preserves the payload's in-memory form across the
   wire: algorithms distinguish a full-knowledge snapshot ([Bits]) from
   a small explicit list ([Ids]) — e.g. custody marking in hm — and the
   codec choice is a size decision that must not leak into protocol
   semantics. A decoded [Bits] means the sender passed [Bits],
   regardless of which body codec won. *)

let snapshot_flag = 0x80

let kind_tag = function
  | Payload.Share _ -> 0
  | Payload.Exchange _ -> 1
  | Payload.Reply _ -> 2
  | Payload.Probe -> 3
  | Payload.Halt -> 4
  | Payload.Probe_req _ -> 5
  | Payload.Probe_ack _ -> 6
  | Payload.Suspicion _ -> 7

(* Liveness control messages (kinds 5-7) carry two varints after the
   kind byte: the target identifier and a correlation value (the probe
   nonce or the suspected incarnation). No codec byte: the body shape is
   fixed by the kind, and canonical form is exactly the two varints with
   no trailing bytes. *)
let check_liveness ~universe ~target ~aux =
  if target < 0 || target >= universe then invalid_arg "Wire.encode: identifier out of range";
  if aux < 0 then invalid_arg "Wire.encode: negative correlation value"

let body_choice encoding ~universe ids =
  match encoding with
  | Raw32 -> `Raw
  | Varint_delta -> `Varint
  | Bitmap -> `Bitmap
  | Adaptive -> if varint_size_of ids <= bitmap_size ~universe then `Varint else `Bitmap

(* Every message but a snapshot, built in a growing buffer. *)
let encode_buffered encoding ~universe payload =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (kind_tag payload));
  (match payload with
  | Payload.Probe | Payload.Halt -> ()
  | Payload.Probe_req { target; nonce } | Payload.Probe_ack { target; nonce } ->
    check_liveness ~universe ~target ~aux:nonce;
    write_varint buf target;
    write_varint buf nonce
  | Payload.Suspicion { target; version } ->
    check_liveness ~universe ~target ~aux:version;
    write_varint buf target;
    write_varint buf version
  | Payload.Share (Payload.Updates u)
  | Payload.Exchange (Payload.Updates u)
  | Payload.Reply (Payload.Updates u) ->
    check_updates ~universe u.entries;
    Buffer.add_char buf (Char.chr (3 lor if u.full then updates_full_flag else 0));
    Buffer.add_buffer buf (updates_body u.entries)
  | Payload.Share d | Payload.Exchange d | Payload.Reply d ->
    let ids = ids_of_data d in
    check_range ~universe ids;
    (match body_choice encoding ~universe ids with
    | `Raw ->
      Buffer.add_char buf '\000';
      Buffer.add_buffer buf (raw32_body ids)
    | `Varint ->
      Buffer.add_char buf '\001';
      Buffer.add_buffer buf (varint_body ids)
    | `Bitmap ->
      Buffer.add_char buf '\002';
      Buffer.add_buffer buf (bitmap_body ~universe ids)));
  Buffer.to_bytes buf

(* Size-only fast paths: computing the exact encoded size must not cost
   more than the encoding decision itself. For [Bits] payloads the
   identifier list is never materialised — the varint body size is
   accumulated by iterating the set, and when the cardinality already
   reaches the bitmap width the varint body (>= 1 byte per identifier
   plus the count prefix) provably exceeds the bitmap, so [Adaptive] can
   choose the bitmap in O(1). The size is memoised in the snapshot's
   [vbytes] slot: a snapshot is shared across a whole fan-out (and, via
   {!Knowledge.snapshot}'s version cache, across rounds in the steady
   state), so each distinct knowledge state is walked once, not once per
   recipient per round. *)
(* Fold step for the set walk, with (prev + 1, running total) packed
   into one int so the accumulator stays immediate. Top-level so passing
   it to [Cset.fold] costs no closure. *)
let varint_bits_step acc v =
  let prev = (acc lsr 31) - 1 in
  ((v + 1) lsl 31) lor ((acc land 0x7FFFFFFF) + varint_size (v - prev - 1))

let varint_size_of_bits (b : Knowledge.snap) =
  if b.Knowledge.vbytes >= 0 then b.Knowledge.vbytes
  else begin
    let size =
      varint_size (Cset.cardinal b.Knowledge.set)
      + (Cset.fold varint_bits_step 0 b.Knowledge.set land 0x7FFFFFFF)
    in
    b.Knowledge.vbytes <- size;
    size
  end

(* Adaptive's rule for a snapshot, without materialising its ids: the
   varint body when it is no larger than the bitmap. A cardinality that
   already reaches the bitmap width settles it in O(1). *)
let bits_prefer_varint ~universe (b : Knowledge.snap) =
  Cset.cardinal b.Knowledge.set < bitmap_size ~universe
  && varint_size_of_bits b <= bitmap_size ~universe

let put_varint out pos v =
  let v = ref v and pos = ref pos in
  while !v >= 0x80 do
    Bytes.set out !pos (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7;
    incr pos
  done;
  Bytes.set out !pos (Char.unsafe_chr !v);
  !pos + 1

(* A [Bits] snapshot is written straight from its set into an exactly
   sized buffer — the same bytes the list path gives for
   [Ids (Cset.to_array set)], plus the snapshot flag, without building
   the list. *)
let encode_bits encoding ~universe kind (b : Knowledge.snap) =
  let set = b.Knowledge.set in
  (* a set bounded by the universe cannot hold an out-of-range id *)
  if Cset.capacity set > universe then
    Cset.iter
      (fun v -> if v >= universe then invalid_arg "Wire.encode: identifier out of range")
      set;
  let card = Cset.cardinal set in
  let codec =
    match encoding with
    | Raw32 -> 0
    | Varint_delta -> 1
    | Bitmap -> 2
    | Adaptive -> if bits_prefer_varint ~universe b then 1 else 2
  in
  let body =
    match codec with
    | 0 -> varint_size card + (4 * card)
    | 1 -> varint_size_of_bits b
    | _ -> bitmap_size ~universe
  in
  let out = Bytes.make (2 + body) '\000' in
  Bytes.set out 0 (Char.chr kind);
  Bytes.set out 1 (Char.chr (codec lor snapshot_flag));
  (match codec with
  | 0 ->
    let pos = ref (put_varint out 2 card) in
    Cset.iter
      (fun v ->
        Bytes.set_uint16_le out !pos (v land 0xFFFF);
        Bytes.set_uint16_le out (!pos + 2) ((v lsr 16) land 0xFFFF);
        pos := !pos + 4)
      set
  | 1 ->
    let pos = ref (put_varint out 2 card) in
    let prev = ref (-1) in
    Cset.iter
      (fun v ->
        pos := put_varint out !pos (v - !prev - 1);
        prev := v)
      set
  | _ ->
    if Cset.capacity set <= universe then Cset.blit_bitmap_bytes set out 2
    else
      Cset.iter
        (fun v ->
          let i = 2 + (v lsr 3) in
          Bytes.set out i (Char.unsafe_chr (Char.code (Bytes.get out i) lor (1 lsl (v land 7)))))
        set);
  out

let encode encoding ~universe payload =
  match payload with
  | Payload.Share (Payload.Bits b) | Payload.Exchange (Payload.Bits b)
  | Payload.Reply (Payload.Bits b) ->
    encode_bits encoding ~universe (kind_tag payload) b
  | _ -> encode_buffered encoding ~universe payload

(* For [Ids]/[Delta] payloads the canonical form is sorted and
   deduplicated, but materialising it as a list per sized message is the
   dominant allocator of a full run (delta windows are re-sent every
   round until acknowledged). Instead the identifiers are copied into a
   grow-only scratch array, sorted in place ({!Intvec.sort_prefix}), and
   walked once — domain-local because parallel sweeps size messages
   concurrently. *)
let size_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

(* Distinct count and varint body size of a sorted scratch prefix,
   skipping duplicates exactly as the canonical list form would. Packed
   as [count lsl 31 lor bytes] — returning a pair would put a tuple on
   the minor heap for every sized message. *)
let sorted_prefix_sizes arr m =
  let distinct = ref 0 in
  let vbytes = ref 0 in
  let prev = ref (-1) in
  for i = 0 to m - 1 do
    let v = arr.(i) in
    if v <> !prev then begin
      incr distinct;
      vbytes := !vbytes + varint_size (v - !prev - 1);
      prev := v
    end
  done;
  (!distinct lsl 31) lor !vbytes

let ids_sizes d =
  let scratch = Domain.DLS.get size_scratch in
  let m =
    match d with
    | Payload.Ids a -> Array.length a
    | Payload.Delta s -> Intvec.slice_length s
    | Payload.Bits _ | Payload.Updates _ -> invalid_arg "Wire.ids_sizes: non-id payload"
  in
  if Array.length !scratch < m then scratch := Array.make (max m (2 * Array.length !scratch)) 0;
  let arr = !scratch in
  (match d with
  | Payload.Ids a -> Array.blit a 0 arr 0 m
  | Payload.Delta s ->
    for i = 0 to m - 1 do
      arr.(i) <- Intvec.slice_get s i
    done
  | Payload.Bits _ | Payload.Updates _ -> ());
  Intvec.sort_prefix arr m;
  sorted_prefix_sizes arr m

let encoded_size encoding ~universe payload =
  match payload with
  | Payload.Probe | Payload.Halt -> 1
  | Payload.Probe_req { target; nonce } | Payload.Probe_ack { target; nonce } ->
    1 + varint_size target + varint_size nonce
  | Payload.Suspicion { target; version } -> 1 + varint_size target + varint_size version
  | Payload.Share d | Payload.Exchange d | Payload.Reply d ->
    let body =
      match (encoding, d) with
      | _, Payload.Updates u -> updates_body_size u.entries
      | Raw32, Payload.Bits b ->
        let card = Cset.cardinal b.Knowledge.set in
        varint_size card + (4 * card)
      | Varint_delta, Payload.Bits b -> varint_size_of_bits b
      | Bitmap, _ -> bitmap_size ~universe
      | Adaptive, Payload.Bits b ->
        if bits_prefer_varint ~universe b then varint_size_of_bits b else bitmap_size ~universe
      | (Raw32 | Varint_delta | Adaptive), (Payload.Ids _ | Payload.Delta _) ->
        let packed = ids_sizes d in
        let distinct = packed lsr 31 and vbytes = packed land 0x7FFFFFFF in
        let vsize = varint_size distinct + vbytes in
        (match encoding with
        | Raw32 -> varint_size distinct + (4 * distinct)
        | Varint_delta -> vsize
        | Bitmap | Adaptive -> min vsize (bitmap_size ~universe))
    in
    2 + body

(* Decoding is defensive: the input may come off a socket, so every
   malformed buffer — truncation, corruption, hostile lengths — must be
   reported as [Error], never raised, and must never trigger a large
   allocation (claimed element counts are validated against the bytes
   actually present before any array is sized from them). The raising
   internal form is wrapped once at the bottom. *)
let decode_exn ~universe bytes =
  if Bytes.length bytes < 1 then invalid_arg "Wire.decode: empty message";
  let kind = Char.code (Bytes.get bytes 0) in
  if kind = 3 || kind = 4 then begin
    if Bytes.length bytes <> 1 then invalid_arg "Wire.decode: oversized probe/halt";
    if kind = 3 then Payload.Probe else Payload.Halt
  end
  else if kind >= 5 && kind <= 7 then begin
    let pos = ref 1 in
    let target = read_varint bytes pos in
    if target < 0 || target >= universe then invalid_arg "Wire.decode: identifier out of range";
    let aux = read_varint bytes pos in
    if aux < 0 then invalid_arg "Wire.decode: correlation value overflow";
    (* canonical form is exactly two varints: trailing bytes are noise *)
    if !pos <> Bytes.length bytes then invalid_arg "Wire.decode: trailing bytes";
    match kind with
    | 5 -> Payload.Probe_req { target; nonce = aux }
    | 6 -> Payload.Probe_ack { target; nonce = aux }
    | _ -> Payload.Suspicion { target; version = aux }
  end
  else begin
    if kind > 2 then invalid_arg "Wire.decode: unknown message kind";
    if Bytes.length bytes < 2 then invalid_arg "Wire.decode: truncated header";
    let codec_byte = Char.code (Bytes.get bytes 1) in
    let snapshot = codec_byte land snapshot_flag <> 0 in
    let full = codec_byte land updates_full_flag <> 0 in
    let codec = codec_byte land 0x3F in
    if full && codec <> 3 then invalid_arg "Wire.decode: full flag on a non-update codec";
    if snapshot && codec = 3 then invalid_arg "Wire.decode: snapshot flag on an update batch";
    let pos = ref 2 in
    let data =
      match codec with
      | 0 ->
        let count = read_varint bytes pos in
        (* exact-length check before sizing the array: a hostile count
           cannot make us allocate more than the buffer itself implies *)
        if count < 0 || count > (Bytes.length bytes - !pos) / 4 then
          invalid_arg "Wire.decode: raw32 length mismatch";
        if Bytes.length bytes - !pos <> 4 * count then
          invalid_arg "Wire.decode: raw32 length mismatch";
        let out = Array.make count 0 in
        for i = 0 to count - 1 do
          let b k = Char.code (Bytes.get bytes (!pos + k)) in
          out.(i) <- b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24);
          pos := !pos + 4
        done;
        Payload.Ids out
      | 1 ->
        let count = read_varint bytes pos in
        (* each gap varint is at least one byte, so a valid count never
           exceeds the remaining length *)
        if count < 0 || count > Bytes.length bytes - !pos then
          invalid_arg "Wire.decode: varint count exceeds buffer";
        let out = Array.make count 0 in
        let prev = ref (-1) in
        for i = 0 to count - 1 do
          let gap = read_varint bytes pos in
          let v = !prev + 1 + gap in
          (* checked per element: gap-sum overflow would otherwise wrap
             negative and slip past a final >= universe test *)
          if v < 0 || v >= universe then invalid_arg "Wire.decode: identifier out of range";
          out.(i) <- v;
          prev := v
        done;
        if !pos <> Bytes.length bytes then invalid_arg "Wire.decode: trailing bytes";
        Payload.Ids out
      | 2 ->
        let width = (universe + 7) / 8 in
        if Bytes.length bytes - 2 <> width then invalid_arg "Wire.decode: bitmap width mismatch";
        (* bits of the final partial byte beyond [universe) would be
           silently dropped; reject them as corruption instead *)
        if universe land 7 <> 0 then begin
          let last = Char.code (Bytes.get bytes (Bytes.length bytes - 1)) in
          if last lsr (universe land 7) <> 0 then
            invalid_arg "Wire.decode: bitmap has bits beyond the universe"
        end;
        Payload.Bits (Knowledge.external_snapshot (Cset.of_bitmap_bytes universe bytes 2))
      | 3 ->
        let count = read_varint bytes pos in
        (* each entry is at least three bytes (gap, version, status), so
           a valid count never exceeds a third of the remaining length *)
        if count < 0 || count > (Bytes.length bytes - !pos) / 3 then
          invalid_arg "Wire.decode: updates count exceeds buffer";
        let entries = Array.make count { Payload.node = 0; version = 0; status = 0 } in
        let prev = ref (-1) in
        for i = 0 to count - 1 do
          let gap = read_varint bytes pos in
          let node = !prev + 1 + gap in
          if node < 0 || node >= universe then invalid_arg "Wire.decode: identifier out of range";
          let version = read_varint bytes pos in
          if version < 0 then invalid_arg "Wire.decode: version overflow";
          if !pos >= Bytes.length bytes then invalid_arg "Wire.decode: truncated update status";
          let status = Char.code (Bytes.get bytes !pos) in
          incr pos;
          if status > Payload.status_down then invalid_arg "Wire.decode: unknown update status";
          entries.(i) <- { Payload.node; version; status };
          prev := node
        done;
        if !pos <> Bytes.length bytes then invalid_arg "Wire.decode: trailing bytes";
        Payload.Updates { full; entries }
      | _ -> invalid_arg "Wire.decode: unknown body codec"
    in
    (match data with
    | Payload.Ids out ->
      Array.iter
        (fun v -> if v < 0 || v >= universe then invalid_arg "Wire.decode: identifier out of range")
        out
    | Payload.Bits _ | Payload.Delta _ | Payload.Updates _ -> ());
    (* restore the sender's form: the body codec was a size decision *)
    let data =
      match (data, snapshot) with
      | Payload.Ids out, true ->
        let bits = Cset.create universe in
        Array.iter (fun v -> ignore (Cset.add bits v)) out;
        Payload.Bits (Knowledge.external_snapshot bits)
      | Payload.Bits b, false -> Payload.Ids (Cset.to_array b.Knowledge.set)
      | (Payload.Ids _ | Payload.Bits _ | Payload.Delta _ | Payload.Updates _), _ -> data
    in
    match kind with
    | 0 -> Payload.Share data
    | 1 -> Payload.Exchange data
    | 2 -> Payload.Reply data
    | _ -> invalid_arg "Wire.decode: unknown message kind"
  end

let decode _encoding ~universe bytes =
  if universe < 0 then Error "Wire.decode: negative universe"
  else match decode_exn ~universe bytes with
    | payload -> Ok payload
    | exception Invalid_argument msg -> Error msg
