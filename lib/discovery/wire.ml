open Repro_util

type encoding = Raw32 | Varint_delta | Bitmap | Adaptive

let encoding_name = function
  | Raw32 -> "raw32"
  | Varint_delta -> "varint"
  | Bitmap -> "bitmap"
  | Adaptive -> "adaptive"

let all_encodings = [ Raw32; Varint_delta; Bitmap; Adaptive ]

(* --- primitive writers/readers --- *)

(* Bytes in [v]'s varint; a negative value, which no writer puts on the
   wire, counts one. Inlined: a one-byte varint costs one test. *)
let[@inline] varint_size v =
  let n = ref 1 and v = ref v in
  while !v >= 0x80 do
    incr n;
    v := !v lsr 7
  done;
  !n

let[@inline] put_varint out pos v =
  let v = ref v and pos = ref pos in
  while !v >= 0x80 do
    Bytes.set out !pos (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7;
    incr pos
  done;
  Bytes.set out !pos (Char.unsafe_chr !v);
  !pos + 1

(* The varint at [pos], which must end before [stop]. Only the minimal
   form of a non-negative value is accepted, so the varint is exactly
   [varint_size v] bytes long: callers advance by that, and keep their
   position in an unboxed local. *)
let read_varint bytes pos stop =
  let v = ref 0 and shift = ref 0 and continue = ref true and pos = ref pos in
  while !continue do
    if !pos >= stop then invalid_arg "Wire.decode: truncated varint";
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    (* a zero final group after the first is a padded, non-minimal
       form: canonical input re-encodes to the same bytes *)
    if b = 0 && !shift > 0 then invalid_arg "Wire.decode: non-minimal varint";
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
    else if !shift > 62 then invalid_arg "Wire.decode: varint overflow"
  done;
  if !v < 0 then invalid_arg "Wire.decode: varint overflow";
  !v

(* [read_varint], with a one-byte varint (most gaps and versions) read
   in place; any other byte, or none, goes through its checks. *)
let[@inline] read_varint_fast bytes pos stop =
  let b = if pos < stop then Char.code (Bytes.get bytes pos) else 0x80 in
  if b < 0x80 then b else read_varint bytes pos stop

let bitmap_size ~universe = (universe + 7) / 8

(* --- update-batch codec (body codec 3) ---

   Canonical form required of the payload (see {!Payload.Updates}): a
   window of [count] entries that fits its flat array, sorted by node,
   strictly ascending (one entry per node). Body: varint count, then per
   entry a varint node gap (node - prev - 1), a varint version and one
   status byte. The 0x40 bit of the codec byte carries the batch's
   [full] flag. *)

let updates_full_flag = 0x40

(* A batch's body size, checked for canonical form in the same pass. *)
let updates_body_size ~universe ~count entries =
  if count < 0 || count > Array.length entries / 2 then
    invalid_arg "Wire.encode: update count outside its array";
  let total = ref (varint_size count) in
  let prev = ref (-1) in
  for i = 0 to count - 1 do
    let node = Payload.update_node entries i in
    let version = Payload.update_version entries i in
    if node <= !prev then invalid_arg "Wire.encode: updates not strictly ascending";
    if node >= universe then invalid_arg "Wire.encode: identifier out of range";
    if version < 0 then invalid_arg "Wire.encode: negative version";
    if Payload.update_status entries i > Payload.status_down then
      invalid_arg "Wire.encode: unknown update status";
    total := !total + varint_size (node - !prev - 1) + varint_size version + 1;
    prev := node
  done;
  !total

(* --- message framing ---

   byte 0: message kind (0 Share, 1 Exchange, 2 Reply, 3 Probe, 4 Halt,
     5 Probe_req, 6 Probe_ack, 7 Suspicion, 8 Sync)
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
  | Payload.Sync _ -> 8

(* Liveness control messages (kinds 5-7) carry two varints after the
   kind byte: the target identifier and a correlation value (the probe
   nonce or the suspected incarnation). No codec byte: the body shape is
   fixed by the kind, and canonical form is exactly the two varints with
   no trailing bytes. *)
let check_liveness ~universe ~target ~aux =
  if target < 0 || target >= universe then invalid_arg "Wire.encode: identifier out of range";
  if aux < 0 then invalid_arg "Wire.encode: negative correlation value"

(* A sync digest (kind 8) is one varint after the kind byte: a
   non-negative 62-bit value, so at most 9 bytes. Canonical form is
   exactly that varint, minimal, with no trailing bytes. *)
let encode_sync ~room digest =
  if digest < 0 then invalid_arg "Wire.encode: negative digest";
  let out = Bytes.create (room + 1 + varint_size digest) in
  Bytes.set out room (Char.unsafe_chr 8);
  ignore (put_varint out (room + 1) digest);
  out

(* --- the id-set codecs: one rule, one writer ---

   An id-set body is one of three codecs (codec byte 0 raw32, 1 varint,
   2 bitmap) over the set's distinct ids in ascending order:
   - raw32: varint count, then 4 little-endian bytes per id;
   - varint: varint count, then per id a varint gap (id - prev - 1);
   - bitmap: ⌈universe/8⌉ bytes, bit [id land 7] of byte [id lsr 3].
   [Bits] snapshots are walked into a scratch array (unless their body
   is a bitmap blit); [Ids]/[Delta] lists are sorted and deduplicated
   into it. Both then go through the same codec rule ({!codec_of}), the
   same size ({!body_size}) and the same writer ({!write_body}), so
   [encode] writes exactly [encoded_size] bytes. *)

(* The body codec of a set of [card] distinct ids. [Adaptive] takes the
   varint body when it is no larger than the bitmap. A varint body is at
   least one byte per id plus its count prefix, so a cardinality that
   reaches the bitmap width settles the rule in O(1). [vbytes x] is the
   varint body's size; it is only applied when the rule needs it, since
   for a snapshot it is a walk of the set. *)
let codec_of encoding ~universe ~card vbytes x =
  match encoding with
  | Raw32 -> 0
  | Varint_delta -> 1
  | Bitmap -> 2
  | Adaptive ->
    let width = bitmap_size ~universe in
    if card < width && vbytes x <= width then 1 else 2

let body_size codec ~universe ~card vbytes x =
  match codec with
  | 0 -> varint_size card + (4 * card)
  | 1 -> vbytes x
  | _ -> bitmap_size ~universe

(* The [codec] body of the ascending, distinct ids [arr.(0 .. card-1)],
   written into the zeroed, exactly sized [out] from byte [at]. Plain
   loops: no closure and no boxed counter per message. *)
let write_body codec out ~at arr card =
  match codec with
  | 0 ->
    let pos = ref (put_varint out at card) in
    for i = 0 to card - 1 do
      let v = arr.(i) in
      Bytes.set_uint16_le out !pos (v land 0xFFFF);
      Bytes.set_uint16_le out (!pos + 2) ((v lsr 16) land 0xFFFF);
      pos := !pos + 4
    done
  | 1 ->
    let pos = ref (put_varint out at card) in
    let prev = ref (-1) in
    for i = 0 to card - 1 do
      let v = arr.(i) in
      pos := put_varint out !pos (v - !prev - 1);
      prev := v
    done
  | _ ->
    for i = 0 to card - 1 do
      let v = arr.(i) in
      let j = at + (v lsr 3) in
      Bytes.set out j (Char.unsafe_chr (Char.code (Bytes.get out j) lor (1 lsl (v land 7))))
    done

(* A zeroed id-set message of [body] body bytes after [room] bytes of
   room: kind byte at [room], codec byte at [room + 1]. *)
let id_frame ~room kind codec_byte body =
  let out = Bytes.make (room + 2 + body) '\000' in
  Bytes.set out room (Char.unsafe_chr kind);
  Bytes.set out (room + 1) (Char.unsafe_chr codec_byte);
  out

(* Fold step for the set walk, with (prev + 1, running total) packed
   into one int so the accumulator stays immediate. Top-level so passing
   it to [Cset.fold] costs no closure. *)
let varint_bits_step acc v =
  let prev = (acc lsr 31) - 1 in
  ((v + 1) lsl 31) lor ((acc land 0x7FFFFFFF) + varint_size (v - prev - 1))

(* A snapshot's varint body size, memoised in its [vbytes] slot: a
   snapshot is shared across a whole fan-out (and, via
   {!Knowledge.snapshot}'s version cache, across rounds in the steady
   state), so each distinct knowledge state is walked once, not once per
   recipient per round. *)
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

(* [Ids]/[Delta] lists are sorted in a grow-only scratch array
   ({!Intvec.sort_prefix}) rather than materialised as a list per
   message: delta windows are re-sent every round until acknowledged,
   so a list per sized or encoded message would be the dominant
   allocator of a full run. Domain-local because parallel sweeps size
   messages concurrently. *)
let size_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

(* Grow the scratch to hold [m] ids; returns it. *)
let scratch_for m =
  let scratch = Domain.DLS.get size_scratch in
  if Array.length !scratch < m then scratch := Array.make (max m (2 * Array.length !scratch)) 0;
  !scratch

(* A set's ids are walked into the scratch by one sink per domain,
   built once with its closure, so a walk allocates nothing. *)
type sink = { into : int array ref; mutable len : int; push : int -> unit }

let sink_key =
  Domain.DLS.new_key (fun () ->
      let rec s =
        {
          into = Domain.DLS.get size_scratch;
          len = 0;
          push =
            (fun v ->
              !(s.into).(s.len) <- v;
              s.len <- s.len + 1);
        }
      in
      s)

(* The set's ids, ascending, in the scratch's first [cardinal] slots. *)
let collect set =
  let arr = scratch_for (Cset.cardinal set) in
  let s = Domain.DLS.get sink_key in
  s.len <- 0;
  Cset.iter s.push set;
  arr

(* A [Bits] snapshot is written from its set, with the snapshot flag on
   its codec byte. A bitmap body of a set bounded by the universe is a
   blit of the set's own bitmap bytes; any other body is written from
   the set's ids walked into the scratch, where the largest also shows
   whether a set wider than the universe holds an out-of-range id. *)
let encode_bits encoding ~universe ~room kind (b : Knowledge.snap) =
  let set = b.Knowledge.set in
  let card = Cset.cardinal set in
  let codec = codec_of encoding ~universe ~card varint_size_of_bits b in
  let blit = codec = 2 && Cset.capacity set <= universe in
  let arr = if blit then [||] else collect set in
  if (not blit) && card > 0 && arr.(card - 1) >= universe then
    invalid_arg "Wire.encode: identifier out of range";
  let out =
    id_frame ~room kind (codec lor snapshot_flag)
      (body_size codec ~universe ~card varint_size_of_bits b)
  in
  if blit then Cset.blit_bitmap_bytes set out (room + 2)
  else write_body codec out ~at:(room + 2) arr card;
  out

(* Sort a list payload's ids into the scratch and drop duplicates in
   place; returns the distinct count [card]: the canonical set is then
   the scratch's first [card] slots. *)
let sort_ids d =
  let m =
    match d with
    | Payload.Ids a -> Array.length a
    | Payload.Delta s -> Intvec.slice_length s
    | Payload.Bits _ | Payload.Updates _ -> invalid_arg "Wire.sort_ids: non-list payload"
  in
  let arr = scratch_for m in
  (match d with
  | Payload.Ids a -> Intvec.blit_ints a 0 arr 0 m
  | Payload.Delta s ->
    for i = 0 to m - 1 do
      arr.(i) <- Intvec.slice_get s i
    done
  | Payload.Bits _ | Payload.Updates _ -> ());
  Intvec.sort_prefix arr m;
  let card = ref (min m 1) in
  for i = 1 to m - 1 do
    let v = arr.(i) in
    if v <> arr.(!card - 1) then begin
      arr.(!card) <- v;
      incr card
    end
  done;
  !card

(* Varint body size of the scratch's first [card] ids. *)
let sorted_vbytes arr card =
  let total = ref (varint_size card) and prev = ref (-1) in
  for i = 0 to card - 1 do
    total := !total + varint_size (arr.(i) - !prev - 1);
    prev := arr.(i)
  done;
  !total

let encode_ids encoding ~universe ~room kind d =
  let card = sort_ids d in
  let arr = !(Domain.DLS.get size_scratch) in
  if card > 0 && (arr.(0) < 0 || arr.(card - 1) >= universe) then
    invalid_arg "Wire.encode: identifier out of range";
  let vbytes = sorted_vbytes arr card in
  let codec = codec_of encoding ~universe ~card Fun.id vbytes in
  let out = id_frame ~room kind codec (body_size codec ~universe ~card Fun.id vbytes) in
  write_body codec out ~at:(room + 2) arr card;
  out

(* Kinds 3-8 and update batches are written straight into one exactly
   sized buffer: a probe costs its one-byte block and nothing else. *)
let encode_liveness kind ~universe ~room ~target ~aux =
  check_liveness ~universe ~target ~aux;
  let out = Bytes.create (room + 1 + varint_size target + varint_size aux) in
  Bytes.set out room (Char.unsafe_chr kind);
  ignore (put_varint out (put_varint out (room + 1) target) aux);
  out

let encode_updates ~universe ~room kind ~full ~count entries =
  let out = Bytes.create (room + 2 + updates_body_size ~universe ~count entries) in
  Bytes.set out room (Char.unsafe_chr kind);
  Bytes.set out (room + 1) (Char.unsafe_chr (3 lor if full then updates_full_flag else 0));
  let pos = ref (put_varint out (room + 2) count) in
  let prev = ref (-1) in
  for i = 0 to count - 1 do
    let node = Payload.update_node entries i in
    pos := put_varint out !pos (node - !prev - 1);
    pos := put_varint out !pos (Payload.update_version entries i);
    Bytes.set out !pos (Char.unsafe_chr (Payload.update_status entries i));
    incr pos;
    prev := node
  done;
  out

let encode encoding ~universe ~room payload =
  if room < 0 then invalid_arg "Wire.encode: negative room";
  let kind = kind_tag payload in
  match payload with
  | Payload.Probe | Payload.Halt ->
    let out = Bytes.create (room + 1) in
    Bytes.set out room (Char.unsafe_chr kind);
    out
  | Payload.Probe_req { target; nonce } | Payload.Probe_ack { target; nonce } ->
    encode_liveness kind ~universe ~room ~target ~aux:nonce
  | Payload.Suspicion { target; version } ->
    encode_liveness kind ~universe ~room ~target ~aux:version
  | Payload.Sync { digest } -> encode_sync ~room digest
  | Payload.Share (Payload.Bits b) | Payload.Exchange (Payload.Bits b)
  | Payload.Reply (Payload.Bits b) ->
    encode_bits encoding ~universe ~room kind b
  | Payload.Share (Payload.Updates u)
  | Payload.Exchange (Payload.Updates u)
  | Payload.Reply (Payload.Updates u) ->
    encode_updates ~universe ~room kind ~full:u.full ~count:u.count u.entries
  | Payload.Share d | Payload.Exchange d | Payload.Reply d ->
    encode_ids encoding ~universe ~room kind d

let encoded_size encoding ~universe payload =
  match payload with
  | Payload.Probe | Payload.Halt -> 1
  | Payload.Probe_req { target; nonce } | Payload.Probe_ack { target; nonce } ->
    1 + varint_size target + varint_size nonce
  | Payload.Suspicion { target; version } -> 1 + varint_size target + varint_size version
  | Payload.Sync { digest } ->
    if digest < 0 then invalid_arg "Wire.encode: negative digest";
    1 + varint_size digest
  | Payload.Share (Payload.Updates u)
  | Payload.Exchange (Payload.Updates u)
  | Payload.Reply (Payload.Updates u) ->
    2 + updates_body_size ~universe ~count:u.count u.entries
  | Payload.Share (Payload.Bits b) | Payload.Exchange (Payload.Bits b)
  | Payload.Reply (Payload.Bits b) ->
    let card = Cset.cardinal b.Knowledge.set in
    let codec = codec_of encoding ~universe ~card varint_size_of_bits b in
    2 + body_size codec ~universe ~card varint_size_of_bits b
  | Payload.Share d | Payload.Exchange d | Payload.Reply d ->
    let card = sort_ids d in
    let vbytes = sorted_vbytes !(Domain.DLS.get size_scratch) card in
    2 + body_size (codec_of encoding ~universe ~card Fun.id vbytes) ~universe ~card Fun.id vbytes

(* The engine sizes every message it accounts, and a fan-out hands one
   payload value to each of its recipients in a row, so remembering the
   last payload, by physical equality, sizes each fan-out once. The memo
   starts at [Probe], a constant whose size is its own. *)
let sizer encoding ~universe =
  let last = ref Payload.Probe and size = ref (encoded_size encoding ~universe Payload.Probe) in
  fun payload ->
    if payload != !last then begin
      size := encoded_size encoding ~universe payload;
      last := payload
    end;
    !size

(* Decoding is defensive: the input may come off a socket, so every
   malformed buffer — truncation, corruption, hostile lengths — must be
   reported as [Error], never raised, and must never trigger a large
   allocation (claimed element counts are validated against the bytes
   actually present before any array is sized from them). The message
   is the [len] bytes at [off]; nothing outside them is read. The
   raising internal form is wrapped once at the bottom. *)

(* The set a list-form id body is not built into: never written. *)
let no_set = Cset.create 0

(* Decoded update batches are written into one grow-only array per
   domain and lent to the receiver (see [decode] in wire.mli): a
   full-state batch of a few hundred entries is above the minor heap's
   size limit, so a fresh array per batch would go straight to the major
   heap. Domain-local because parallel sweeps decode concurrently. *)
let batch_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let decode_exn ~universe bytes ~off ~len =
  let stop = off + len in
  if len < 1 then invalid_arg "Wire.decode: empty message";
  let kind = Char.code (Bytes.get bytes off) in
  if kind = 3 || kind = 4 then begin
    if len <> 1 then invalid_arg "Wire.decode: oversized probe/halt";
    if kind = 3 then Payload.Probe else Payload.Halt
  end
  else if kind >= 5 && kind <= 7 then begin
    let pos = ref (off + 1) in
    let target = read_varint bytes !pos stop in
    pos := !pos + varint_size target;
    if target >= universe then invalid_arg "Wire.decode: identifier out of range";
    let aux = read_varint bytes !pos stop in
    pos := !pos + varint_size aux;
    (* canonical form is exactly two varints: trailing bytes are noise *)
    if !pos <> stop then invalid_arg "Wire.decode: trailing bytes";
    match kind with
    | 5 -> Payload.Probe_req { target; nonce = aux }
    | 6 -> Payload.Probe_ack { target; nonce = aux }
    | _ -> Payload.Suspicion { target; version = aux }
  end
  else if kind = 8 then begin
    let digest = read_varint bytes (off + 1) stop in
    if off + 1 + varint_size digest <> stop then invalid_arg "Wire.decode: trailing bytes";
    Payload.Sync { digest }
  end
  else begin
    if kind > 2 then invalid_arg "Wire.decode: unknown message kind";
    if len < 2 then invalid_arg "Wire.decode: truncated header";
    let codec_byte = Char.code (Bytes.get bytes (off + 1)) in
    let snapshot = codec_byte land snapshot_flag <> 0 in
    let full = codec_byte land updates_full_flag <> 0 in
    let codec = codec_byte land 0x3F in
    if full && codec <> 3 then invalid_arg "Wire.decode: full flag on a non-update codec";
    if snapshot && codec = 3 then invalid_arg "Wire.decode: snapshot flag on an update batch";
    let pos = ref (off + 2) in
    (* The snapshot flag restores the sender's form: the body codec was
       a size decision. A snapshot is built straight into its set, a
       list into its array, whichever codec carried the ids. *)
    let data =
      match codec with
      | 0 | 1 ->
        let count = read_varint bytes !pos stop in
        pos := !pos + varint_size count;
        (* validated before anything is sized from it: a raw32 body is
           exactly 4 bytes per id, and each varint gap is at least one
           byte, so a valid count never exceeds the remaining length *)
        if codec = 0 then begin
          if count > (stop - !pos) / 4 || stop - !pos <> 4 * count then
            invalid_arg "Wire.decode: raw32 length mismatch"
        end
        else if count > stop - !pos then
          invalid_arg "Wire.decode: varint count exceeds buffer";
        let set = if snapshot then Cset.create universe else no_set in
        let out = if snapshot then [||] else Array.make count 0 in
        let prev = ref (-1) in
        for i = 0 to count - 1 do
          let v =
            if codec = 0 then begin
              let p = !pos in
              pos := p + 4;
              let b k = Char.code (Bytes.get bytes (p + k)) in
              b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
            end
            else begin
              let gap = read_varint_fast bytes !pos stop in
              pos := !pos + varint_size gap;
              !prev + 1 + gap
            end
          in
          (* checked per element: gap-sum overflow would otherwise wrap
             negative and slip past a final >= universe test *)
          if v < 0 || v >= universe then invalid_arg "Wire.decode: identifier out of range";
          if snapshot then ignore (Cset.add set v) else out.(i) <- v;
          prev := v
        done;
        if !pos <> stop then invalid_arg "Wire.decode: trailing bytes";
        if snapshot then Payload.Bits (Knowledge.external_snapshot set) else Payload.Ids out
      | 2 ->
        let width = (universe + 7) / 8 in
        if len - 2 <> width then invalid_arg "Wire.decode: bitmap width mismatch";
        (* bits of the final partial byte beyond [universe) would be
           silently dropped; reject them as corruption instead *)
        if universe land 7 <> 0 then begin
          let last = Char.code (Bytes.get bytes (stop - 1)) in
          if last lsr (universe land 7) <> 0 then
            invalid_arg "Wire.decode: bitmap has bits beyond the universe"
        end;
        let set = Cset.of_bitmap_bytes universe bytes (off + 2) in
        if snapshot then Payload.Bits (Knowledge.external_snapshot set)
        else Payload.Ids (Cset.to_array set)
      | 3 ->
        let count = read_varint bytes !pos stop in
        pos := !pos + varint_size count;
        (* each entry is at least three bytes (gap, version, status), so
           a valid count never exceeds a third of the remaining length *)
        if count > (stop - !pos) / 3 then
          invalid_arg "Wire.decode: updates count exceeds buffer";
        (* grown only now, to a count the bytes present can hold *)
        let scratch = Domain.DLS.get batch_scratch in
        if Array.length !scratch < 2 * count then scratch := Array.make (2 * count) 0;
        let entries = !scratch in
        let prev = ref (-1) in
        for i = 0 to count - 1 do
          let gap = read_varint_fast bytes !pos stop in
          pos := !pos + varint_size gap;
          let node = !prev + 1 + gap in
          if node < 0 || node >= universe then invalid_arg "Wire.decode: identifier out of range";
          let version = read_varint_fast bytes !pos stop in
          pos := !pos + varint_size version;
          if !pos >= stop then invalid_arg "Wire.decode: truncated update status";
          let status = Char.code (Bytes.get bytes !pos) in
          incr pos;
          if status > Payload.status_down then invalid_arg "Wire.decode: unknown update status";
          Payload.set_update entries i ~node ~version ~status;
          prev := node
        done;
        if !pos <> stop then invalid_arg "Wire.decode: trailing bytes";
        Payload.Updates { full; count; entries }
      | _ -> invalid_arg "Wire.decode: unknown body codec"
    in
    match kind with
    | 0 -> Payload.Share data
    | 1 -> Payload.Exchange data
    | 2 -> Payload.Reply data
    | _ -> invalid_arg "Wire.decode: unknown message kind"
  end

let snapshot_kind bytes ~off ~len =
  if len < 2 || off < 0 || off > Bytes.length bytes - len then -1
  else
    let kind = Char.code (Bytes.get bytes off) in
    if kind <= 2 && Char.code (Bytes.get bytes (off + 1)) land snapshot_flag <> 0 then kind
    else -1

let decode ~universe bytes ~off ~len =
  if universe < 0 then Error "Wire.decode: negative universe"
  else if off < 0 || len < 0 || off > Bytes.length bytes - len then
    Error "Wire.decode: slice out of bounds"
  else
    match decode_exn ~universe bytes ~off ~len with
    | payload -> Ok payload
    | exception Invalid_argument msg -> Error msg
