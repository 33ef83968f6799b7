(* Tests for the wire codecs: round-trips, size accounting, framing
   validation, and the adaptive choice. *)

open Repro_util
open Repro_discovery

let universe = 300

(* a whole message in a buffer of its own *)
let encode e ~universe p = Wire.encode e ~universe ~room:0 p
let decode ~universe b = Wire.decode ~universe b ~off:0 ~len:(Bytes.length b)

let bsnap n ids = Knowledge.external_snapshot (Cset.of_array n ids)

(* The sorted identifier set a payload carries (empty for the detector
   and control payloads): the equality of the round-trip laws. *)
let ids_of_payload = function
  | Payload.Share d | Payload.Exchange d | Payload.Reply d -> (
    match d with
    | Payload.Bits b -> Array.to_list (Cset.to_array b.Knowledge.set)
    | Payload.Ids a -> List.sort_uniq Int.compare (Array.to_list a)
    | Payload.Delta s -> List.sort_uniq Int.compare (Array.to_list (Intvec.slice_to_array s))
    | Payload.Updates u -> List.init u.count (Payload.update_node u.entries))
  | Payload.Probe | Payload.Halt | Payload.Probe_req _ | Payload.Probe_ack _
  | Payload.Suspicion _ | Payload.Sync _ -> []

let payload_testable =
  Alcotest.testable
    (fun ppf p -> Format.fprintf ppf "%a" Payload.pp p)
    (fun a b -> ids_of_payload a = ids_of_payload b && Payload.(measure Probe) >= 0)

let roundtrip encoding p =
  match decode ~universe (encode encoding ~universe p) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "%s: valid encoding rejected: %s" (Wire.encoding_name encoding) msg

let test_probe_roundtrip () =
  List.iter
    (fun e ->
      match roundtrip e Payload.Probe with
      | Payload.Probe -> ()
      | other ->
        Alcotest.failf "%s probe decoded as %s" (Wire.encoding_name e)
          (Format.asprintf "%a" Payload.pp other))
    Wire.all_encodings

let test_halt_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.(check int) "halt is one byte" 1 (Wire.encoded_size e ~universe Payload.Halt);
      match roundtrip e Payload.Halt with
      | Payload.Halt -> ()
      | other ->
        Alcotest.failf "%s halt decoded as %s" (Wire.encoding_name e)
          (Format.asprintf "%a" Payload.pp other))
    Wire.all_encodings

let test_kind_preserved () =
  let data = Payload.Ids [| 3; 7; 200 |] in
  List.iter
    (fun (p, expect) ->
      match (roundtrip Wire.Adaptive p, expect) with
      | Payload.Share _, `Share | Payload.Exchange _, `Exchange | Payload.Reply _, `Reply -> ()
      | got, _ ->
        Alcotest.failf "kind lost: got %s" (Format.asprintf "%a" Payload.pp got))
    [ (Payload.Share data, `Share); (Payload.Exchange data, `Exchange); (Payload.Reply data, `Reply) ]

let test_ids_roundtrip_all () =
  let sets = [ [||]; [| 0 |]; [| universe - 1 |]; [| 5; 5; 5 |]; [| 9; 1; 250; 42 |] ] in
  List.iter
    (fun e ->
      List.iter
        (fun ids ->
          let p = Payload.Share (Payload.Ids ids) in
          let back = roundtrip e p in
          Alcotest.(check (list int))
            (Printf.sprintf "%s roundtrip" (Wire.encoding_name e))
            (List.sort_uniq compare (Array.to_list ids))
            (ids_of_payload back))
        sets)
    Wire.all_encodings

let test_bits_roundtrip () =
  let bits = bsnap universe [| 0; 1; 63; 64; 299 |] in
  List.iter
    (fun e ->
      let back = roundtrip e (Payload.Reply (Payload.Bits bits)) in
      Alcotest.(check (list int))
        (Wire.encoding_name e)
        [ 0; 1; 63; 64; 299 ]
        (ids_of_payload back))
    Wire.all_encodings

let test_form_preserved () =
  (* the snapshot-vs-list distinction carries protocol meaning (custody
     marking); it must survive every codec in both directions *)
  let is_bits = function
    | Payload.Share d | Payload.Exchange d | Payload.Reply d -> (
      match d with
      | Payload.Bits _ -> true
      | Payload.Ids _ | Payload.Delta _ | Payload.Updates _ -> false)
    | Payload.Probe | Payload.Halt | Payload.Probe_req _ | Payload.Probe_ack _
    | Payload.Suspicion _ | Payload.Sync _ ->
      false
  in
  List.iter
    (fun e ->
      List.iter
        (fun (p, expect) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s preserves form" (Wire.encoding_name e))
            expect
            (is_bits (roundtrip e p)))
        [
          (* a sparse snapshot: varint wins under Adaptive, yet Bits must survive *)
          (Payload.Share (Payload.Bits (bsnap universe [| 3; 9 |])), true);
          (* a dense snapshot: bitmap wins *)
          ( Payload.Reply (Payload.Bits (bsnap universe (Array.init universe Fun.id))),
            true );
          (* an explicit list dense enough for the bitmap codec must NOT
             come back as a snapshot *)
          (Payload.Share (Payload.Ids (Array.init universe Fun.id)), false);
          (Payload.Exchange (Payload.Ids [| 1; 5 |]), false);
        ])
    Wire.all_encodings

let test_size_matches_encode () =
  let payloads =
    [
      Payload.Probe;
      Payload.Share (Payload.Ids [||]);
      Payload.Share (Payload.Ids (Array.init 50 (fun i -> i * 3)));
      Payload.Exchange (Payload.Bits (bsnap universe [| 1; 2; 100 |]));
      Payload.Reply (Payload.Bits (bsnap universe (Array.init universe (fun i -> i))));
      Payload.Sync { digest = 0 };
      Payload.Sync { digest = max_int };
    ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "%s size" (Wire.encoding_name e))
            (Bytes.length (encode e ~universe p))
            (Wire.encoded_size e ~universe p))
        payloads)
    Wire.all_encodings

let test_relative_sizes () =
  (* a small delta: varint beats bitmap; a full set: bitmap wins *)
  let small = Payload.Share (Payload.Ids [| 1; 2; 3 |]) in
  let full = Payload.Share (Payload.Bits (bsnap universe (Array.init universe Fun.id))) in
  let size e p = Wire.encoded_size e ~universe p in
  Alcotest.(check bool) "varint < bitmap on small" true
    (size Wire.Varint_delta small < size Wire.Bitmap small);
  Alcotest.(check bool) "bitmap < varint on full" true
    (size Wire.Bitmap full < size Wire.Varint_delta full);
  Alcotest.(check bool) "adaptive <= varint (small)" true
    (size Wire.Adaptive small <= size Wire.Varint_delta small + 0);
  Alcotest.(check bool) "adaptive <= bitmap (full)" true
    (size Wire.Adaptive full <= size Wire.Bitmap full + 0);
  Alcotest.(check bool) "raw32 is the baseline" true
    (size Wire.Raw32 small >= size Wire.Varint_delta small)

(* The sizer remembers the last payload by physical equality: over
   repeats, alternations and a payload re-sent after others it agrees
   with [encoded_size] every time, and a structurally equal but
   physically distinct payload is sized afresh (its snapshot's cached
   varint size, unset, is computed). *)
let test_sizer_matches_encoded_size () =
  let learn = Intvec.of_array [| 40; 41; 90; 3; 7; 250 |] in
  let a = Payload.Share (Payload.Ids [| 9; 1; 5; 1 |])
  and b = Payload.Share (Payload.Delta (Intvec.slice learn ~pos:1 ~len:5))
  and c = Payload.Reply (Payload.Bits (bsnap universe (Array.init 200 Fun.id)))
  and d = Payload.Exchange (Payload.Ids [| 299 |]) in
  let sequence = [ a; a; a; b; a; b; a; c; c; Payload.Probe; b; d; a; Payload.Halt; a; d; d ] in
  List.iter
    (fun e ->
      let size = Wire.sizer e ~universe in
      List.iteri
        (fun i p ->
          Alcotest.(check int)
            (Printf.sprintf "%s, message %d" (Wire.encoding_name e) i)
            (Wire.encoded_size e ~universe p) (size p))
        sequence)
    Wire.all_encodings;
  let snap () = bsnap universe [| 1; 2; 3 |] in
  let s1 = snap () and s2 = snap () in
  let size = Wire.sizer Wire.Varint_delta ~universe in
  let first = size (Payload.Share (Payload.Bits s1)) in
  (* clear the first's cache, so the two are structurally equal *)
  s1.Knowledge.vbytes <- -1;
  Alcotest.(check int) "the second snapshot is not yet sized" (-1) s2.Knowledge.vbytes;
  Alcotest.(check int) "equal payloads, equal sizes" first (size (Payload.Share (Payload.Bits s2)));
  Alcotest.(check bool) "the second snapshot was sized" true (s2.Knowledge.vbytes >= 0)

let test_probe_size () =
  Alcotest.(check int) "probe is one byte" 1 (Wire.encoded_size Wire.Adaptive ~universe Payload.Probe)

let test_range_validation () =
  Alcotest.check_raises "too big" (Invalid_argument "Wire.encode: identifier out of range")
    (fun () -> ignore (encode Wire.Raw32 ~universe (Payload.Share (Payload.Ids [| universe |]))))

let test_decode_validation () =
  let bad cases =
    List.iter
      (fun (name, bytes) ->
        match decode ~universe bytes with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: decode accepted malformed input" name
        | exception e ->
          Alcotest.failf "%s: decode raised %s instead of returning Error" name
            (Printexc.to_string e))
      cases
  in
  bad
    [
      ("empty", Bytes.create 0);
      ("unknown kind", Bytes.of_string "\009\001\000");
      ("unknown codec", Bytes.of_string "\000\009\000");
      ("oversized probe", Bytes.of_string "\003\000");
      ("truncated varint", Bytes.of_string "\000\001\255");
      ("raw32 length mismatch", Bytes.of_string "\000\000\002\001\000\000\000");
      (* one raw32 id, 2^32 - 1, far past the universe *)
      ("raw32 id out of range", Bytes.of_string "\000\000\001\255\255\255\255");
      ("bitmap width mismatch", Bytes.of_string "\000\002\000");
      (* hostile length field: claims 2^35 raw32 elements in 4 bytes *)
      ("hostile raw32 count", Bytes.of_string "\000\000\128\128\128\128\128\001");
      (* varint codec claiming more elements than remaining bytes *)
      ("hostile varint count", Bytes.of_string "\000\001\200\001\005");
      (* zero padded onto a varint: the gap 0 spelled in two bytes *)
      ("non-minimal varint", Bytes.of_string "\000\001\001\128\000");
      (* gap sum overflowing past max_int must not wrap negative *)
      ("gap overflow", Bytes.of_string "\000\001\001\255\255\255\255\255\255\255\255\062")
    ]

(* Fuzz the decoder the way a flaky or hostile link would: take valid
   encodings and mutate them byte by byte — every single-byte overwrite,
   every truncation, and a trailing-garbage extension. Decode must
   return [Ok] (mutations can land on don't-care bits) or [Error], but
   never raise and never hang. *)
let test_decode_fuzz () =
  let payloads =
    [
      Payload.Probe;
      Payload.Halt;
      Payload.Share (Payload.Ids [||]);
      Payload.Share (Payload.Ids [| 0; 7; 250 |]);
      Payload.Exchange (Payload.Ids (Array.init 60 (fun i -> i * 5)));
      Payload.Reply (Payload.Bits (bsnap universe [| 1; 64; 299 |]));
      Payload.Sync { digest = 0x0123456789abcdef };
    ]
  in
  let attempts = ref 0 in
  let try_decode name bytes =
    incr attempts;
    match decode ~universe bytes with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "%s: decode raised %s on %S" name (Printexc.to_string e)
        (Bytes.to_string bytes)
  in
  List.iter
    (fun enc ->
      List.iter
        (fun p ->
          let valid = encode enc ~universe p in
          let len = Bytes.length valid in
          for i = 0 to len - 1 do
            (* all 255 single-byte overwrites at position i *)
            for b = 0 to 255 do
              if b <> Char.code (Bytes.get valid i) then begin
                let m = Bytes.copy valid in
                Bytes.set m i (Char.chr b);
                try_decode "overwrite" m
              end
            done;
            (* truncation to the first i bytes *)
            try_decode "truncate" (Bytes.sub valid 0 i)
          done;
          (* trailing garbage *)
          let extended = Bytes.extend valid 0 3 in
          Bytes.set extended len '\255';
          try_decode "extend" extended)
        payloads)
    Wire.all_encodings;
  Alcotest.(check bool) "fuzzed a meaningful corpus" true (!attempts > 10_000)

let prop_roundtrip =
  QCheck2.Test.make ~name:"wire roundtrip over random id sets and codecs" ~count:400
    QCheck2.Gen.(
      let* universe = int_range 1 600 in
      let* ids = list_size (int_range 0 80) (int_range 0 (universe - 1)) in
      let* enc = oneofl Wire.all_encodings in
      let* kind = int_range 0 2 in
      return (universe, ids, enc, kind))
    (fun (universe, ids, enc, kind) ->
      let data = Payload.Ids (Array.of_list ids) in
      let p =
        match kind with
        | 0 -> Payload.Share data
        | 1 -> Payload.Exchange data
        | _ -> Payload.Reply data
      in
      let encoded = encode enc ~universe p in
      match decode ~universe encoded with
      | Error _ -> false
      | Ok back ->
        ids_of_payload back = List.sort_uniq compare ids
        && Bytes.length encoded = Wire.encoded_size enc ~universe p)

let prop_detector_roundtrip =
  QCheck2.Test.make ~name:"detector payloads roundtrip at every codec" ~count:400
    QCheck2.Gen.(
      let* universe = int_range 1 600 in
      let* target = int_range 0 (universe - 1) in
      let* aux = int_range 0 (1 lsl 30) in
      let* enc = oneofl Wire.all_encodings in
      let* kind = int_range 0 2 in
      return (universe, target, aux, enc, kind))
    (fun (universe, target, aux, enc, kind) ->
      let p =
        match kind with
        | 0 -> Payload.Probe_req { target; nonce = aux }
        | 1 -> Payload.Probe_ack { target; nonce = aux }
        | _ -> Payload.Suspicion { target; version = aux }
      in
      let encoded = encode enc ~universe p in
      (* the detector payloads are codec-independent: two varints *)
      match decode ~universe encoded with
      | Error _ -> false
      | Ok back ->
        back = p
        && Bytes.length encoded = Wire.encoded_size enc ~universe p
        && ids_of_payload back = [])

let prop_adaptive_never_worse =
  QCheck2.Test.make ~name:"adaptive is min(varint, bitmap)" ~count:300
    QCheck2.Gen.(
      let* universe = int_range 1 600 in
      let* ids = list_size (int_range 0 200) (int_range 0 (universe - 1)) in
      return (universe, ids))
    (fun (universe, ids) ->
      let p = Payload.Share (Payload.Ids (Array.of_list ids)) in
      let size e = Wire.encoded_size e ~universe p in
      size Wire.Adaptive = min (size Wire.Varint_delta) (size Wire.Bitmap))

(* A snapshot is written straight from its set, but must cost exactly
   the bytes of the list path: [encode (Bits s)] is the encoding of
   [Ids (Cset.to_array s)] with only the snapshot bit of the codec byte
   added, and it decodes back to [Bits] over the same set. *)
let check_bits_identity ~universe enc kind set =
  let wrap d =
    match kind with 0 -> Payload.Share d | 1 -> Payload.Exchange d | _ -> Payload.Reply d
  in
  let bits = wrap (Payload.Bits (Knowledge.external_snapshot set)) in
  let eb = encode enc ~universe bits in
  let el = encode enc ~universe (wrap (Payload.Ids (Cset.to_array set))) in
  let byte b i = Char.code (Bytes.get b i) in
  Bytes.length eb = Bytes.length el
  && Bytes.length eb = Wire.encoded_size enc ~universe bits
  && byte el 1 land 0x80 = 0
  && byte eb 1 = byte el 1 lor 0x80
  && Bytes.get eb 0 = Bytes.get el 0
  && Bytes.equal (Bytes.sub eb 2 (Bytes.length eb - 2)) (Bytes.sub el 2 (Bytes.length el - 2))
  &&
  match (kind, decode ~universe eb) with
  | 0, Ok (Payload.Share (Payload.Bits b))
  | 1, Ok (Payload.Exchange (Payload.Bits b))
  | 2, Ok (Payload.Reply (Payload.Bits b)) ->
    Cset.equal b.Knowledge.set set
  | _ -> false

let prop_bits_byte_identity =
  QCheck2.Test.make ~name:"snapshot encoding is the list encoding plus the snapshot bit"
    ~count:400
    QCheck2.Gen.(
      let* universe = int_range 1 600 in
      (* up to universe draws: sparse sets for varint, dense for bitmap *)
      let* ids = list_size (int_range 0 universe) (int_range 0 (universe - 1)) in
      let* enc = oneofl Wire.all_encodings in
      let* kind = int_range 0 2 in
      return (universe, ids, enc, kind))
    (fun (universe, ids, enc, kind) ->
      check_bits_identity ~universe enc kind (Cset.of_array universe (Array.of_list ids)))

let test_bits_identity_multi_container () =
  (* several containers, a ragged last byte, each container kind *)
  let universe = 140_003 in
  let rng = Rng.create ~seed:14 in
  let sets =
    [
      Cset.create universe;
      Cset.of_array universe (Array.init 200 (fun _ -> Rng.int rng universe));
      Cset.of_array universe (Array.init (universe / 2) (fun _ -> Rng.int rng universe));
      Cset.of_array universe (Array.init universe Fun.id);
    ]
  in
  List.iter
    (fun enc ->
      List.iteri
        (fun i set ->
          Alcotest.(check bool)
            (Printf.sprintf "%s set %d" (Wire.encoding_name enc) i)
            true
            (check_bits_identity ~universe enc (i mod 3) set))
        sets)
    Wire.all_encodings

(* Fixed frames: the properties above compare encode with itself, these
   pin the exact bytes. A frame of up to 48 bytes is spelled in hex, a
   longer one by its length and MD5. Universe 300 ends in a ragged byte;
   universe 140,003 spans three set containers. *)
let fingerprint b =
  if Bytes.length b <= 48 then
    String.concat ""
      (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
  else Printf.sprintf "%d bytes, md5 %s" (Bytes.length b) (Digest.to_hex (Digest.bytes b))

let multi = 140_003

(* payload, universe, then the frame under raw32, varint, bitmap and
   adaptive *)
let pinned_frames =
  [
    ( "ids, unsorted with duplicates",
      Payload.Share (Payload.Ids [| 250; 3; 9; 3; 0; 250; 64 |]),
      universe,
      [
        "00000500000000030000000900000040000000fa000000";
        "00010500020536b901";
        "00020902000000000000010000000000000000000000000000000000000000000004000000000000";
        "00010500020536b901";
      ] );
    ( "empty delta",
      Payload.Exchange Payload.empty_delta,
      universe,
      [
        "010000";
        "010100";
        "01020000000000000000000000000000000000000000000000000000000000000000000000000000";
        "010100";
      ] );
    ( "delta slice",
      Payload.Reply
        (Payload.Delta (Intvec.slice (Intvec.of_array [| 7; 290; 5; 5; 130; 8; 1 |]) ~pos:1 ~len:5)),
      universe,
      [
        "02000405000000080000008200000022010000";
        "0201040502799f01";
        "02022001000000000000000000000000000004000000000000000000000000000000000000000400";
        "0201040502799f01";
      ] );
    ( "bits, ragged last byte",
      Payload.Share (Payload.Bits (bsnap universe [| 0; 1; 63; 64; 299 |])),
      universe,
      [
        "00800500000000010000003f000000400000002b010000";
        "00810500003d00ea01";
        "00820300000000000080010000000000000000000000000000000000000000000000000000000008";
        "00810500003d00ea01";
      ] );
    ( "bits, sparse over three containers",
      Payload.Exchange
        (Payload.Bits (bsnap multi [| 0; 5; 65_535; 65_536; 70_000; 131_072; 140_002 |])),
      multi,
      [
        "0180070000000005000000ffff0000000001007011010000000200e2220200";
        "0181070004f9ff0300ef228fdd03e145";
        "17503 bytes, md5 676cf1467875e66f472dad30e1a351be";
        "0181070004f9ff0300ef228fdd03e145";
      ] );
    ( "sync digest",
      Payload.Sync { digest = 0x0123456789abcdef },
      universe,
      [
        "08ef9bafcdf8acd19101";
        "08ef9bafcdf8acd19101";
        "08ef9bafcdf8acd19101";
        "08ef9bafcdf8acd19101";
      ] );
    ( "bits, dense over three containers",
      Payload.Reply (Payload.Bits (bsnap multi (Array.init (multi / 3) (fun i -> 3 * i)))),
      multi,
      [
        "186673 bytes, md5 b33a247ee08cfa7a340ec9e87b5b463b";
        "46672 bytes, md5 bf27feca3dba8280b41fea7cb3dfb512";
        "17503 bytes, md5 e987675c0cedf0054937a9f05359b0f2";
        "17503 bytes, md5 e987675c0cedf0054937a9f05359b0f2";
      ] );
  ]

let test_pinned_frames () =
  List.iter
    (fun (name, p, universe, frames) ->
      List.iter2
        (fun e expected ->
          let encoded = encode e ~universe p in
          let label = Printf.sprintf "%s, %s" name (Wire.encoding_name e) in
          Alcotest.(check string) label expected (fingerprint encoded);
          Alcotest.(check int) (label ^ " size") (Bytes.length encoded)
            (Wire.encoded_size e ~universe p))
        Wire.all_encodings frames)
    pinned_frames

(* The sync digest is the kind byte and one minimal varint. Its frame
   is the same under every encoding and [encoded_size] matches it; the
   decoder refuses a missing or cut varint, a padded (non-minimal) one,
   one past 62 bits, and trailing bytes; the encoder refuses a negative
   digest. *)
let test_sync_frames () =
  List.iter
    (fun (digest, frame) ->
      List.iter
        (fun e ->
          let p = Payload.Sync { digest } in
          let encoded = encode e ~universe p in
          Alcotest.(check string) (Printf.sprintf "sync %x frame" digest) frame (fingerprint encoded);
          Alcotest.(check int) "size" (Bytes.length encoded) (Wire.encoded_size e ~universe p);
          match decode ~universe encoded with
          | Ok (Payload.Sync { digest = back }) -> Alcotest.(check int) "digest back" digest back
          | Ok other -> Alcotest.failf "sync decoded as %s" (Format.asprintf "%a" Payload.pp other)
          | Error msg -> Alcotest.failf "sync frame refused: %s" msg)
        Wire.all_encodings)
    [ (0, "0800"); (300, "08ac02"); (max_int, "08ffffffffffffffff3f") ];
  List.iter
    (fun (name, frame, reason) ->
      match decode ~universe (Bytes.of_string frame) with
      | Error msg -> Alcotest.(check string) name reason msg
      | Ok p -> Alcotest.failf "%s: decoded as %s" name (Format.asprintf "%a" Payload.pp p))
    [
      ("no varint", "\008", "Wire.decode: truncated varint");
      ("cut varint", "\008\239\155", "Wire.decode: truncated varint");
      ("non-minimal zero", "\008\128\000", "Wire.decode: non-minimal varint");
      ("non-minimal one", "\008\129\128\000", "Wire.decode: non-minimal varint");
      (* nine groups reaching bit 62, the sign bit of an OCaml int *)
      ("past 62 bits", "\008\255\255\255\255\255\255\255\255\127", "Wire.decode: varint overflow");
      ("ten groups", "\008\255\255\255\255\255\255\255\255\255\001", "Wire.decode: varint overflow");
      ("trailing bytes", "\008\005\000", "Wire.decode: trailing bytes");
    ];
  Alcotest.check_raises "negative digest" (Invalid_argument "Wire.encode: negative digest")
    (fun () -> ignore (encode Wire.Adaptive ~universe (Payload.Sync { digest = -1 })));
  Alcotest.check_raises "negative digest, sized" (Invalid_argument "Wire.encode: negative digest")
    (fun () -> ignore (Wire.encoded_size Wire.Adaptive ~universe (Payload.Sync { digest = -1 })))

(* --- messages where they lie: decoding at an offset ---

   The live path decodes a body inside its envelope, and a stream
   reader inside its read buffer, so a message is the [len] bytes at
   [off] of a larger buffer. Each pinned frame, under each encoding,
   placed between junk bytes must decode exactly as the bare frame does
   (same verdict; an accepted payload re-encodes to the same bytes,
   which also pins its form), and encoding with room must place the
   bare frame's bytes after the room. *)
let pinned_cases =
  List.concat_map
    (fun (name, p, universe, _) ->
      List.map (fun e -> (Printf.sprintf "%s, %s" name (Wire.encoding_name e), e, p, universe))
        Wire.all_encodings)
    pinned_frames

let verdict_bytes ~universe e = function
  | Ok p -> Ok (Bytes.to_string (encode e ~universe p))
  | Error msg -> Error msg

let prop_pinned_at_offset =
  QCheck2.Test.make ~name:"pinned frames decode at an offset as they do bare" ~count:200
    ~print:(fun (i, pre, post) ->
      let name, _, _, _ = List.nth pinned_cases i in
      Printf.sprintf "%s, %d junk bytes before, %d after" name (String.length pre)
        (String.length post))
    QCheck2.Gen.(
      triple
        (int_bound (List.length pinned_cases - 1))
        (string_size ~gen:char (int_range 1 24))
        (string_size ~gen:char (int_range 0 24)))
    (fun (i, pre, post) ->
      let _, e, p, universe = List.nth pinned_cases i in
      let bare = encode e ~universe p in
      let off = String.length pre and len = Bytes.length bare in
      let buf = Bytes.cat (Bytes.of_string pre) (Bytes.cat bare (Bytes.of_string post)) in
      let roomy = Wire.encode e ~universe ~room:off p in
      verdict_bytes ~universe e (decode ~universe bare)
      = verdict_bytes ~universe e (Wire.decode ~universe buf ~off ~len)
      && Bytes.equal (Bytes.sub roomy off len) bare)

(* A hostile count at an offset is still bounded by the message's own
   length, not by the buffer's: a message claiming 400,000 elements in
   5 bytes, followed by 500,000 zero bytes that would satisfy the
   claim, is refused before any array is sized from it (sizing one
   would cost 400,000 words or more). The count heads a varint-codec id
   list, a raw32 id list and an update batch in turn. *)
let test_hostile_count_at_offset () =
  List.iter
    (fun (name, msg) ->
      let msg = Bytes.of_string msg in
      let off = 13 in
      let buf = Bytes.make (off + Bytes.length msg + 500_000) '\000' in
      Bytes.blit msg 0 buf off (Bytes.length msg);
      let _, promoted0, major0 = Gc.counters () in
      let minor0 = Gc.minor_words () in
      let verdict = Wire.decode ~universe:1_000_000 buf ~off ~len:(Bytes.length msg) in
      let _, promoted1, major1 = Gc.counters () in
      let words = Gc.minor_words () -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
      (match verdict with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: a count beyond the message's bytes was accepted" name);
      if words > 64.0 then
        Alcotest.failf "%s: refusing the hostile count allocated %.0f words" name words)
    [
      ("varint ids", "\000\001\128\181\024");
      ("raw32 ids", "\000\000\128\181\024");
      ("update batch", "\000\003\128\181\024");
    ]

(* The edges of the update-batch decoder's one-byte varint read, each
   refused by the check meant for it: an entry that ends exactly where
   its status byte should be (the count check passes, since the first
   entry's two-byte version makes room for it), and a value below 128
   spelled in two bytes, at the gap and at the version. *)
let test_batch_boundaries () =
  List.iter
    (fun (name, msg, want) ->
      match decode ~universe (Bytes.of_string msg) with
      | Error got -> Alcotest.(check string) name want got
      | Ok p -> Alcotest.failf "%s: decoded as %s" name (Format.asprintf "%a" Payload.pp p)
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    [
      ( "truncated at a status byte",
        "\000\003\002\000\128\001\000\000\001",
        "Wire.decode: truncated update status" );
      ("two-byte gap 127", "\000\003\001\255\000\001\000", "Wire.decode: non-minimal varint");
      ("two-byte version 0", "\000\003\001\000\128\000\000", "Wire.decode: non-minimal varint");
    ]

(* A decoded update batch is lent (see [Wire.decode]): its entries live
   in one array per domain. A second batch decoded on the same domain
   overwrites the first, and the shorter second batch is still exactly
   its own [count] entries (it re-encodes to its own bytes, whatever the
   longer first batch left past its window); a batch decoded on another
   domain leaves the first one as it was. *)
let test_decoded_batches_lent () =
  let frame ~first ~count ~version =
    let entries = Array.make (2 * count) 0 in
    for i = 0 to count - 1 do
      Payload.set_update entries i ~node:(first + i) ~version ~status:Payload.status_alive
    done;
    encode Wire.Adaptive ~universe
      (Payload.Share (Payload.Updates { full = false; count; entries }))
  in
  let long = frame ~first:0 ~count:10 ~version:1 and short = frame ~first:20 ~count:5 ~version:7 in
  let lent bytes =
    match decode ~universe bytes with
    | Ok (Payload.Share (Payload.Updates u)) -> (u.count, u.entries)
    | Ok p -> Alcotest.failf "decoded as %s" (Format.asprintf "%a" Payload.pp p)
    | Error msg -> Alcotest.failf "valid batch rejected: %s" msg
  in
  let count, first = lent long in
  Alcotest.(check int) "first batch count" 10 count;
  Alcotest.(check int) "first batch, entry 0" 0 (Payload.update_node first 0);
  let count, second = lent short in
  Alcotest.(check int) "second batch count" 5 count;
  Alcotest.(check bool) "same domain, same array" true (first == second);
  Alcotest.(check int) "the first batch is overwritten" 20 (Payload.update_node first 0);
  Alcotest.(check int) "its version too" 7 (Payload.update_version first 0);
  Alcotest.(check int) "past the second window, the first batch's entries" 5
    (Payload.update_node second 5);
  Alcotest.(check string) "the second batch is its window" (Bytes.to_string short)
    (Bytes.to_string
       (encode Wire.Adaptive ~universe
          (Payload.Share (Payload.Updates { full = false; count; entries = second }))));
  let _, mine = lent long in
  let other = Domain.join (Domain.spawn (fun () -> Payload.update_node (snd (lent short)) 0)) in
  Alcotest.(check int) "the other domain decoded its own batch" 20 other;
  Alcotest.(check (list int)) "another domain's decode leaves this one's batch"
    (List.init 10 Fun.id)
    (List.init 10 (Payload.update_node mine))

(* --- the service payloads: codec 3 update batches and kinds 3-7 --- *)

(* A canonical flat batch of [count] entries over a universe that fits
   it: small gaps, versions up to 2^40, every status. Not shrunk:
   shrinking a 600-entry batch takes longer than reading the failing
   case. *)
let gen_batch =
  QCheck2.Gen.no_shrink
  @@ QCheck2.Gen.(
    let* count = int_range 0 600 in
    let* gaps = list_size (return count) (int_range 0 4) in
    let* versions = list_size (return count) (int_range 0 (1 lsl 40)) in
    let* statuses = list_size (return count) (int_range 0 Payload.status_down) in
    let* slack = int_range 1 50 in
    let entries = Array.make (2 * count) 0 in
    let prev = ref (-1) in
    List.iteri
      (fun i (gap, (version, status)) ->
        let node = !prev + 1 + gap in
        Payload.set_update entries i ~node ~version ~status;
        prev := node)
      (List.combine gaps (List.combine versions statuses));
    (* at least 1: an empty batch with slack 1 would otherwise give
       universe 0, which has no valid probe target to draw *)
    return (max 1 (!prev + slack), entries))

let gen_service_payload =
  QCheck2.Gen.(
    let* universe, entries = gen_batch in
    let* full = bool in
    let* kind = int_range 0 8 in
    let* target = int_range 0 (universe - 1) in
    let* aux = int_range 0 (1 lsl 40) in
    let* digest = oneof [ int_range 0 (1 lsl 40); map (fun d -> d land max_int) int ] in
    let data = Payload.Updates { full; count = Array.length entries / 2; entries } in
    return
      ( universe,
        match kind with
        | 0 -> Payload.Share data
        | 1 -> Payload.Exchange data
        | 2 -> Payload.Reply data
        | 3 -> Payload.Probe
        | 4 -> Payload.Halt
        | 5 -> Payload.Probe_req { target; nonce = aux }
        | 6 -> Payload.Probe_ack { target; nonce = aux }
        | 7 -> Payload.Suspicion { target; version = aux }
        | _ -> Payload.Sync { digest } ))

let print_service (universe, p) =
  Printf.sprintf "universe %d, %s" universe (Format.asprintf "%a" Payload.pp p)

let prop_service_roundtrip =
  QCheck2.Test.make ~name:"service payloads roundtrip at their exact size" ~count:300
    ~print:print_service gen_service_payload (fun (universe, p) ->
      let encoded = encode Wire.Adaptive ~universe p in
      Bytes.length encoded = Wire.encoded_size Wire.Adaptive ~universe p
      &&
      match decode ~universe encoded with
      | Ok back -> Batch_equal.same_payload back p
      | Error _ -> false)

(* Node gaps and versions at the varint width boundaries (127/128 and
   16,383/16,384), so that the decoder's one-byte read and its
   [read_varint] fallback both run, in an update batch and in a
   varint-codec id list over the same nodes. *)
let prop_varint_boundaries_roundtrip =
  let edge = QCheck2.Gen.oneofl [ 0; 1; 126; 127; 128; 129; 16_382; 16_383; 16_384; 16_385 ] in
  QCheck2.Test.make ~name:"batches and id lists roundtrip across varint widths" ~count:300
    QCheck2.Gen.(
      let* count = int_range 0 40 in
      let* gaps = list_size (return count) edge in
      let* versions = list_size (return count) edge in
      let* statuses = list_size (return count) (int_range 0 Payload.status_down) in
      return (gaps, versions, statuses))
    (fun (gaps, versions, statuses) ->
      let count = List.length gaps in
      let entries = Array.make (2 * count) 0 in
      let prev = ref (-1) in
      List.iteri
        (fun i ((gap, version), status) ->
          let node = !prev + 1 + gap in
          Payload.set_update entries i ~node ~version ~status;
          prev := node)
        (List.combine (List.combine gaps versions) statuses);
      let universe = !prev + 2 in
      let batch = Payload.Reply (Payload.Updates { full = true; count; entries }) in
      let ids = Payload.Share (Payload.Ids (Array.init count (Payload.update_node entries))) in
      List.for_all
        (fun (enc, p) ->
          let encoded = encode enc ~universe p in
          Bytes.length encoded = Wire.encoded_size enc ~universe p
          &&
          match (decode ~universe encoded, p) with
          | Ok (Payload.Share (Payload.Ids back)), Payload.Share (Payload.Ids sent) -> back = sent
          | Ok back, _ -> Batch_equal.same_payload back p
          | Error _, _ -> false)
        [ (Wire.Adaptive, batch); (Wire.Varint_delta, ids) ])

(* A mutated service frame must decode to [Error] or to a payload that
   re-encodes to exactly the mutated bytes (the decoder accepts only
   canonical input), and must never raise. A flip of the codec byte can
   turn the frame into an id-set codec, whose own fuzz test covers it:
   there only the absence of an exception is asserted. *)
let prop_service_mutations =
  QCheck2.Test.make ~name:"mutated service frames decode canonically or not at all" ~count:1000
    ~print:(fun ((universe, p), how, at, byte) ->
      Printf.sprintf "%s; mutation %d at %d with %d" (print_service (universe, p)) how at byte)
    QCheck2.Gen.(
      let* universe_p = gen_service_payload in
      let* how = int_range 0 2 in
      let* at = nat in
      let* byte = int_range 1 255 in
      return (universe_p, how, at, byte))
    (fun ((universe, p), how, at, byte) ->
      let valid = encode Wire.Adaptive ~universe p in
      let len = Bytes.length valid in
      let mutated =
        match how with
        | 0 ->
          let m = Bytes.copy valid in
          let i = at mod len in
          Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor byte));
          m
        | 1 -> Bytes.sub valid 0 (at mod len)
        | _ -> Bytes.cat valid (Bytes.make (1 + (at mod 3)) (Char.chr byte))
      in
      match decode ~universe mutated with
      | Error _ -> true
      | Ok (Payload.Share (Payload.Ids _ | Payload.Bits _ | Payload.Delta _))
      | Ok (Payload.Exchange (Payload.Ids _ | Payload.Bits _ | Payload.Delta _))
      | Ok (Payload.Reply (Payload.Ids _ | Payload.Bits _ | Payload.Delta _)) ->
        true
      | Ok back -> Bytes.equal (encode Wire.Adaptive ~universe back) mutated
      | exception e -> QCheck2.Test.fail_reportf "decode raised %s" (Printexc.to_string e))

(* Encoding refuses a batch that is not canonical: an odd-length array
   whose count claims the half entry at its end (a window past the
   array), or two entries out of node order. *)
let prop_noncanonical_batch_refused =
  QCheck2.Test.make ~name:"odd-length or unordered flat batches are refused" ~count:300
    QCheck2.Gen.(
      let* universe, entries = gen_batch in
      let* odd = bool in
      let* i = nat in
      let* j = nat in
      return (universe, entries, odd, i, j))
    (fun (universe, entries, odd, i, j) ->
      let count = Array.length entries / 2 in
      QCheck2.assume (odd || count >= 2);
      let bad =
        if odd then Array.append entries [| i |]
        else begin
          (* move entry [i] onto or past entry [j > i] *)
          let i = i mod (count - 1) in
          let j = i + 1 + (j mod (count - 1 - i)) in
          let b = Array.copy entries in
          Payload.set_update b i ~node:(Payload.update_node entries j)
            ~version:(Payload.update_version entries i) ~status:(Payload.update_status entries i);
          b
        end
      in
      let claimed = if odd then count + 1 else count in
      let p = Payload.Share (Payload.Updates { full = false; count = claimed; entries = bad }) in
      match encode Wire.Adaptive ~universe p with
      | _ -> false
      | exception Invalid_argument _ -> true)

let () =
  ignore payload_testable;
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "probe" `Quick test_probe_roundtrip;
          Alcotest.test_case "halt" `Quick test_halt_roundtrip;
          Alcotest.test_case "kinds preserved" `Quick test_kind_preserved;
          Alcotest.test_case "id sets" `Quick test_ids_roundtrip_all;
          Alcotest.test_case "bits snapshots" `Quick test_bits_roundtrip;
          Alcotest.test_case "form preserved" `Quick test_form_preserved;
          Alcotest.test_case "snapshot bytes, multi-container" `Quick
            test_bits_identity_multi_container;
          Alcotest.test_case "pinned frames" `Quick test_pinned_frames;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "size matches encode" `Quick test_size_matches_encode;
          Alcotest.test_case "relative sizes" `Quick test_relative_sizes;
          Alcotest.test_case "probe size" `Quick test_probe_size;
          Alcotest.test_case "sizer matches encoded_size" `Quick test_sizer_matches_encoded_size;
        ] );
      ( "validation",
        [
          Alcotest.test_case "encode range" `Quick test_range_validation;
          Alcotest.test_case "decode malformed" `Quick test_decode_validation;
          Alcotest.test_case "decode mutation fuzz" `Quick test_decode_fuzz;
          Alcotest.test_case "hostile count at an offset" `Quick test_hostile_count_at_offset;
          Alcotest.test_case "update batch boundaries" `Quick test_batch_boundaries;
          Alcotest.test_case "decoded update batches are lent" `Quick test_decoded_batches_lent;
          Alcotest.test_case "sync digest frames" `Quick test_sync_frames;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_detector_roundtrip;
            prop_adaptive_never_worse;
            prop_bits_byte_identity;
            prop_pinned_at_offset;
            prop_service_roundtrip;
            prop_varint_boundaries_roundtrip;
            prop_service_mutations;
            prop_noncanonical_batch_refused;
          ] );
    ]
