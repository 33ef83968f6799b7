(* Live transport layer: envelope framing, control protocol, mux
   trace-identity, and real multi-process UDS/TCP clusters. *)

open Repro_engine
open Repro_discovery
open Repro_net

let get_algo name =
  match Registry.find name with Ok a -> a | Error e -> Alcotest.fail e

(* --- Envelope ------------------------------------------------------- *)

let sample_body = Bytes.of_string "\001\000\003\000\000\000\005\000\000\000"

(* A frame as the live path builds one: the body after header room,
   the header sealed in place. *)
let frame_of kind ~src ~stamp ~seq ~ack body =
  let frame = Bytes.create (Envelope.header_size + Bytes.length body) in
  Bytes.blit body 0 frame Envelope.header_size (Bytes.length body);
  Envelope.seal frame kind ~src ~stamp ~seq ~ack;
  frame

let encode_sample () =
  frame_of Envelope.Data ~src:7 ~stamp:42 ~seq:3 ~ack:1 sample_body

let body_of frame ~off =
  Bytes.sub frame (off + Envelope.header_size) (Envelope.body_length frame ~off)

let test_envelope_roundtrip () =
  let frame = encode_sample () in
  Alcotest.(check int) "consumed" (Bytes.length frame)
    (Envelope.decode frame ~off:0 ~len:(Bytes.length frame));
  Alcotest.(check bool) "kind" true (Envelope.kind frame ~off:0 = Envelope.Data);
  Alcotest.(check int) "src" 7 (Envelope.src frame ~off:0);
  Alcotest.(check int) "stamp" 42 (Envelope.stamp frame ~off:0);
  Alcotest.(check int) "seq" 3 (Envelope.seq frame ~off:0);
  Alcotest.(check int) "ack" 1 (Envelope.ack frame ~off:0);
  Alcotest.(check bytes) "body" sample_body (body_of frame ~off:0)

let test_envelope_kinds () =
  (* ack and hello frames: empty body, seq 0, cumulative ack carried *)
  List.iter
    (fun kind ->
      let frame = frame_of kind ~src:2 ~stamp:5 ~seq:0 ~ack:17 Bytes.empty in
      Alcotest.(check int) "consumed" Envelope.header_size
        (Envelope.decode frame ~off:0 ~len:(Bytes.length frame));
      Alcotest.(check bool) "kind survives" true (Envelope.kind frame ~off:0 = kind);
      Alcotest.(check int) "ack survives" 17 (Envelope.ack frame ~off:0);
      Alcotest.(check int) "empty body" 0 (Envelope.body_length frame ~off:0))
    [ Envelope.Ack; Envelope.Hello ]

let test_envelope_incremental () =
  let frame = encode_sample () in
  (* every strict prefix is need_more, never corrupt: framing is
     length-prefixed so partial reads are normal *)
  for len = 0 to Bytes.length frame - 1 do
    let verdict = Envelope.decode frame ~off:0 ~len in
    if verdict > 0 then Alcotest.failf "prefix of %d bytes decoded as a full frame" len
    else if verdict < 0 then
      Alcotest.failf "prefix of %d bytes reported corrupt: %s" len
        (Envelope.reason frame ~off:0 verdict)
  done

let test_envelope_corruption () =
  let frame = encode_sample () in
  let corrupted = ref 0 in
  for i = 0 to Bytes.length frame - 1 do
    let mutated = Bytes.copy frame in
    Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor 0xff));
    (* a negative verdict is corruption; need_more means the length
       field grew, so the frame looks unfinished *)
    if Envelope.decode mutated ~off:0 ~len:(Bytes.length mutated) <= 0 then incr corrupted
    else Alcotest.failf "single-byte corruption at offset %d went unnoticed" i
  done;
  Alcotest.(check bool) "every mutation detected" true (!corrupted = Bytes.length (encode_sample ()))

(* Envelopes where they lie. A stream reader sees frames back to back
   in one read buffer, at whatever offset the previous frame ended: two
   sealed frames between junk bytes must check and read exactly as each
   does alone, bodies included, and a cut through the second is a
   prefix (need_more), not corruption. *)
let gen_envelope =
  QCheck2.Gen.(
    let* kind = oneofl [ Envelope.Data; Envelope.Ack; Envelope.Hello ] in
    let* src = int_bound 0x7FFFFFFF and* stamp = int_bound 0x7FFFFFFF in
    let* seq = int_bound 0x7FFFFFFF and* ack = int_bound 0x7FFFFFFF in
    let+ body = string_size ~gen:char (int_range 0 64) in
    frame_of kind ~src ~stamp ~seq ~ack (Bytes.of_string body))

let fields frame ~off =
  ( Envelope.kind frame ~off,
    (Envelope.src frame ~off, Envelope.stamp frame ~off, Envelope.seq frame ~off),
    (Envelope.ack frame ~off, Bytes.to_string (body_of frame ~off)) )

let prop_envelopes_back_to_back =
  QCheck2.Test.make ~name:"back-to-back envelopes at an offset read as alone" ~count:500
    QCheck2.Gen.(
      quad gen_envelope gen_envelope (string_size ~gen:char (int_range 0 31))
        (string_size ~gen:char (int_range 0 31)))
    (fun (a, b, pre, post) ->
      let buf = Bytes.concat Bytes.empty [ Bytes.of_string pre; a; b; Bytes.of_string post ] in
      let off = String.length pre and la = Bytes.length a and lb = Bytes.length b in
      let rest = Bytes.length buf - off in
      Envelope.decode buf ~off ~len:rest = la
      && Envelope.decode buf ~off:(off + la) ~len:(rest - la) = lb
      && Envelope.decode buf ~off:(off + la) ~len:(lb - 1) = Envelope.need_more
      && fields buf ~off = fields a ~off:0
      && fields buf ~off:(off + la) = fields b ~off:0)

(* A hostile body length at an offset: a header claiming more than
   [max_body] is refused as corrupt, one claiming more than the buffer
   holds is a prefix, and neither verdict allocates anything. *)
let test_envelope_hostile_length () =
  let off = 11 in
  let buf = Bytes.make (off + 200) '\000' in
  Bytes.blit (encode_sample ()) 0 buf off (Bytes.length (encode_sample ()));
  let claim blen =
    Bytes.set_int32_le buf (off + 20) (Int32.of_int blen);
    let before = Gc.minor_words () in
    let verdict = Envelope.decode buf ~off ~len:(Bytes.length buf - off) in
    let words = Gc.minor_words () -. before in
    if words > 0.0 then Alcotest.failf "decode allocated %.0f words on a hostile length" words;
    verdict
  in
  let huge = claim (Envelope.max_body + 1) in
  Alcotest.(check bool) "length over max_body is corrupt" true (huge < 0);
  Alcotest.(check string) "named as a length fault"
    (Printf.sprintf "body length %d out of bounds" (Envelope.max_body + 1))
    (Envelope.reason buf ~off huge);
  Alcotest.(check int) "length past the buffer is a prefix" Envelope.need_more
    (claim Envelope.max_body)

(* CRC-32 one byte at a time, from the polynomial: the reference the
   envelope's table-driven CRC is checked against. *)
let crc_reference buf off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get buf i);
    for _ = 1 to 8 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answer () =
  let check = Bytes.of_string "123456789" in
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Envelope.crc32 check ~off:0 ~len:9);
  Alcotest.(check int) "reference check value" 0xCBF43926 (crc_reference check 0 9);
  Alcotest.(check int) "empty input" 0 (Envelope.crc32 check ~off:4 ~len:0);
  Alcotest.check_raises "slice past the end" (Invalid_argument "Envelope.crc32: slice out of bounds")
    (fun () -> ignore (Envelope.crc32 check ~off:5 ~len:5))

(* Every length from 0 to 600 at odd offsets, so the eight-byte steps
   start unaligned and every tail length occurs; and a sealed frame's
   CRC field is the reference over its first 24 bytes then its body. *)
let prop_crc_matches_bytewise =
  QCheck2.Test.make ~name:"crc32 and seal match the bytewise CRC" ~count:300
    QCheck2.Gen.(
      let* len = int_range 0 600 in
      let* off = map (fun k -> (2 * k) + 1) (int_range 0 8) in
      let* data = string_size ~gen:char (return (off + len)) in
      return (Bytes.of_string data, off, len))
    (fun (buf, off, len) ->
      let frame = frame_of Envelope.Data ~src:5 ~stamp:len ~seq:off ~ack:1 (Bytes.sub buf off len) in
      let split = Bytes.cat (Bytes.sub frame 0 24) (Bytes.sub buf off len) in
      Envelope.crc32 buf ~off ~len = crc_reference buf off len
      && Bytes.get_int32_le frame 24 = Int32.of_int (crc_reference split 0 (24 + len)))

(* One whole frame into a core: a valid frame is handled, a flipped
   body byte fails the CRC, a truncated frame is a decode error. *)
let test_node_core_receive () =
  let n = 8 in
  let core =
    Node_core.create
      {
        Node_core.node = 0;
        n;
        algo = get_algo "flooding";
        seed = 1;
        neighbors = [| 1 |];
        tick_period = 1.0;
        rto = 3.0;
        fault = Fault.none;
        announce = false;
      }
      {
        Node_core.emit = None;
        xmit = (fun ~now:_ ~dst:_ _ -> ());
        notify_complete = (fun ~now:_ ~tick:_ -> ());
        wake = (fun ~dst:_ -> ());
      }
      ~labels:(Array.init n Fun.id) ~memo:(Node_core.memo ~n) ~links_up:true ~now:0.0
  in
  let frame =
    Wire.encode Wire.Adaptive ~universe:n ~room:Envelope.header_size
      (Payload.Share (Payload.Ids [| 5 |]))
  in
  Envelope.seal frame Envelope.Data ~src:1 ~stamp:0 ~seq:1 ~ack:0;
  let counts () =
    let f = Node_core.final core in
    (f.Control.delivered, f.Control.corrupt_frames, f.Control.decode_errors)
  in
  let check what expected =
    Alcotest.(check (triple int int int)) what expected (counts ())
  in
  check "fresh core" (0, 0, 0);
  Node_core.receive core ~now:1.0 frame;
  check "valid frame delivered" (1, 0, 0);
  let flipped = Bytes.copy frame in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0x01));
  Node_core.receive core ~now:2.0 flipped;
  check "flipped body byte is a corrupt frame" (1, 1, 0);
  Node_core.receive core ~now:3.0 (Bytes.sub frame 0 (Bytes.length frame - 1));
  check "truncated frame is a decode error" (1, 1, 1)

let test_envelope_peek_kind () =
  (* every kind survives sealing, and peek_kind classifies a raw frame
     without a CRC pass; a kind byte past the three is refused by both *)
  List.iter
    (fun kind ->
      let frame = frame_of kind ~src:3 ~stamp:1 ~seq:0 ~ack:5 Bytes.empty in
      Alcotest.(check bool) "peek_kind agrees" true (Envelope.peek_kind frame = Some kind);
      if Envelope.decode frame ~off:0 ~len:(Bytes.length frame) <= 0 then
        Alcotest.fail "frame did not decode";
      Alcotest.(check bool) "kind survives" true (Envelope.kind frame ~off:0 = kind))
    [ Envelope.Data; Envelope.Ack; Envelope.Hello ];
  let frame = frame_of Envelope.Data ~src:3 ~stamp:1 ~seq:0 ~ack:5 Bytes.empty in
  Bytes.set frame 3 '\003';
  Alcotest.(check bool) "kind 3 peeks None" true (Envelope.peek_kind frame = None);
  let verdict = Envelope.decode frame ~off:0 ~len:(Bytes.length frame) in
  Alcotest.(check string) "kind 3 is refused" "unknown frame kind 3"
    (if verdict < 0 then Envelope.reason frame ~off:0 verdict else "accepted");
  Alcotest.(check bool) "short buffer peeks None" true (Envelope.peek_kind Bytes.empty = None)

let test_envelope_limits () =
  let seal frame ~src = Envelope.seal frame Envelope.Data ~src ~stamp:0 ~seq:1 ~ack:0 in
  Alcotest.check_raises "oversized body" (Invalid_argument "Envelope.seal: body too large")
    (fun () -> seal (Bytes.create (Envelope.header_size + Envelope.max_body + 1)) ~src:0);
  Alcotest.check_raises "negative src" (Invalid_argument "Envelope.seal: src out of range")
    (fun () -> seal (Bytes.create Envelope.header_size) ~src:(-1));
  Alcotest.check_raises "no header room"
    (Invalid_argument "Envelope.seal: frame shorter than the header") (fun () ->
      seal (Bytes.create (Envelope.header_size - 1)) ~src:0)

(* A buffer lent to the transport is never written again. A core sends
   one data frame and then, before any ack, meets a hello reset (the
   frame goes out again as seq 1, a snapshot with it), a data frame
   that moves its cumulative ack to 1, and a retransmission timeout
   (both frames again, now carrying ack 1). Under each fault path of
   the shim (none, duplication, corruption, delay, reordering) every
   buffer [xmit] receives must still hold, at the end, the bytes it held
   when it was lent, and no buffer may be lent twice. Where the first
   transmission's buffer itself reaches [xmit] (all but corruption), it
   must still carry ack 0: a reseal in place at the timeout would have
   written ack 1 into it, even into a frame the delay path was still
   holding. *)
let test_lent_frames_never_written () =
  let n = 8 in
  let peer_hello = frame_of Envelope.Hello ~src:1 ~stamp:0 ~seq:0 ~ack:0 Bytes.empty in
  let peer_data =
    let frame =
      Wire.encode Wire.Adaptive ~universe:n ~room:Envelope.header_size
        (Payload.Share (Payload.Ids [| 3 |]))
    in
    Envelope.seal frame Envelope.Data ~src:1 ~stamp:0 ~seq:1 ~ack:0;
    frame
  in
  List.iter
    (fun (name, plan, lent_frames) ->
      let fault = match Fault.of_string plan with Ok f -> f | Error e -> Alcotest.fail e in
      let captured = ref [] in
      let core =
        Node_core.create
          {
            Node_core.node = 0;
            n;
            algo = get_algo "flooding";
            seed = 1;
            neighbors = [| 1 |];
            tick_period = 1.0;
            rto = 3.0;
            fault;
            announce = false;
          }
          {
            Node_core.emit = None;
            xmit = (fun ~now:_ ~dst:_ frame -> captured := (frame, Bytes.copy frame) :: !captured);
            notify_complete = (fun ~now:_ ~tick:_ -> ());
            wake = (fun ~dst:_ -> ());
          }
          ~labels:(Array.init n Fun.id) ~memo:(Node_core.memo ~n) ~links_up:true ~now:0.0
      in
      let data = Payload.Share (Payload.Ids [| 5; 6 |]) in
      Alcotest.(check int) "send returns the body size"
        (Wire.encoded_size Wire.Adaptive ~universe:n data)
        (Node_core.send core ~now:0.0 ~dst:1 data);
      Node_core.receive core ~now:1.0 peer_hello;
      Node_core.receive core ~now:2.0 peer_data;
      Node_core.pump core ~now:5.0;
      Node_core.flush_faults core ~now:20.0;
      let lent = List.rev !captured in
      Alcotest.(check int) (name ^ ": frames lent") lent_frames (List.length lent);
      Alcotest.(check int)
        (name ^ ": retransmissions") 2 (Node_core.final core).Control.retransmits;
      List.iteri
        (fun i (frame, at_lend) ->
          Alcotest.(check bytes) (Printf.sprintf "%s: frame %d unchanged since lent" name i) at_lend
            frame;
          List.iteri
            (fun j (other, _) ->
              if j > i && frame == other then
                Alcotest.failf "%s: frames %d and %d are one buffer" name i j)
            lent)
        lent;
      if not (String.equal name "corrupt") then begin
        let first, _ = List.hd lent in
        Alcotest.(check bool) (name ^ ": first frame decodes") true
          (Envelope.decode first ~off:0 ~len:(Bytes.length first) > 0);
        Alcotest.(check (pair int int))
          (name ^ ": first frame's seq and ack as first sealed") (1, 0)
          (Envelope.seq first ~off:0, Envelope.ack first ~off:0)
      end)
    [
      ("none", "", 5);
      ("dup", "dup=1", 10);
      ("corrupt", "corrupt=1", 5);
      ("delay", "delay=2", 5);
      ("reorder", "reorder=1", 5);
    ]
;
  (* the shim itself: the frame it is given is never written, and every
     buffer it queues besides the frame itself is a fresh one *)
  List.iter
    (fun plan ->
      let plan = match Fault.of_string plan with Ok f -> f | Error e -> Alcotest.fail e in
      let fn = Faultnet.create ~plan ~seed:1 ~node:0 ~epoch:0.0 ~tick_period:1.0 in
      for i = 1 to 20 do
        let frame = encode_sample () in
        let before = Bytes.copy frame in
        (match Faultnet.send fn ~now:(float_of_int i) ~dst:1 frame with
        | Faultnet.Gone | Faultnet.Pass -> ()
        | Faultnet.Queue [ a; b ] when a == b -> Alcotest.fail "shim queued one buffer twice"
        | Faultnet.Queue _ -> ());
        Alcotest.(check bytes) "shim left its input unchanged" before frame
      done)
    [ "corrupt=1"; "dup=1"; "corrupt=0.5,dup=0.5,reorder=0.5" ]

(* --- Control protocol ---------------------------------------------- *)

let test_control_roundtrip () =
  let events =
    [
      Trace.Tick { node = 3; time = 1.5; count = 2 };
      Trace.Send { src = 1; dst = 2; pointers = 4; bytes = 17 };
      Trace.Deliver { src = 1; dst = 2 };
      Trace.Drop { src = 0; dst = 5; reason = Trace.Dead_dst };
      Trace.Join { node = 0 };
      Trace.Crash { node = 9 };
      Trace.Complete;
      Trace.Give_up;
      Trace.Round_begin { round = 7 };
    ]
  in
  List.iter
    (fun ev ->
      let time = match ev with Trace.Tick { time; _ } -> time | _ -> 1.5 in
      match Control.parse (Control.event_line ~time ev) with
      | Ok (Control.Event (t, ev')) ->
        Alcotest.(check (float 0.0)) "time survives" time t;
        Alcotest.(check string) "event survives" (Trace_json.event ev) (Trace_json.event ev')
      | Ok _ -> Alcotest.fail "event line parsed as non-event"
      | Error e -> Alcotest.fail e)
    events;
  (match Control.parse (Control.completed_line ~time:2.25 ~tick:9) with
  | Ok (Control.Completed (t, k)) ->
    Alcotest.(check (float 0.0)) "completed time" 2.25 t;
    Alcotest.(check int) "completed tick" 9 k
  | _ -> Alcotest.fail "completed line did not parse");
  let final =
    {
      Control.ticks = 12;
      sent = 34;
      delivered = 30;
      dropped = 4;
      pointers = 99;
      bytes = 1024;
      complete_tick = Some 11;
      decode_errors = 0;
      retransmits = 6;
      corrupt_frames = 2;
    }
  in
  (match Control.parse (Control.final_line final) with
  | Ok (Control.Final f) -> Alcotest.(check bool) "final survives" true (f = final)
  | _ -> Alcotest.fail "final line did not parse");
  (match Control.parse "E 1.0 bogus stuff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage line parsed");
  match Control.parse "E 1 drop 0 5 bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown drop reason parsed"

(* The coordinator's line splitter: lines may arrive cut anywhere, the
   longest line a node of an n-node run prints fits the cap worked out
   from n, and a line one byte past the cap refuses the stream. *)
let test_control_line_cap () =
  let feed r s =
    let got = ref [] in
    let add line = got := line :: !got in
    let verdict = Control.feed r (Bytes.of_string s) (String.length s) add in
    (verdict, List.rev !got)
  in
  let ok = Alcotest.(pair (result unit string) (list string)) in
  let r = Control.reader ~max:64 in
  Alcotest.check ok "first piece" (Ok (), [ "a" ]) (feed r "a\nb");
  Alcotest.check ok "cut line joined" (Ok (), [ "bcd"; "" ]) (feed r "cd\n\n");
  List.iter
    (fun n ->
      let ids = Array.init n Fun.id in
      let time = -1.23456789012e-300 in
      let wide = Control.event_line ~time (Trace.Content { src = n - 1; dst = n - 1; ids }) in
      let big = max_int in
      let final =
        Control.final_line
          {
            Control.ticks = big;
            sent = big;
            delivered = big;
            dropped = big;
            pointers = big;
            bytes = big;
            complete_tick = None;
            decode_errors = big;
            retransmits = big;
            corrupt_frames = big;
          }
      in
      List.iter
        (fun line ->
          let r = Control.reader ~max:(Control.max_line ~n) in
          Alcotest.check ok
            (Printf.sprintf "longest line fits at n=%d" n)
            (Ok (), [ String.sub line 0 (String.length line - 1) ])
            (feed r line))
        [ wide; final ])
    [ 1; 9; 10; 1000; 100_000 ];
  let r = Control.reader ~max:8 in
  Alcotest.check ok "a line at the cap" (Ok (), [ "12345678" ]) (feed r "12345678\n");
  Alcotest.check ok "one byte past the cap" (Error "control line longer than 8 bytes", [ "x" ])
    (feed r "x\n123456789")

(* The decoder takes each line only in the form the encoder prints it,
   with or without the trailing newline. *)
let test_control_canonical_only () =
  List.iter
    (fun line ->
      match Control.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "non-canonical line %S parsed" line)
    [
      "E 01 tick 3 2";
      "E 1.0 tick 3 2";
      "E 1e3 tick 3 2";
      "E nan complete";
      "E inf complete";
      "E 1 tick 03 2";
      "E 1 tick +3 2";
      "E 1 tick 0x1f 2";
      "E 1 tick 1_0 2";
      "E 1 tick -3 2";
      "E 1 genesis 0 1,02";
      "E 1 genesis 0 ";
      "C 1 -1";
      "C 1 007";
      "F 1 2 3 4 5 6 -2 0 0 0";
      "F 1 2 3 4 5 6 7 -0 0 0";
      " E 1 complete";
      "E 1 complete ";
      "E 1 complete\r\n";
      "E 1 complete\n\n";
    ];
  List.iter
    (fun line ->
      match Control.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "canonical line %S refused: %s" line e)
    [ "E 1 complete"; "E 1 complete\n"; "E 0.25 tick 0 10"; "C 1e-05 0"; "F 0 0 0 0 0 0 -1 0 0 0" ]

let drop_reasons = Trace.[ Loss; Dead_dst; Unjoined_dst; Partitioned; Throttled ]

(* Times a "%.12g" line carries exactly: k / 1000 is the double nearest
   the 12-digit decimal the line prints. *)
let gen_time = QCheck2.Gen.(map (fun k -> float_of_int k /. 1000.) (int_range 0 1_000_000_000))
let gen_int = QCheck2.Gen.(oneof [ nat; map (fun x -> x land max_int) int ])
let gen_ids = QCheck2.Gen.(map Array.of_list (list_size (int_range 0 6) nat))

(* Every [Trace.event] constructor, at the time its line carries
   ([Tick] holds that time itself). *)
let gen_timed_event =
  QCheck2.Gen.(
    let* time = gen_time in
    let* a = gen_int and* b = gen_int and* c = gen_int and* d = gen_int in
    let* ids = gen_ids and* reason = oneofl drop_reasons in
    let+ ev =
      oneofl
        Trace.
          [
            Round_begin { round = a };
            Tick { node = a; time; count = b };
            Send { src = a; dst = b; pointers = c; bytes = d };
            Deliver { src = a; dst = b };
            Drop { src = a; dst = b; reason };
            Crash { node = a };
            Join { node = a };
            Genesis { node = a; ids };
            Content { src = a; dst = b; ids };
            Leave { node = a };
            Suspect { node = a; target = b };
            Retire { node = a; target = b };
            Converge { node = a; epoch = b };
            Complete;
            Give_up;
          ]
    in
    (time, ev))

let gen_final =
  QCheck2.Gen.(
    let* ticks = gen_int and* sent = gen_int and* delivered = gen_int and* dropped = gen_int in
    let* pointers = gen_int and* bytes = gen_int and* decode_errors = gen_int in
    let* retransmits = gen_int and* corrupt_frames = gen_int in
    let+ complete_tick = opt nat in
    {
      Control.ticks;
      sent;
      delivered;
      dropped;
      pointers;
      bytes;
      complete_tick;
      decode_errors;
      retransmits;
      corrupt_frames;
    })

let prop_control_event_roundtrip =
  QCheck2.Test.make ~name:"event_line parses back to its event" ~count:1000 gen_timed_event
    (fun (time, ev) ->
      match Control.parse (Control.event_line ~time ev) with
      | Ok (Control.Event (t, ev')) -> Float.equal t time && ev' = ev
      | _ -> false)

let prop_control_completed_final_roundtrip =
  QCheck2.Test.make ~name:"completed_line and final_line parse back" ~count:500
    QCheck2.Gen.(triple gen_time gen_int gen_final)
    (fun (time, tick, final) ->
      (match Control.parse (Control.completed_line ~time ~tick) with
      | Ok (Control.Completed (t, k)) -> Float.equal t time && k = tick
      | _ -> false)
      && match Control.parse (Control.final_line final) with
         | Ok (Control.Final f) -> f = final
         | _ -> false)

let prop_control_unknown_reason =
  QCheck2.Test.make ~name:"an unknown drop reason is an error" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
    (fun word ->
      QCheck2.assume
        (not (List.exists (fun r -> Trace.drop_reason_name r = word) drop_reasons));
      Result.is_error (Control.parse (Printf.sprintf "E 1 drop 0 5 %s" word)))

(* A valid line of any kind, then one mutation: a byte flip, a
   truncation, a dropped, duplicated or appended token. *)
let gen_mutated_line =
  QCheck2.Gen.(
    let* line =
      oneof
        [
          map (fun (time, ev) -> Control.event_line ~time ev) gen_timed_event;
          map2 (fun time tick -> Control.completed_line ~time ~tick) gen_time gen_int;
          map Control.final_line gen_final;
        ]
    in
    let len = String.length line in
    let tokens = String.split_on_char ' ' line in
    let ntok = List.length tokens in
    let join = String.concat " " in
    let* i = int_bound (len - 1) and* k = int_bound (ntok - 1) in
    oneof
      [
        map (fun c -> String.mapi (fun j x -> if j = i then c else x) line) char;
        return (String.sub line 0 i);
        return (join (List.filteri (fun j _ -> j <> k) tokens));
        return (join (List.concat (List.mapi (fun j t -> if j = k then [ t; t ] else [ t ]) tokens)));
        map
          (fun extra -> join (tokens @ [ extra ]))
          (oneof [ string_size (int_range 0 4); oneofl [ "-"; "loss"; "1.5"; "7"; "x,y" ] ]);
      ])

(* The line a decoded message encodes to. *)
let encode_msg = function
  | Control.Event (time, ev) -> Control.event_line ~time ev
  | Control.Completed (time, tick) -> Control.completed_line ~time ~tick
  | Control.Final f -> Control.final_line f

(* A valid line with one token rewritten into a spelling [int_of_string]
   or [float_of_string] would still read: a leading zero or sign, hex,
   an underscore, an exponent, a trailing fraction. *)
let gen_respelled_line =
  QCheck2.Gen.(
    let* line = map (fun (time, ev) -> Control.event_line ~time ev) gen_timed_event in
    let tokens = String.split_on_char ' ' (String.sub line 0 (String.length line - 1)) in
    let* k = int_range 1 (List.length tokens - 1) in
    let+ respell =
      oneofl
        [
          (fun t -> "0" ^ t);
          (fun t -> "+" ^ t);
          (fun t -> "-" ^ t);
          (fun t -> "0x" ^ t);
          (fun t -> t ^ "_");
          (fun t -> t ^ "e0");
          (fun t -> t ^ ".0");
          (fun t -> t ^ "0");
        ]
    in
    String.concat " " (List.mapi (fun j t -> if j = k then respell t else t) tokens) ^ "\n")

let prop_control_accepted_reencode =
  QCheck2.Test.make ~name:"every accepted line re-encodes byte-for-byte" ~count:3000
    QCheck2.Gen.(oneof [ gen_mutated_line; gen_respelled_line ])
    (fun line ->
      match Control.parse line with
      | Error _ -> true
      | Ok msg ->
        let line = if String.ends_with ~suffix:"\n" line then line else line ^ "\n" in
        String.equal (encode_msg msg) line)

let prop_control_mutations_total =
  QCheck2.Test.make ~name:"mutated lines parse to Ok or Error, never raise" ~count:2000
    gen_mutated_line (fun line ->
      match Control.parse line with Ok _ | Error _ -> true)

(* --- Backoff: decorrelated jitter, deterministic per seed ------------ *)

let test_backoff_deterministic () =
  let draws seed =
    let rng = Repro_util.Rng.substream ~seed ~index:(0xb0ff + 3) in
    let b = Node.Backoff.create ~rng ~base:0.05 ~cap:0.5 in
    List.init 16 (fun _ -> Node.Backoff.next b)
  in
  (* same seed, same delay sequence: retry timing is replayable *)
  Alcotest.(check (list (float 0.0))) "replayable" (draws 7) (draws 7);
  Alcotest.(check bool) "seed matters" true (draws 7 <> draws 8)

let test_backoff_bounds () =
  let rng = Repro_util.Rng.substream ~seed:1 ~index:0xb0ff in
  let b = Node.Backoff.create ~rng ~base:0.05 ~cap:0.5 in
  Alcotest.(check (float 1e-9)) "cold start is base" 0.05 (Node.Backoff.next b);
  let prev = ref 0.05 in
  for _ = 1 to 100 do
    let d = Node.Backoff.next b in
    Alcotest.(check bool) "at least base" true (d >= 0.05);
    Alcotest.(check bool) "at most cap" true (d <= 0.5);
    Alcotest.(check bool) "decorrelated: at most 3x previous" true (d <= (3.0 *. !prev) +. 1e-9);
    prev := d
  done;
  Node.Backoff.reset b;
  Alcotest.(check (float 1e-9)) "reset returns to base" 0.05 (Node.Backoff.next b);
  Alcotest.check_raises "cap below base rejected"
    (Invalid_argument "Node.Backoff.create: cap must be at least base") (fun () ->
      ignore (Node.Backoff.create ~rng ~base:0.1 ~cap:0.05))

let test_backoff_extremes () =
  let rng = Repro_util.Rng.substream ~seed:3 ~index:0xb0ff in
  (* base = cap degenerates to a constant delay *)
  let flat = Node.Backoff.create ~rng ~base:0.25 ~cap:0.25 in
  for _ = 1 to 50 do
    Alcotest.(check (float 1e-9)) "base = cap is constant" 0.25 (Node.Backoff.next flat)
  done;
  (* a tiny base under a huge cap must stay inside [base, cap] and never
     jump past the decorrelated 3x envelope, even after many draws *)
  let wide = Node.Backoff.create ~rng ~base:1e-6 ~cap:1e6 in
  let prev = ref (Node.Backoff.next wide) in
  Alcotest.(check (float 1e-12)) "cold start is base" 1e-6 !prev;
  for _ = 1 to 200 do
    let d = Node.Backoff.next wide in
    Alcotest.(check bool) "at least base" true (d >= 1e-6);
    Alcotest.(check bool) "at most cap" true (d <= 1e6);
    Alcotest.(check bool) "at most 3x previous" true (d <= (3.0 *. !prev) +. 1e-9);
    prev := d
  done;
  (* reset really forgets the growth: the envelope restarts from base *)
  Node.Backoff.reset wide;
  Alcotest.(check (float 1e-12)) "reset forgets growth" 1e-6 (Node.Backoff.next wide);
  Alcotest.(check bool)
    "second draw after reset is re-bounded" true
    (Node.Backoff.next wide <= 3e-6 +. 1e-12);
  Alcotest.check_raises "zero base rejected"
    (Invalid_argument "Node.Backoff.create: base must be positive") (fun () ->
      ignore (Node.Backoff.create ~rng ~base:0.0 ~cap:1.0))

(* --- Cluster on the mux: trace-identical to the async simulator ------ *)

let test_cluster_mux_trace_identity () =
  let algo = get_algo "hm" in
  let sim_buf = Buffer.create 4096 and mux_buf = Buffer.create 4096 in
  let topology =
    Repro_graph.Generate.build (Repro_graph.Generate.K_out 3)
      ~rng:(Repro_util.Rng.substream ~seed:11 ~index:0x70b0)
      ~n:24
  in
  let sim_spec = { Run_async.default_spec with seed = 11; trace = Trace.buffer sim_buf } in
  let sim = Run_async.exec_spec sim_spec algo topology in
  (* the cluster builds the same topology from (family, seed) *)
  let mux =
    Cluster.run
      {
        (Cluster.default_spec algo) with
        backend = Backend.Mux;
        n = 24;
        seed = 11;
        trace = Trace.buffer mux_buf;
      }
  in
  Alcotest.(check bool) "sim completed" true sim.Run_async.completed;
  Alcotest.(check bool) "mux completed" true mux.Cluster.converged;
  (match mux.Cluster.invariants with
  | Cluster.Passed k -> Alcotest.(check bool) "checked events" true (k > 0)
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why));
  (* the tentpole identity: byte-for-byte equal event streams *)
  Alcotest.(check string) "traces byte-identical" (Buffer.contents sim_buf)
    (Buffer.contents mux_buf);
  (* and the per-core tallies sum to the run totals *)
  let finals =
    Array.map
      (fun nr ->
        match nr.Cluster.outcome with
        | Cluster.Finished f -> f
        | Cluster.Crashed _ | Cluster.Unresponsive -> Alcotest.fail "mux node did not finish")
      mux.Cluster.nodes
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 finals in
  Alcotest.(check int) "sent total" sim.Run_async.messages (sum (fun f -> f.Control.sent));
  Alcotest.(check int) "pointer total" sim.Run_async.pointers (sum (fun f -> f.Control.pointers));
  Alcotest.(check int)
    "bytes total"
    (Metrics.bytes_sent sim.Run_async.metrics)
    (sum (fun f -> f.Control.bytes))

(* --- live clusters -------------------------------------------------- *)

let run_cluster ?(fault = Fault.none) ?(n = 16) ?(check = true) backend =
  let algo = get_algo "hm" in
  let spec =
    {
      (Cluster.default_spec algo) with
      backend;
      n;
      seed = 5;
      timeout = 60.0;
      check_invariants = check;
      fault;
    }
  in
  Cluster.run spec

let check_converged r =
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "no crashes" [] r.Cluster.crashed;
  Array.iter
    (fun nr ->
      match nr.Cluster.outcome with
      | Cluster.Finished f ->
        Alcotest.(check bool) "announced completion" true (f.Control.complete_tick <> None);
        Alcotest.(check int) "clean link" 0 f.Control.decode_errors
      | Cluster.Crashed s -> Alcotest.failf "node %d crashed: %s" nr.Cluster.id s
      | Cluster.Unresponsive -> Alcotest.failf "node %d unresponsive" nr.Cluster.id)
    r.Cluster.nodes;
  match r.Cluster.invariants with
  | Cluster.Passed k -> Alcotest.(check bool) "events checked" true (k > 0)
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why)

(* the acceptance-criterion run: 16 processes over unix-domain sockets,
   every node learns all 16 ids, merged trace passes the checker *)
let uds = Backend.Process Backend.Uds
let tcp = Backend.Process Backend.Tcp
let test_cluster_uds () = check_converged (run_cluster uds)
let test_cluster_tcp () = check_converged (run_cluster ~n:8 tcp)

let test_cluster_crash_detected () =
  let r = run_cluster ~fault:(Fault.with_crash Fault.none ~node:3 ~round:1) ~check:false uds in
  Alcotest.(check bool) "not converged" false r.Cluster.converged;
  Alcotest.(check bool) "victim reported crashed" true (List.mem 3 r.Cluster.crashed);
  (match r.Cluster.nodes.(3).Cluster.outcome with
  | Cluster.Crashed _ -> ()
  | Cluster.Finished _ | Cluster.Unresponsive -> Alcotest.fail "victim not reported as crashed");
  (* survivors were halted, not left hanging: the harness returned and
     every surviving node wound down gracefully *)
  Array.iteri
    (fun i nr ->
      if i <> 3 then
        match nr.Cluster.outcome with
        | Cluster.Finished _ -> ()
        | Cluster.Crashed s -> Alcotest.failf "survivor %d crashed: %s" i s
        | Cluster.Unresponsive -> Alcotest.failf "survivor %d unresponsive" i)
    r.Cluster.nodes

let test_cluster_teardown_bounded () =
  let t0 = Unix.gettimeofday () in
  let fault = Fault.with_crash Fault.none ~node:0 ~round:1 in
  let r = run_cluster ~n:8 ~fault ~check:false uds in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "not converged" false r.Cluster.converged;
  (* crash → halt → grace(2s) → SIGTERM(0.5s) → SIGKILL: well under 30s *)
  Alcotest.(check bool) "teardown bounded" true (elapsed < 30.0)

(* A halted node whose harness reads slowly still delivers its final
   report: the control channel is full when the node shuts down (a
   small send buffer, pre-filled), and the reader starts only after a
   second. *)
let test_node_final_report_slow_reader () =
  let parent_fd, child_fd = Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int child_fd Unix.SO_SNDBUF 4096;
  Unix.set_nonblock child_fd;
  let junk = Bytes.make 512 'x' in
  Bytes.set junk 511 '\n';
  let filling = ref true in
  while !filling do
    match Unix.write child_fd junk 0 512 with
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> filling := false
  done;
  Unix.clear_nonblock child_fd;
  (* the halt command is waiting before the node's loop starts *)
  ignore (Unix.write_substring parent_fd Control.halt_line 0 (String.length Control.halt_line));
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-final-%d.sock" (Unix.getpid ()))
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Unix.close parent_fd;
        ignore
          (Node.run
             {
               Node.node = 0;
               n = 1;
               algo = get_algo "hm";
               seed = 1;
               neighbors = [||];
               addrs = [| Unix.ADDR_UNIX path |];
               listen_fd = None;
               control_fd = Some child_fd;
               epoch = Unix.gettimeofday ();
               tick_period = Node.default_tick_period;
               idle_timeout = Node.default_idle_timeout;
               max_ticks = 1000;
               fault = Fault.none;
               announce = false;
             });
        0
      with _ -> 70
    in
    Unix._exit code
  | pid ->
    Unix.close child_fd;
    Unix.sleepf 1.0;
    let out = Buffer.create 65536 and buf = Bytes.create 4096 in
    let deadline = Unix.gettimeofday () +. 20.0 in
    let eof = ref false and timed_out = ref false in
    while not (!eof || !timed_out) do
      match Unix.select [ parent_fd ] [] [] (deadline -. Unix.gettimeofday ()) with
      | [], _, _ -> timed_out := true
      | _ -> (
        match Unix.read parent_fd buf 0 4096 with
        | 0 -> eof := true
        | k -> Buffer.add_subbytes out buf 0 k)
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Unix.close parent_fd;
    if !timed_out then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "control channel closed" false !timed_out;
    Alcotest.(check bool) "node exited cleanly" true (status = Unix.WEXITED 0);
    let finals =
      List.filter
        (fun line -> match Control.parse line with Ok (Control.Final _) -> true | _ -> false)
        (String.split_on_char '\n' (Buffer.contents out))
    in
    Alcotest.(check int) "final report delivered" 1 (List.length finals)

(* --- fault plans on the live path ----------------------------------- *)

let test_cluster_reliable_under_loss () =
  (* 30% frame loss: the live transport must still converge and the
     merged trace must satisfy the (strict) invariant checker. No
     retransmit-count assertion here: with deliver-on-arrival, a fast
     wall-clock run can recover every loss through the algorithm's own
     re-sends before any RTO fires — the
     deterministic mux drill pins [retransmits > 0] instead. *)
  let fault = Fault.with_loss Fault.none ~p:0.3 in
  let r = run_cluster ~fault ~n:32 uds in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  (match r.Cluster.invariants with
  | Cluster.Passed _ -> ()
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why));
  match r.Cluster.totals with None -> Alcotest.fail "no totals" | Some _ -> ()

let test_cluster_partition_heals () =
  let fault = Fault.with_partition Fault.none ~groups:[ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ] ~start:2 ~heal:8 in
  let r = run_cluster ~fault ~n:8 uds in
  Alcotest.(check bool) "converged after heal" true r.Cluster.converged;
  match r.Cluster.invariants with
  | Cluster.Passed _ -> ()
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why)

let test_cluster_crash_restart () =
  (* the supervisor SIGKILLs node 2 at round 4 and re-forks it at round
     10; the fresh incarnation must rejoin via the hello handshake and
     the whole cluster still converges *)
  let fault = Fault.with_restart (Fault.with_crash Fault.none ~node:2 ~round:4) ~node:2 ~round:10 in
  let r = run_cluster ~fault ~n:8 uds in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "no incarnation left crashed" [] r.Cluster.crashed;
  match r.Cluster.invariants with
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Passed _ | Cluster.Skipped _ -> ()

(* A restart scheduled after the rest of the fleet has completed: only
   the coordinator decides that the run is over, so every peer is still
   up when node 0 comes back, and the fresh incarnation rebuilds its
   knowledge from them. Round 15 lands about when the others complete,
   round 40 well after. *)
let late_restart ~restart () =
  let algo = get_algo "hm" in
  let fault =
    Fault.with_restart (Fault.with_crash Fault.none ~node:0 ~round:8) ~node:0 ~round:restart
  in
  let joins = ref 0 in
  let count = function Trace.Join { node = 0 } -> incr joins | _ -> () in
  let spec =
    {
      (Cluster.default_spec algo) with
      n = 8;
      seed = 1;
      timeout = 5.0;
      trace = Trace.callback count;
      fault;
    }
  in
  let r = Cluster.run spec in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "no incarnation left crashed" [] r.Cluster.crashed;
  (match r.Cluster.invariants with
  | Cluster.Passed _ -> ()
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why));
  Alcotest.(check int) "node 0 joined twice" 2 !joins

let test_cluster_fatal_crash_without_restart () =
  (* a scheduled crash with no restart must be reported, not hang; round
     1 fires before the cluster can fully converge *)
  let fault = Fault.with_crash Fault.none ~node:1 ~round:1 in
  let r = run_cluster ~fault ~n:16 uds in
  Alcotest.(check bool) "not converged" false r.Cluster.converged;
  Alcotest.(check bool) "victim reported crashed" true (List.mem 1 r.Cluster.crashed)

(* The plans of the [mixed] family's trials, read off the matrix's
   progress hook: one hm cell on kout:3 over the mux. *)
let mixed_trials ~n ~seed ~trials =
  let seen = ref [] in
  ignore
    (Chaos.matrix
       ~progress:(fun t -> seen := t :: !seen)
       ~algos:[ get_algo "hm" ]
       ~families:[ Repro_graph.Generate.K_out 3 ]
       ~plans:[ "mixed" ] ~n ~trials ~seed ~backend:Backend.Mux ~timeout:10.0 ());
  List.rev !seen

let test_chaos_plan_shape () =
  (* the mixed plan generator, read off the trials that ran it: seeded,
     in-bounds, always heal + restart *)
  let trials = mixed_trials ~n:16 ~seed:42 ~trials:50 in
  Alcotest.(check int) "one report per trial" 50 (List.length trials);
  List.iter
    (fun (t : Chaos.trial) ->
      let plan = t.Chaos.trial_plan in
      Alcotest.(check bool) "loss bounded" true
        ((Fault.link_between plan ~src:0 ~dst:1).Fault.loss <= 0.2);
      (match Fault.partitions plan with
      | [ p ] -> Alcotest.(check bool) "partition heals" true (p.Fault.heal > p.Fault.start)
      | ps -> Alcotest.failf "expected one partition, got %d" (List.length ps));
      match Fault.crashed_nodes plan with
      | [ (v, r) ] -> (
        Alcotest.(check bool) "victim in range" true (v >= 0 && v < 16);
        match Fault.restart_round plan ~node:v with
        | Some r' -> Alcotest.(check bool) "restart after crash" true (r' > r)
        | None -> Alcotest.fail "chaos plan crash has no restart")
      | cs -> Alcotest.failf "expected one crash, got %d" (List.length cs))
    trials;
  (* replayable: a trial's seed alone yields its plan again *)
  let trial = List.nth trials 5 in
  let replay = List.hd (mixed_trials ~n:16 ~seed:trial.Chaos.trial_seed ~trials:1) in
  Alcotest.(check int) "trial 5 has seed 47" 47 trial.Chaos.trial_seed;
  Alcotest.(check string) "seeded plans replay" (Fault.to_string trial.Chaos.trial_plan)
    (Fault.to_string replay.Chaos.trial_plan)

let test_chaos_mixed_pinned () =
  (* the mixed family draws the plans the seeded soak drew before it
     became a matrix family, and hm passes all three *)
  let trials = mixed_trials ~n:8 ~seed:42 ~trials:3 in
  Alcotest.(check (list string)) "plans at seed 42"
    [
      "loss=0.06,dup=0.03,reorder=0.1,part=0-5|6-7@9..19,crash=0@8,restart=0@15";
      "loss=0.01,dup=0.04,reorder=0.02,corrupt=0.02,part=0-5|6-7@3..8,crash=7@8,restart=7@16";
      "loss=0.02,reorder=0.07,corrupt=0.02,part=0-2|3-7@8..15,crash=1@8,restart=1@15";
    ]
    (List.map (fun (t : Chaos.trial) -> Fault.to_string t.Chaos.trial_plan) trials);
  Alcotest.(check (list int)) "seeds" [ 42; 43; 44 ]
    (List.map (fun (t : Chaos.trial) -> t.Chaos.trial_seed) trials);
  Alcotest.(check (list bool)) "all pass" [ true; true; true ]
    (List.map (fun (t : Chaos.trial) -> t.Chaos.trial_passed) trials)

let test_chaos_matrix_deterministic () =
  (* a small slice of the nightly matrix on the mux backend: the JSON
     summary must be byte-identical across runs (it is diffed against a
     pinned baseline in CI), every plan family must produce a cell, and
     this slice is known-green *)
  let sweep () =
    Chaos.matrix
      ~algos:[ get_algo "hm" ]
      ~families:[ Repro_graph.Generate.Sorted_chain; Repro_graph.Generate.K_out 3 ]
      ~plans:Chaos.plan_families ~n:8 ~trials:2 ~seed:0 ~backend:Backend.Mux ~timeout:10.0 ()
  in
  let cells = sweep () in
  Alcotest.(check int) "one cell per (topology, plan family)"
    (2 * List.length Chaos.plan_families)
    (List.length cells);
  List.iter
    (fun (c : Chaos.cell) ->
      Alcotest.(check int)
        (Printf.sprintf "%s/%s/%s all trials pass" c.Chaos.cell_algo c.Chaos.cell_topology
           c.Chaos.cell_plan)
        c.Chaos.cell_trials c.Chaos.cell_passed)
    cells;
  Alcotest.(check string) "summary is byte-reproducible" (Chaos.matrix_to_json cells)
    (Chaos.matrix_to_json (sweep ()));
  Alcotest.check_raises "unknown plan family rejected"
    (Invalid_argument "Chaos.matrix: unknown plan family \"gamma-rays\"") (fun () ->
      ignore
        (Chaos.matrix ~algos:[ get_algo "hm" ]
           ~families:[ Repro_graph.Generate.K_out 3 ]
           ~plans:[ "gamma-rays" ] ~n:8 ~trials:1 ~seed:0 ~backend:Backend.Mux ~timeout:10.0 ()))

let test_cluster_report_json () =
  let r = run_cluster ~n:4 uds in
  let json = Cluster.result_to_json r in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec at i = i + nl <= hl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "mentions backend" true (contains {|"backend":"uds"|});
  Alcotest.(check bool) "converged flag" true (contains {|"converged":true|});
  Alcotest.(check bool) "invariants passed" true (contains {|"status":"passed"|})

(* --- Backend: typed runtime selector -------------------------------- *)

let test_backend_roundtrip () =
  List.iter
    (fun b ->
      match Backend.of_string (Backend.to_string b) with
      | Ok b' -> Alcotest.(check bool) "round-trips" true (b = b')
      | Error e -> Alcotest.fail e)
    Backend.all;
  (* legacy spellings stay parseable *)
  List.iter
    (fun (s, expect) ->
      match Backend.of_string s with
      | Ok b -> Alcotest.(check bool) (s ^ " accepted") true (b = expect)
      | Error e -> Alcotest.fail e)
    [
      ("unix", uds);
      ("process", uds);
      ("process:tcp", tcp);
      ("multiplexed", Backend.Mux);
    ];
  (* the async oracle is no backend: its old spellings are unknown *)
  List.iter
    (fun s ->
      match Backend.of_string s with
      | Error e ->
        Alcotest.(check string)
          (s ^ " refused")
          (Printf.sprintf "unknown backend %S (uds|tcp|mux)" s)
          e
      | Ok _ -> Alcotest.failf "backend %S parsed" s)
    [ "warp"; "loopback"; "sim" ]

(* --- Addr_table: the deployment's static name service ---------------- *)

(* A table file holding [text], read back as discovery_node reads one. *)
let load_table text =
  let file = Filename.temp_file "addr_table" ".txt" in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  let table = Addr_table.load file in
  Sys.remove file;
  table

let test_addr_table_roundtrip () =
  let text = "# fleet of three\n/tmp/d/node-0.sock\n9001\n10.0.0.7:9002\n\n" in
  match load_table text with
  | Error e -> Alcotest.fail e
  | Ok table ->
    Alcotest.(check int) "three entries" 3 (Array.length table);
    Alcotest.(check bool) "uds entry" true (table.(0) = Unix.ADDR_UNIX "/tmp/d/node-0.sock");
    Alcotest.(check bool)
      "bare port binds loopback" true
      (table.(1) = Unix.ADDR_INET (Unix.inet_addr_loopback, 9001));
    Alcotest.(check bool)
      "host:port entry" true
      (table.(2) = Unix.ADDR_INET (Unix.inet_addr_of_string "10.0.0.7", 9002));
    (* canonical entries re-parse to the same table: the round-trip law *)
    let line a = Addr_table.entry_to_string a ^ "\n" in
    let canon = String.concat "" (List.map line (Array.to_list table)) in
    (match load_table canon with
    | Ok table' ->
      Alcotest.(check bool) "text round-trips" true (table = table');
      Alcotest.(check string) "canonical form is a fixpoint" canon
        (String.concat "" (List.map line (Array.to_list table')))
    | Error e -> Alcotest.fail e);
    Alcotest.(check (option int)) "listen lookup" (Some 2) (Addr_table.index_of table "10.0.0.7:9002");
    Alcotest.(check (option int)) "absent address" None (Addr_table.index_of table "10.0.0.8:9002")

let test_addr_table_rejects () =
  List.iter
    (fun bad ->
      match Addr_table.parse_entry bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad entry %S parsed" bad)
    [ "0"; "70000"; "host:99999"; "not an address" ]

let test_addr_table_host_edge_cases () =
  (* the host split is on the LAST ':', so an IPv6 literal's colons all
     land in the host field *)
  (match Addr_table.parse_entry "::1:9000" with
  | Error e -> Alcotest.failf "IPv6 loopback rejected: %s" e
  | Ok addr ->
    Alcotest.(check bool)
      "IPv6 host survives the split" true
      (addr = Unix.ADDR_INET (Unix.inet_addr_of_string "::1", 9000));
    (* the canonical spelling re-parses to the same address *)
    (match Addr_table.parse_entry (Addr_table.entry_to_string addr) with
    | Ok addr' -> Alcotest.(check bool) "canonical form round-trips" true (addr = addr')
    | Error e -> Alcotest.failf "canonical IPv6 form rejected: %s" e));
  (* an empty host falls into hostname resolution and must error, not
     silently bind something *)
  (match Addr_table.parse_entry ":9000" with
  | Error _ -> ()
  | Ok addr -> Alcotest.failf "empty host parsed as %s" (Addr_table.entry_to_string addr));
  (* a bare port canonicalizes to an explicit loopback HOST:PORT, and
     index_of treats both spellings as the same node *)
  (match Addr_table.parse_entry "9000" with
  | Error e -> Alcotest.failf "bare port rejected: %s" e
  | Ok addr ->
    Alcotest.(check string) "bare port canonical form" "127.0.0.1:9000"
      (Addr_table.entry_to_string addr);
    (match Addr_table.of_entries [ "9000"; "127.0.0.1:9001" ] with
    | Error e -> Alcotest.fail e
    | Ok table ->
      Alcotest.(check (option int)) "bare spelling resolves" (Some 0)
        (Addr_table.index_of table "9000");
      Alcotest.(check (option int))
        "explicit spelling resolves to the same id" (Some 0)
        (Addr_table.index_of table "127.0.0.1:9000");
      Alcotest.(check (option int))
        "unparseable listen spelling is None" None
        (Addr_table.index_of table "not an address")))

(* --- Mux: thousands of live nodes in one process --------------------- *)

let test_mux_trace_identity () =
  (* the tentpole identity at n=64: the mux's event stream is
     byte-for-byte the async simulator's, so every protocol-layer
     mechanism the mux adds — go-back-N, hellos, acks — is invisible at
     the discovery level *)
  let algo = get_algo "hm" in
  let topology =
    Repro_graph.Generate.build (Repro_graph.Generate.K_out 3)
      ~rng:(Repro_util.Rng.substream ~seed:11 ~index:0x70b0)
      ~n:64
  in
  let sim_buf = Buffer.create 65536 and mux_buf = Buffer.create 65536 in
  let sim =
    Run_async.exec_spec
      { Run_async.default_spec with seed = 11; trace = Trace.buffer sim_buf }
      algo topology
  in
  let mux, finals =
    Mux.exec_spec
      { Run_async.default_spec with seed = 11; trace = Trace.buffer mux_buf }
      algo topology
  in
  Alcotest.(check bool) "sim completed" true sim.Run_async.completed;
  Alcotest.(check bool) "mux completed" true mux.Run_async.completed;
  Alcotest.(check string) "traces byte-identical" (Buffer.contents sim_buf)
    (Buffer.contents mux_buf);
  Alcotest.(check (float 0.0)) "completion times agree" sim.Run_async.time mux.Run_async.time;
  (* per-core tallies cover the run totals *)
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 finals in
  Alcotest.(check bool)
    "cores sent at least the data messages" true
    (sum (fun f -> f.Control.sent) >= mux.Run_async.messages)

(* The identity holds only while a round trip fits inside the mux's
   retransmission timeout (see mux.mli). hm at n = 24 is identical to
   the oracle under the default latency band (0.1, 0.9); under (0.1, 2.5)
   a retransmission draws a latency the oracle never draws, and the
   traces part at JSONL line 849 (0-based), where the oracle delivers
   13 -> 18 and the mux 4 -> 18. *)
let test_mux_trace_identity_latency_band () =
  let algo = get_algo "hm" in
  let topology =
    Repro_graph.Generate.build (Repro_graph.Generate.K_out 3)
      ~rng:(Repro_util.Rng.substream ~seed:11 ~index:0x70b0)
      ~n:24
  in
  let trace exec latency =
    let buf = Buffer.create 65536 in
    exec { Run_async.default_spec with seed = 11; latency; trace = Trace.buffer buf } algo topology;
    Array.of_list (String.split_on_char '\n' (String.trim (Buffer.contents buf)))
  in
  let oracle = trace (fun spec a t -> ignore (Run_async.exec_spec spec a t))
  and mux = trace (fun spec a t -> ignore (Mux.exec_spec spec a t)) in
  let narrow = oracle (0.1, 0.9) in
  Alcotest.(check (array string)) "default band: traces identical" narrow (mux (0.1, 0.9));
  Alcotest.(check int) "default band: events" 668 (Array.length narrow);
  let o = oracle (0.1, 2.5) and m = mux (0.1, 2.5) in
  let i = ref 0 in
  while !i < min (Array.length o) (Array.length m) && o.(!i) = m.(!i) do
    incr i
  done;
  Alcotest.(check int) "wide band: first differing line" 849 !i;
  Alcotest.(check string) "oracle's line" {|{"ev":"deliver","src":13,"dst":18}|} o.(!i);
  Alcotest.(check string) "mux's line" {|{"ev":"deliver","src":4,"dst":18}|} m.(!i)

(* The fault-free mux against the oracle at the scales where a decode
   per receipt made them part: every receipt of a head's view was a
   fresh value, so hm's identity shortcuts (a view seen twice is absorbed
   into custody once) fired in the oracle and not on the mux. Each case
   diverges on a build without the decode memo: hm at n = 512, seed 1,
   at event 5,173; hm:cap:4 at n = 512, seed 6, at event 4,347; hm at
   n = 2,048, seed 1, at event 19,186. Traces are compared line by line
   through a hash of each JSON line, so a million-event run holds two
   int vectors, not two buffers. *)
let trace_line_hashes () =
  let lines = Repro_util.Intvec.create () in
  let record ev = Repro_util.Intvec.push lines (Hashtbl.hash (Trace_json.event ev)) in
  (lines, Trace.callback record)

let mux_identity_at ~algo ~n ~seed () =
  let algo = get_algo algo in
  let topology = Repro_graph.Generate.of_seed (Repro_graph.Generate.K_out 3) ~n ~seed in
  let sim_lines, sim_sink = trace_line_hashes () and mux_lines, mux_sink = trace_line_hashes () in
  let sim =
    Run_async.exec_spec { Run_async.default_spec with seed; trace = sim_sink } algo topology
  in
  let mux, _ = Mux.exec_spec { Run_async.default_spec with seed; trace = mux_sink } algo topology in
  Alcotest.(check bool) "sim completed" true sim.Run_async.completed;
  Alcotest.(check bool) "mux completed" true mux.Run_async.completed;
  let len = Repro_util.Intvec.length in
  let common = min (len sim_lines) (len mux_lines) in
  let i = ref 0 in
  while !i < common && Repro_util.Intvec.get sim_lines !i = Repro_util.Intvec.get mux_lines !i do
    incr i
  done;
  if !i < common || len sim_lines <> len mux_lines then
    Alcotest.failf "traces diverge at event %d (of %d oracle, %d mux events)" (!i + 1)
      (len sim_lines) (len mux_lines);
  Alcotest.(check (float 0.0)) "completion times agree" sim.Run_async.time mux.Run_async.time

(* --- Decode memo ------------------------------------------------------ *)

(* Node 0 of an [n]-node run, keeping every payload it is handed, fed
   data frames from any sender with that sender's next sequence number
   (a hello from the sender restarts its numbering). *)
module Cset = Repro_util.Cset

type rig = {
  core : Node_core.t;
  rig_memo : Node_core.memo;
  rig_labels : int array;
  got : Payload.t list ref;
  next_seq : int array;
}

let rig ?memo n =
  let got = ref [] in
  let flooding = get_algo "flooding" in
  let keeper =
    {
      flooding with
      Algorithm.make =
        (fun ctx ->
          let inst = flooding.Algorithm.make ctx in
          { inst with Algorithm.receive = (fun ~src:_ p -> got := p :: !got) });
    }
  in
  let labels = Exec.labels_of ~seed:3 n in
  let memo = match memo with Some m -> m | None -> Node_core.memo ~n in
  let core =
    Node_core.create
      {
        Node_core.node = 0;
        n;
        algo = keeper;
        seed = 3;
        neighbors = [||];
        tick_period = 1.0;
        rto = 3.0;
        fault = Fault.none;
        announce = false;
      }
      {
        Node_core.emit = None;
        xmit = (fun ~now:_ ~dst:_ _ -> ());
        notify_complete = (fun ~now:_ ~tick:_ -> ());
        wake = (fun ~dst:_ -> ());
      }
      ~labels ~memo ~links_up:true ~now:0.0
  in
  { core; rig_memo = memo; rig_labels = labels; got; next_seq = Array.make n 1 }

(* Hand [body] (a message as [Wire.encode ~room:0] writes it) to the
   rig as [src]'s next data frame: [Some payload] if it was delivered,
   [None] if it was not (a decode error). *)
let feed r ~src body =
  let seq = r.next_seq.(src) in
  r.next_seq.(src) <- seq + 1;
  let before = (Node_core.final r.core).Control.delivered in
  Node_core.receive r.core ~now:1.0 (frame_of Envelope.Data ~src ~stamp:0 ~seq ~ack:0 body);
  if (Node_core.final r.core).Control.delivered = before then None else Some (List.hd !(r.got))

let hello r ~src =
  Node_core.receive r.core ~now:1.0
    (frame_of Envelope.Hello ~src ~stamp:0 ~seq:0 ~ack:0 Bytes.empty);
  r.next_seq.(src) <- 1

let snapshot_body ?(encoding = Wire.Adaptive) ~kind n ids =
  let data = Payload.Bits (Knowledge.external_snapshot (Cset.of_array n ids)) in
  let payload =
    match kind with 0 -> Payload.Share data | 1 -> Payload.Exchange data | _ -> Payload.Reply data
  in
  Wire.encode encoding ~universe:n ~room:0 payload

let view_of what = function
  | Some
      ( Payload.Share (Payload.Bits b)
      | Payload.Exchange (Payload.Bits b)
      | Payload.Reply (Payload.Bits b) ) ->
    b
  | Some _ -> Alcotest.failf "%s: not a snapshot" what
  | None -> Alcotest.failf "%s: not delivered" what

let kind_of = function
  | Some (Payload.Share _) -> 0
  | Some (Payload.Exchange _) -> 1
  | Some (Payload.Reply _) -> 2
  | Some _ | None -> -1

(* A second receipt of a view is a memo hit: the same frozen value as
   the first, whatever kind wraps it, equal to a fresh decode of its
   bytes, and carrying the minima that enumerating it gives. *)
let prop_memo_hit_is_a_fresh_decode =
  QCheck2.Test.make ~name:"a memo hit equals a fresh decode, minima included" ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 300 in
      let* ids = list_size (int_range 0 n) (int_bound (n - 1)) in
      let* encoding = oneofl [ Wire.Varint_delta; Wire.Bitmap ] in
      let+ k1 = int_bound 2 and+ k2 = int_bound 2 in
      (n, Array.of_list ids, encoding, k1, k2))
    (fun (n, ids, encoding, k1, k2) ->
      let r = rig n in
      let first = feed r ~src:1 (snapshot_body ~encoding ~kind:k1 n ids) in
      let body = snapshot_body ~encoding ~kind:k2 n ids in
      let hit = feed r ~src:1 body in
      let miss = view_of "first receipt" first and b = view_of "second receipt" hit in
      let fresh =
        match Wire.decode ~universe:n body ~off:0 ~len:(Bytes.length body) with
        | Ok p -> view_of "fresh decode" (Some p)
        | Error e -> Alcotest.fail e
      in
      let set = fresh.Knowledge.set in
      let best = ref (-1) in
      Cset.iter
        (fun v -> if !best < 0 || r.rig_labels.(v) < r.rig_labels.(!best) then best := v)
        set;
      let raw = if Cset.is_empty set then -1 else Cset.min_elt set in
      b == miss && kind_of first = k1 && kind_of hit = k2
      && Cset.equal b.Knowledge.set set
      && b.Knowledge.sbest = !best && b.Knowledge.sbest_raw = raw)

(* What is not a hit decodes afresh: a body one byte away, the same body
   from another sender, and the same body after the sender restarted
   (the runtime forgets it) or greeted (a hello forgets it). *)
let test_memo_misses () =
  let n = 64 in
  let r = rig n in
  let ids = [| 1; 5; 9; 40 |] in
  let body = snapshot_body ~kind:0 n ids in
  let first = view_of "first" (feed r ~src:1 body) in
  Alcotest.(check bool) "repeat hits" true (view_of "repeat" (feed r ~src:1 body) == first);
  let other = view_of "other sender" (feed r ~src:2 body) in
  Alcotest.(check bool) "another sender decodes fresh" true (other != first);
  Alcotest.(check bool)
    "  to the same set" true
    (Cset.equal other.Knowledge.set first.Knowledge.set);
  let changed = Bytes.copy body in
  let last = Bytes.length changed - 1 in
  Bytes.set changed last (Char.chr (Char.code (Bytes.get changed last) + 1));
  let moved = view_of "one byte away" (feed r ~src:1 changed) in
  Alcotest.(check bool) "a one-byte change decodes fresh" true (moved != first);
  Alcotest.(check bool)
    "  to its own set" false
    (Cset.equal moved.Knowledge.set first.Knowledge.set);
  let again = view_of "back" (feed r ~src:1 body) in
  Alcotest.(check bool) "only the last body is kept" true (again != first);
  Node_core.forget r.rig_memo ~node:1;
  let restarted = view_of "after forget" (feed r ~src:1 body) in
  Alcotest.(check bool) "a forgotten sender decodes fresh" true (restarted != again);
  hello r ~src:1;
  let greeted = view_of "after hello" (feed r ~src:1 body) in
  Alcotest.(check bool) "a hello forgets its sender" true (greeted != restarted);
  Alcotest.(check bool) "  and the next receipt hits" true
    (view_of "after hello, again" (feed r ~src:1 body) == greeted);
  (* the memo is the runtime's, not the core's: a second core over the
     same memo gets the first core's value *)
  let r2 = rig ~memo:r.rig_memo n in
  Alcotest.(check bool)
    "shared across cores" true
    (view_of "second core" (feed r2 ~src:1 body) == greeted)

(* A frame that fails to decode is never memoised: it fails again, and
   the entry before it still hits. A frozen view refuses writes. *)
let test_memo_rejects () =
  let n = 64 in
  let r = rig n in
  let body = snapshot_body ~kind:2 n [| 3; 4; 60 |] in
  let good = view_of "good" (feed r ~src:5 body) in
  let bad = Bytes.cat body (Bytes.of_string " ") in
  let errors () = (Node_core.final r.core).Control.decode_errors in
  Alcotest.(check bool) "trailing byte refused" true (feed r ~src:5 bad = None);
  Alcotest.(check bool) "and refused again" true (feed r ~src:5 bad = None);
  Alcotest.(check int) "two decode errors" 2 (errors ());
  Alcotest.(check bool)
    "the good entry still hits" true
    (view_of "good again" (feed r ~src:5 body) == good);
  Alcotest.check_raises "a memoised set is frozen"
    (Invalid_argument "Cset: mutation of a frozen view") (fun () ->
      ignore (Cset.add good.Knowledge.set 7))

let test_mux_cluster_512 () =
  (* the scale the process backend cannot reach: 512 live protocol
     instances, full invariant check over the merged trace *)
  let algo = get_algo "hm" in
  let spec = { (Cluster.default_spec algo) with backend = Backend.Mux; n = 512; seed = 2 } in
  let r = Cluster.run spec in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "no crashes" [] r.Cluster.crashed;
  (match r.Cluster.invariants with
  | Cluster.Passed k -> Alcotest.(check bool) "events checked" true (k > 0)
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why));
  Array.iter
    (fun nr ->
      match nr.Cluster.outcome with
      | Cluster.Finished f ->
        Alcotest.(check bool) "learned all ids" true (f.Control.complete_tick <> None)
      | Cluster.Crashed s -> Alcotest.failf "node %d crashed: %s" nr.Cluster.id s
      | Cluster.Unresponsive -> Alcotest.failf "node %d unresponsive" nr.Cluster.id)
    r.Cluster.nodes

let test_mux_reliable_under_loss () =
  (* 20% loss on every mux link: go-back-N must still converge and the
     strict checker must accept the trace *)
  let algo = get_algo "hm" in
  let fault = Fault.with_loss Fault.none ~p:0.2 in
  let spec = { (Cluster.default_spec algo) with backend = Backend.Mux; n = 48; seed = 5; fault } in
  let r = Cluster.run spec in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  (match r.Cluster.invariants with
  | Cluster.Passed _ -> ()
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Skipped why -> Alcotest.fail ("invariants skipped: " ^ why));
  match r.Cluster.totals with
  | None -> Alcotest.fail "no totals"
  | Some f -> Alcotest.(check bool) "loss forced retransmissions" true (f.Control.retransmits > 0)

let test_mux_crash_restart () =
  (* node 2 crashes at round 1 and restarts at round 3, well before the
     rest of the network converges: the fresh incarnation must actually
     rejoin via the hello handshake and catch up, because the strong
     completion predicate counts it once it is alive again. (A restart
     scheduled after natural convergence never executes — completion is
     declared at the last-join gate before the node's first revival
     event — which is the engine-reference behaviour, not a mux drill.) *)
  let algo = get_algo "hm" in
  let fault = Fault.with_restart (Fault.with_crash Fault.none ~node:2 ~round:1) ~node:2 ~round:3 in
  let spec = { (Cluster.default_spec algo) with backend = Backend.Mux; n = 64; seed = 5; fault } in
  let r = Cluster.run spec in
  Alcotest.(check bool) "converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "no incarnation left crashed" [] r.Cluster.crashed;
  (* the revived node really ran: it completed its rebuilt knowledge *)
  (match r.Cluster.nodes.(2).Cluster.outcome with
  | Cluster.Finished f ->
    Alcotest.(check bool) "restarted node caught up" true (f.Control.complete_tick <> None)
  | Cluster.Crashed s -> Alcotest.failf "node 2 crashed: %s" s
  | Cluster.Unresponsive -> Alcotest.fail "node 2 unresponsive");
  match r.Cluster.invariants with
  | Cluster.Failed msg -> Alcotest.fail ("invariants failed: " ^ msg)
  | Cluster.Passed _ | Cluster.Skipped _ -> ()

let test_mux_fatal_crash_reported () =
  (* an unrestarted crash: survivors still converge (strong completion
     skips dead nodes, as in the in-memory engines) but the victim is
     reported crashed and incomplete *)
  let algo = get_algo "hm" in
  let fault = Fault.with_crash Fault.none ~node:1 ~round:1 in
  let spec = { (Cluster.default_spec algo) with backend = Backend.Mux; n = 24; seed = 5; fault } in
  let r = Cluster.run spec in
  Alcotest.(check bool) "survivors converged" true r.Cluster.converged;
  Alcotest.(check (list int)) "victim reported crashed" [ 1 ] r.Cluster.crashed;
  match r.Cluster.nodes.(1).Cluster.outcome with
  | Cluster.Finished f ->
    Alcotest.(check bool) "victim incomplete" true (f.Control.complete_tick = None)
  | Cluster.Crashed _ | Cluster.Unresponsive -> ()

let () =
  Alcotest.run "net"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "kinds" `Quick test_envelope_kinds;
          Alcotest.test_case "incremental" `Quick test_envelope_incremental;
          Alcotest.test_case "corruption" `Quick test_envelope_corruption;
          Alcotest.test_case "peek-kind" `Quick test_envelope_peek_kind;
          Alcotest.test_case "limits" `Quick test_envelope_limits;
          Alcotest.test_case "core-receive" `Quick test_node_core_receive;
          Alcotest.test_case "lent-frames-never-written" `Quick test_lent_frames_never_written;
          Alcotest.test_case "hostile-length-at-offset" `Quick test_envelope_hostile_length;
          QCheck_alcotest.to_alcotest prop_envelopes_back_to_back;
          Alcotest.test_case "crc-known-answer" `Quick test_crc_known_answer;
          QCheck_alcotest.to_alcotest prop_crc_matches_bytewise;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_hit_is_a_fresh_decode;
          Alcotest.test_case "misses" `Quick test_memo_misses;
          Alcotest.test_case "rejects" `Quick test_memo_rejects;
        ] );
      ("backend", [ Alcotest.test_case "roundtrip" `Quick test_backend_roundtrip ]);
      ( "addr-table",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_table_roundtrip;
          Alcotest.test_case "rejects" `Quick test_addr_table_rejects;
          Alcotest.test_case "host-edge-cases" `Quick test_addr_table_host_edge_cases;
        ] );
      ( "control",
        Alcotest.test_case "roundtrip" `Quick test_control_roundtrip
        :: Alcotest.test_case "canonical lines only" `Quick test_control_canonical_only
        :: Alcotest.test_case "line cap" `Quick test_control_line_cap
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_control_event_roundtrip;
               prop_control_completed_final_roundtrip;
               prop_control_unknown_reason;
               prop_control_accepted_reencode;
               prop_control_mutations_total;
             ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "extremes" `Quick test_backoff_extremes;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "uds-16" `Quick test_cluster_uds;
          Alcotest.test_case "tcp-8" `Quick test_cluster_tcp;
          Alcotest.test_case "crash-detected" `Quick test_cluster_crash_detected;
          Alcotest.test_case "teardown-bounded" `Quick test_cluster_teardown_bounded;
          Alcotest.test_case "report-json" `Quick test_cluster_report_json;
          Alcotest.test_case "final-report-slow-reader" `Quick test_node_final_report_slow_reader;
        ] );
      ( "mux",
        [
          Alcotest.test_case "trace-identity-64" `Quick test_mux_trace_identity;
          Alcotest.test_case "trace-identity-latency-band" `Quick
            test_mux_trace_identity_latency_band;
          Alcotest.test_case "trace-identity-hm-512" `Quick
            (mux_identity_at ~algo:"hm" ~n:512 ~seed:1);
          Alcotest.test_case "trace-identity-hm-cap4-512" `Quick
            (mux_identity_at ~algo:"hm:cap:4" ~n:512 ~seed:6);
          Alcotest.test_case "trace-identity-hm-2048" `Slow
            (mux_identity_at ~algo:"hm" ~n:2048 ~seed:1);
          Alcotest.test_case "cluster-trace-identity" `Quick test_cluster_mux_trace_identity;
          Alcotest.test_case "cluster-512" `Quick test_mux_cluster_512;
          Alcotest.test_case "reliable-under-loss" `Quick test_mux_reliable_under_loss;
          Alcotest.test_case "crash-restart" `Quick test_mux_crash_restart;
          Alcotest.test_case "fatal-crash-reported" `Quick test_mux_fatal_crash_reported;
        ] );
      ( "faultnet",
        [
          Alcotest.test_case "reliable-under-loss" `Quick test_cluster_reliable_under_loss;
          Alcotest.test_case "partition-heals" `Quick test_cluster_partition_heals;
          Alcotest.test_case "crash-restart" `Quick test_cluster_crash_restart;
          Alcotest.test_case "restart-at-15" `Quick (late_restart ~restart:15);
          Alcotest.test_case "restart-after-completion" `Quick (late_restart ~restart:40);
          Alcotest.test_case "fatal-crash-reported" `Quick test_cluster_fatal_crash_without_restart;
          Alcotest.test_case "chaos-plan-shape" `Quick test_chaos_plan_shape;
          Alcotest.test_case "chaos-mixed-pinned" `Quick test_chaos_mixed_pinned;
          Alcotest.test_case "chaos-matrix-deterministic" `Quick test_chaos_matrix_deterministic;
        ] );
    ]
