(* Continuous discovery service: the convergence-lag invariant checker,
   the versioned-update wire codec, the membership view lattice, the
   graceful-leave fault schedule, and end-to-end soaks of the service
   runtime under churn. *)

open Repro_engine
open Repro_discovery
open Repro_service

(* --- Trace.Lag: the convergence-lag invariant ------------------------- *)

let feed lag events =
  let sink = Trace.Lag.sink lag in
  List.iter (Trace.emit sink) events

let tick time = Trace.Tick { node = 0; time; count = 1 }

let test_lag_clean_churn () =
  let lag = Trace.Lag.create ~bound:10.0 () in
  feed lag
    [
      (* genesis: pre-tick joins carry no deadline *)
      Trace.Join { node = 0 };
      Trace.Join { node = 1 };
      Trace.Join { node = 2 };
      tick 1.0;
      Trace.Crash { node = 2 };
      (* epoch 1 at t=1 *)
      tick 2.0;
      Trace.Converge { node = 0; epoch = 1 };
      Trace.Converge { node = 1; epoch = 1 };
      tick 3.0;
      Trace.Join { node = 3 };
      (* epoch 2 at t=3: nodes 0, 1 and the joiner itself must converge *)
      tick 5.0;
      Trace.Converge { node = 0; epoch = 2 };
      Trace.Converge { node = 1; epoch = 2 };
      Trace.Converge { node = 3; epoch = 2 };
      tick 6.0;
    ];
  Trace.Lag.final_check lag;
  Alcotest.(check int) "epochs" 2 (Trace.Lag.epochs lag);
  Alcotest.(check int) "closed" 2 (Trace.Lag.closed lag);
  Alcotest.(check bool) "max lag recorded" true (Trace.Lag.max_lag lag >= 1.0)

let test_lag_violation_rejected () =
  let lag = Trace.Lag.create ~bound:5.0 () in
  let violating () =
    feed lag
      [
        Trace.Join { node = 0 };
        Trace.Join { node = 1 };
        tick 1.0;
        Trace.Crash { node = 1 };
        (* node 0 never confirms the change; clock passes 1 + bound *)
        tick 4.0;
        tick 7.0;
      ]
  in
  Alcotest.check_raises "laggard rejected"
    (Trace.Lag.Violation
       "convergence lag exceeded: node 0 has not converged to epoch 1 (change at t=1) by t=7 \
        (bound 5)")
    violating

let test_lag_joiner_is_accountable () =
  let lag = Trace.Lag.create ~bound:5.0 () in
  Alcotest.check_raises "joiner must converge too"
    (Trace.Lag.Violation
       "convergence lag exceeded: node 2 has not converged to epoch 1 (change at t=1) by t=8 \
        (bound 5)")
    (fun () ->
      feed lag
        [
          Trace.Join { node = 0 };
          Trace.Join { node = 1 };
          tick 1.0;
          Trace.Join { node = 2 };
          Trace.Converge { node = 0; epoch = 1 };
          Trace.Converge { node = 1; epoch = 1 };
          tick 8.0;
        ])

let test_lag_departed_not_required () =
  (* a node that leaves mid-epoch is excused from converging to it *)
  let lag = Trace.Lag.create ~bound:5.0 () in
  feed lag
    [
      Trace.Join { node = 0 };
      Trace.Join { node = 1 };
      Trace.Join { node = 2 };
      tick 1.0;
      Trace.Crash { node = 2 };
      tick 2.0;
      Trace.Converge { node = 0; epoch = 1 };
      (* node 1 leaves before confirming epoch 1: that closes the epoch *)
      Trace.Leave { node = 1 };
      Trace.Converge { node = 0; epoch = 2 };
      tick 3.0;
    ];
  Trace.Lag.final_check lag;
  Alcotest.(check int) "both epochs closed" 2 (Trace.Lag.closed lag)

let test_lag_future_epoch_rejected () =
  let lag = Trace.Lag.create () in
  Alcotest.check_raises "cannot converge to the future"
    (Trace.Lag.Violation "node 0 converged to epoch 3, which has not happened (current epoch 0)")
    (fun () -> feed lag [ Trace.Join { node = 0 }; tick 1.0; Trace.Converge { node = 0; epoch = 3 } ])

let test_lag_open_epoch_within_bound_ok () =
  (* the run may end with an epoch still settling, as long as its
     deadline lies beyond the final clock reading *)
  let lag = Trace.Lag.create ~bound:100.0 () in
  feed lag [ Trace.Join { node = 0 }; Trace.Join { node = 1 }; tick 1.0; Trace.Crash { node = 1 }; tick 2.0 ];
  Trace.Lag.final_check lag;
  Alcotest.(check int) "epoch open" 0 (Trace.Lag.closed lag);
  Alcotest.(check int) "but counted" 1 (Trace.Lag.epochs lag)

(* Every member ticks once per virtual tick, so a fleet's trace repeats
   each clock reading once per member. *)
let fleet_ticks time = List.init 3 (fun node -> Trace.Tick { node; time; count = 1 })

let test_lag_same_time_ticks_violation () =
  let lag = Trace.Lag.create ~bound:5.0 () in
  feed lag
    ([ Trace.Join { node = 0 }; Trace.Join { node = 1 } ]
    @ fleet_ticks 1.0
    @ [ Trace.Crash { node = 1 } ]
    @ fleet_ticks 3.0 @ fleet_ticks 6.0);
  (* t = 6 is exactly the deadline of the change at t = 1: still in time *)
  Alcotest.check_raises "first tick past the bound fires"
    (Trace.Lag.Violation
       "convergence lag exceeded: node 0 has not converged to epoch 1 (change at t=1) by t=6.5 \
        (bound 5)")
    (fun () -> feed lag (fleet_ticks 6.5))

let test_lag_converge_between_same_time_ticks () =
  let lag = Trace.Lag.create ~bound:5.0 () in
  feed lag
    ([ Trace.Join { node = 0 }; Trace.Join { node = 1 }; Trace.Join { node = 2 } ]
    @ fleet_ticks 1.0
    @ [ Trace.Crash { node = 2 }; tick 2.0; Trace.Converge { node = 0; epoch = 1 } ]);
  Alcotest.(check int) "one node still behind" 0 (Trace.Lag.closed lag);
  feed lag [ tick 2.0; Trace.Converge { node = 1; epoch = 1 } ];
  (* the converge itself closes the epoch, not the next clock move *)
  Alcotest.(check int) "closed at the converge" 1 (Trace.Lag.closed lag);
  Alcotest.(check (float 0.0)) "lag measured at t=2" 1.0 (Trace.Lag.max_lag lag);
  feed lag [ tick 2.0; tick 2.0 ];
  Alcotest.(check int) "same-time ticks change nothing" 1 (Trace.Lag.closed lag);
  Trace.Lag.final_check lag

(* --- Wire codec 3: versioned update batches --------------------------- *)

(* a whole message in a buffer of its own *)
let encode e ~universe p = Wire.encode e ~universe ~room:0 p
let decode ~universe b = Wire.decode ~universe b ~off:0 ~len:(Bytes.length b)

let updates ?(full = false) entries =
  let flat = Array.make (2 * List.length entries) 0 in
  List.iteri
    (fun i (node, version, status) -> Payload.set_update flat i ~node ~version ~status)
    entries;
  Payload.Updates { full; count = List.length entries; entries = flat }

let roundtrip p =
  let b = encode Wire.Adaptive ~universe:300 p in
  match decode ~universe:300 b with
  | Ok p' -> p'
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_wire_updates_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip preserves payload" true
        (Batch_equal.same_payload (roundtrip p) p))
    [
      Payload.Share (updates [ (0, 1, 0); (7, 12, 2); (299, 1, 1) ]);
      Payload.Share (updates ~full:true [ (3, 1, 0); (4, 2, 0) ]);
      Payload.Exchange (updates ~full:true [ (42, 1, 0) ]);
      Payload.Reply (updates []);
      Payload.Reply (updates ~full:true []);
    ]

let test_wire_updates_canonical_enforced () =
  let check_invalid name p =
    Alcotest.check_raises name (Invalid_argument "Wire.encode: updates not strictly ascending")
      (fun () -> ignore (encode Wire.Adaptive ~universe:300 p))
  in
  check_invalid "unsorted rejected" (Payload.Share (updates [ (7, 1, 0); (3, 1, 0) ]));
  check_invalid "duplicate rejected" (Payload.Share (updates [ (3, 1, 0); (3, 2, 0) ]))

let test_wire_updates_bad_bytes_rejected () =
  let good = encode Wire.Adaptive ~universe:300 (Payload.Share (updates [ (5, 3, 1) ])) in
  (* flip the status byte (last byte) to an unknown value *)
  let bad = Bytes.copy good in
  Bytes.set bad (Bytes.length bad - 1) (Char.chr 7);
  (match decode ~universe:300 bad with
  | Ok _ -> Alcotest.fail "unknown status accepted"
  | Error _ -> ());
  (* truncated body *)
  (match decode ~universe:300 (Bytes.sub good 0 (Bytes.length good - 1)) with
  | Ok _ -> Alcotest.fail "truncated batch accepted"
  | Error _ -> ());
  (* the full flag is meaningless on a non-update codec *)
  let share = encode Wire.Adaptive ~universe:300 (Payload.Share (Payload.Ids [| 1; 2 |])) in
  let bad = Bytes.copy share in
  Bytes.set bad 1 (Char.chr (Char.code (Bytes.get share 1) lor 0x40));
  match decode ~universe:300 bad with
  | Ok _ -> Alcotest.fail "stray full flag accepted"
  | Error _ -> ()

let test_wire_updates_size_exact () =
  let p = Payload.Share (updates [ (0, 1, 0); (150, 200, 2) ]) in
  let b = encode Wire.Adaptive ~universe:300 p in
  Alcotest.(check int) "encoded_size agrees" (Bytes.length b)
    (Wire.encoded_size Wire.Adaptive ~universe:300 p)

(* The fabrication adversary merges its ids into a batch in node order,
   skipping known and out-of-universe ids, so the forged batch still
   encodes. *)
let test_updates_fabrication_canonical () =
  let forged =
    Adversary.inject ~universe:300
      (Payload.Share (updates [ (3, 5, 1); (9, 2, 0) ]))
      [ 7; 1; 3; 400 ]
  in
  Alcotest.(check bool) "fabricated entries merged in node order" true
    (Batch_equal.same_payload forged
       (Payload.Share (updates [ (1, 0, 0); (3, 5, 1); (7, 0, 0); (9, 2, 0) ])));
  Alcotest.(check (option (array int))) "ids" (Some [| 1; 3; 7; 9 |]) (Adversary.payload_ids forged);
  Alcotest.(check bool) "still encodes" true (Batch_equal.same_payload (roundtrip forged) forged)

(* --- Wire: failure-detector payloads ----------------------------------- *)

let test_wire_probe_payloads_roundtrip () =
  List.iter
    (fun p -> Alcotest.(check bool) "roundtrip preserves payload" true (roundtrip p = p))
    [
      Payload.Probe_req { target = 0; nonce = 0 };
      Payload.Probe_req { target = 299; nonce = 0x3FFF_FFFF };
      Payload.Probe_ack { target = 17; nonce = 1 };
      Payload.Probe_ack { target = 299; nonce = 12345678 };
      Payload.Suspicion { target = 42; version = 0 };
      Payload.Suspicion { target = 0; version = 77 };
    ];
  (* the three kinds must stay distinct on the wire even with equal fields *)
  let enc p = Bytes.to_string (encode Wire.Adaptive ~universe:300 p) in
  Alcotest.(check bool) "req <> ack" true
    (enc (Payload.Probe_req { target = 5; nonce = 9 }) <> enc (Payload.Probe_ack { target = 5; nonce = 9 }));
  Alcotest.(check bool) "ack <> suspicion" true
    (enc (Payload.Probe_ack { target = 5; nonce = 9 }) <> enc (Payload.Suspicion { target = 5; version = 9 }))

let test_wire_probe_payloads_canonical_enforced () =
  (* out-of-range targets and negative correlation values must be
     refused at encode time, exactly like out-of-range update entries *)
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) name true
        (try
           ignore (encode Wire.Adaptive ~universe:300 p);
           false
         with Invalid_argument _ -> true))
    [
      ("target beyond universe", Payload.Probe_req { target = 300; nonce = 1 });
      ("negative target", Payload.Probe_ack { target = -1; nonce = 1 });
      ("negative nonce", Payload.Probe_req { target = 3; nonce = -1 });
      ("negative version", Payload.Suspicion { target = 3; version = -1 });
    ]

let test_wire_probe_payloads_bad_bytes_rejected () =
  let good = encode Wire.Adaptive ~universe:300 (Payload.Probe_req { target = 5; nonce = 9 }) in
  (* canonical form is exactly two varints: a trailing byte is noise *)
  let padded = Bytes.extend good 0 1 in
  Bytes.set padded (Bytes.length padded - 1) '\000';
  (match decode ~universe:300 padded with
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error _ -> ());
  (* truncated body *)
  (match decode ~universe:300 (Bytes.sub good 0 1) with
  | Ok _ -> Alcotest.fail "missing body accepted"
  | Error _ -> ());
  (* a decoded target is range-checked against the receiver's universe *)
  let wide = encode Wire.Adaptive ~universe:1000 (Payload.Suspicion { target = 750; version = 2 }) in
  match decode ~universe:300 wide with
  | Ok _ -> Alcotest.fail "out-of-universe target accepted"
  | Error _ -> ()

let test_wire_probe_payloads_size_exact () =
  List.iter
    (fun p ->
      let b = encode Wire.Adaptive ~universe:300 p in
      Alcotest.(check int) "encoded_size agrees" (Bytes.length b)
        (Wire.encoded_size Wire.Adaptive ~universe:300 p))
    [
      Payload.Probe_req { target = 0; nonce = 0 };
      Payload.Probe_req { target = 299; nonce = 1 lsl 29 };
      Payload.Probe_ack { target = 128; nonce = 300 };
      Payload.Suspicion { target = 200; version = 16384 };
    ]

(* --- View versions / Payload updates ---------------------------------- *)

let test_view_versions () =
  let v = View.create ~cap:32 ~owner:0 in
  let apply ~version = View.apply v ~node:5 ~version ~status:Payload.status_alive in
  Alcotest.(check int) "owner starts at 1" 1 (View.version v 0);
  Alcotest.(check int) "unobserved is 0" 0 (View.version v 5);
  Alcotest.(check bool) "first observation recorded" true (apply ~version:3 <> View.Stale);
  Alcotest.(check int) "recorded" 3 (View.version v 5);
  Alcotest.(check bool) "regression ignored" true (apply ~version:2 = View.Stale);
  Alcotest.(check bool) "equal ignored" true (apply ~version:3 = View.Stale);
  Alcotest.(check int) "still 3" 3 (View.version v 5);
  Alcotest.(check bool) "advance accepted" true (apply ~version:9 = View.Updated);
  Alcotest.(check int) "advanced" 9 (View.version v 5);
  (* a node first seen at version 0 is known, at version 0 *)
  Alcotest.(check bool) "version 0 is known" true
    (View.apply v ~node:7 ~version:0 ~status:Payload.status_alive <> View.Stale);
  Alcotest.(check int) "recorded at 0" 0 (View.version v 7);
  Alcotest.check_raises "range checked" (Invalid_argument "View.version: out of range")
    (fun () -> ignore (View.version v 32))

let test_payload_updates_merge () =
  let k = Knowledge.create ~n:32 ~owner:0 ~labels:(Array.init 32 Fun.id) () in
  let d = updates [ (3, 2, 0); (4, 1, 2) ] in
  Alcotest.(check int) "both fresh" 2 (Payload.merge_data k d);
  Alcotest.(check bool) "ids learned" true (Knowledge.knows k 3 && Knowledge.knows k 4);
  Alcotest.(check int) "nothing new twice" 0 (Payload.merge_data k d);
  Alcotest.(check int) "empty batch still costs a pointer" 1
    (Payload.measure (Payload.Share (updates [])))

(* --- Fault: graceful-leave schedules ---------------------------------- *)

let test_fault_leave_roundtrip () =
  let f = Fault.with_leave (Fault.with_leave Fault.none ~node:3 ~round:10) ~node:5 ~round:4 in
  Alcotest.(check string) "to_string" "leave=3@10,leave=5@4" (Fault.to_string f);
  (match Fault.of_string (Fault.to_string f) with
  | Ok f' -> Alcotest.(check bool) "roundtrip" true (Fault.equal f f')
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "leave_round" (Some 4) (List.assoc_opt 5 (Fault.leaving_nodes f));
  Alcotest.(check (option int)) "unscheduled" None (List.assoc_opt 9 (Fault.leaving_nodes f));
  Alcotest.(check int) "last_scheduled_round sees leaves" 10 (Fault.last_scheduled_round f)

let test_fault_leave_crash_exclusive () =
  let f = Fault.with_leave Fault.none ~node:3 ~round:5 in
  Alcotest.check_raises "crash after leave"
    (Invalid_argument "Fault.with_crash: node is scheduled to leave gracefully") (fun () ->
      ignore (Fault.with_crash f ~node:3 ~round:7));
  let g = Fault.with_crash Fault.none ~node:3 ~round:5 in
  Alcotest.check_raises "leave after crash"
    (Invalid_argument "Fault.with_leave: node is scheduled to crash") (fun () ->
      ignore (Fault.with_leave g ~node:3 ~round:7))

(* --- View: the (version, status) lattice ------------------------------ *)

let test_view_lattice () =
  let v = View.create ~cap:16 ~owner:0 in
  Alcotest.(check bool) "owner live" true (View.is_live v 0);
  Alcotest.(check bool) "unknown not live" false (View.is_live v 3);
  (match View.apply v ~node:3 ~version:1 ~status:Payload.status_alive with
  | View.Changed true -> ()
  | _ -> Alcotest.fail "first observation should change liveness");
  (match View.apply v ~node:3 ~version:1 ~status:Payload.status_alive with
  | View.Stale -> ()
  | _ -> Alcotest.fail "same observation should be stale");
  (* at equal version the pessimistic status wins *)
  (match View.apply v ~node:3 ~version:1 ~status:Payload.status_down with
  | View.Changed false -> ()
  | _ -> Alcotest.fail "down at same version should win");
  (match View.apply v ~node:3 ~version:1 ~status:Payload.status_alive with
  | View.Stale -> ()
  | _ -> Alcotest.fail "alive cannot override down at the same version");
  (* only a higher incarnation refutes a down verdict *)
  (match View.apply v ~node:3 ~version:2 ~status:Payload.status_alive with
  | View.Changed true -> ()
  | _ -> Alcotest.fail "higher incarnation should refute");
  Alcotest.(check int) "live count" 2 (View.live_count v)

let test_view_suspicion_is_local () =
  let v = View.create ~cap:16 ~owner:0 in
  ignore (View.apply v ~node:5 ~version:1 ~status:Payload.status_alive);
  Alcotest.(check bool) "suspect flips" true (View.suspect v 5);
  Alcotest.(check bool) "still live" true (View.is_live v 5);
  Alcotest.(check int) "live count unchanged" 2 (View.live_count v);
  Alcotest.(check bool) "unsuspect clears" true (View.unsuspect v 5);
  Alcotest.(check bool) "no double clear" false (View.unsuspect v 5);
  Alcotest.(check bool) "cannot suspect the unknown" false (View.suspect v 9)

(* --- View digest and the digest-first sync ------------------------------ *)

let exported s = if s = Payload.status_suspect then Payload.status_alive else s

(* The digest recomputed from scratch: one word per known node's
   exported triple. *)
let scratch_digest v ~cap =
  let d = ref 0 in
  for node = 0 to cap - 1 do
    let s = View.status v node in
    if s <> View.unknown then
      d := !d lxor View.entry_word ~node ~version:(View.version v node) ~status:(exported s)
  done;
  !d

let quiet_actions send =
  {
    Member.send;
    on_suspect = (fun ~target:_ -> ());
    on_retire = (fun ~target:_ -> ());
    on_view_change = (fun ~target:_ ~alive:_ -> ());
  }

type view_op = Apply of int * int * int | Suspect of int | Unsuspect of int

(* After any sequence of merges and local suspicions, the digest [apply]
   keeps equals the digest of the member's full-state batch: the member
   answers a mismatched [Sync] with [Exchange (full_entries)], and the
   XOR of that batch's entry words must be [View.digest]. A [Sync]
   carrying the member's own digest draws no answer. Node [cap - 1]
   sends the syncs and is never observed, so handling them leaves the
   view as it was. *)
let prop_view_digest_incremental =
  let cap = 24 in
  QCheck2.Test.make ~name:"incremental digest equals the full-state batch's digest" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (let* node = int_range 1 (cap - 2) in
         oneof
           [
             (let* version = int_range 0 4 and* status = int_range 0 Payload.status_down in
              return (Apply (node, version, status)));
             return (Suspect node);
             return (Unsuspect node);
           ]))
    (fun ops ->
      let sent = ref [] in
      let m =
        Member.create_genesis ~cap ~self:0 ~peers:[| 0; 1; 2; 3 |]
          ~rng:(Repro_util.Rng.create ~seed:1) ~full_sync:true ~indirect_k:2 ~lifeguard:true
          (quiet_actions (fun ~dst:_ payload ->
               match payload with
               | Payload.Exchange (Payload.Updates u) ->
                 (* the batch is lent: read it before returning *)
                 let d = ref 0 in
                 for i = 0 to u.count - 1 do
                   d :=
                     !d
                     lxor View.entry_word ~node:(Payload.update_node u.entries i)
                            ~version:(Payload.update_version u.entries i)
                            ~status:(Payload.update_status u.entries i)
                 done;
                 sent := `Batch !d :: !sent
               | _ -> sent := `Other :: !sent))
      in
      let v = Member.view m in
      let step_ok op =
        (match op with
        | Apply (node, version, status) -> ignore (View.apply v ~node ~version ~status)
        | Suspect node -> ignore (View.suspect v node)
        | Unsuspect node -> ignore (View.unsuspect v node));
        View.digest v = scratch_digest v ~cap && View.digest v >= 0
      in
      List.for_all step_ok ops
      &&
      let src = cap - 1 in
      Member.deliver m ~src ~now:1.0 (Payload.Sync { digest = View.digest v });
      let quiet = !sent = [] in
      Member.deliver m ~src ~now:1.0 (Payload.Sync { digest = View.digest v lxor 1 });
      quiet && !sent = [ `Batch (View.digest v) ])

(* After any sequence of merges and local suspicions, the live-peer
   list is exactly the live nodes other than the owner, [live_count]
   counts the live nodes, and a sample of [k] peers excluding [exclude]
   holds [min k eligible] distinct live peers, never the owner or
   [exclude]. Merges reach the owner too, and every step also draws
   one sample, whose in-place shuffle must leave the list's set as it
   was. *)
let prop_view_live_list =
  let cap = 24 and owner = 0 in
  QCheck2.Test.make ~name:"live list tracks liveness; samples are distinct live peers" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 80)
        (let* node = int_range 0 (cap - 1) in
         let* op =
           oneof
             [
               (let* version = int_range 0 4 and* status = int_range 0 Payload.status_down in
                return (Apply (node, version, status)));
               return (Suspect node);
               return (Unsuspect node);
             ]
         in
         let* k = int_range 0 6 and* exclude = int_range (-1) (cap - 1) in
         return (op, k, exclude)))
    (fun steps ->
      let v = View.create ~cap ~owner in
      let rng = Repro_util.Rng.create ~seed:3 in
      let list () =
        let l = ref [] in
        View.iter_live v (fun p -> l := p :: !l);
        List.sort Int.compare !l
      in
      let expected () = List.filter (fun p -> p <> owner && View.is_live v p) (List.init cap Fun.id) in
      let consistent () =
        list () = expected ()
        && View.live_count v = List.length (List.filter (View.is_live v) (List.init cap Fun.id))
      in
      let sample_ok k exclude =
        let eligible = List.length (List.filter (fun p -> p <> exclude) (expected ())) in
        let got = Array.to_list (View.random_live_sample v rng ~k ~exclude) in
        List.length got = min k eligible
        && List.length (List.sort_uniq Int.compare got) = List.length got
        && List.for_all (fun p -> p <> owner && p <> exclude && View.is_live v p) got
      in
      let draw_ok () =
        let p = View.random_live v rng in
        if p < 0 then p = -1 && expected () = [] else p <> owner && View.is_live v p
      in
      List.for_all
        (fun (op, k, exclude) ->
          (match op with
          | Apply (node, version, status) -> ignore (View.apply v ~node ~version ~status)
          | Suspect node -> ignore (View.suspect v node)
          | Unsuspect node -> ignore (View.unsuspect v node));
          consistent () && sample_ok k exclude && consistent () && draw_ok ())
        steps)

(* Two views that differ in exactly one entry — one node held at
   another (version, exported status), or known on one side only —
   never share a digest. Every pair of one node's options is tried, for
   every node, over a base that knows the other nodes. The words behind
   it are distinct and non-zero over a grid of triples and at the
   packing's edges. *)
let test_view_digest_single_change () =
  let cap = 32 in
  let options =
    None
    :: List.concat_map
         (fun version ->
           [ Some (version, Payload.status_alive); Some (version, Payload.status_down) ])
         [ 0; 1; 2; 7 ]
  in
  let view_with node option =
    let v = View.create ~cap ~owner:0 in
    for other = 1 to cap - 1 do
      if other <> node && other mod 3 <> 0 then
        ignore
          (View.apply v ~node:other ~version:(1 + (other mod 4))
             ~status:(if other mod 5 = 0 then Payload.status_down else Payload.status_alive))
    done;
    Option.iter (fun (version, status) -> ignore (View.apply v ~node ~version ~status)) option;
    View.digest v
  in
  for node = 1 to cap - 1 do
    List.iteri
      (fun i x ->
        List.iteri
          (fun j y ->
            if i < j && view_with node x = view_with node y then
              Alcotest.failf "node %d: two one-entry variants share digest %x" node
                (view_with node x))
          options)
      options
  done;
  let seen = Hashtbl.create 8192 in
  let check ~node ~version ~status =
    let w = View.entry_word ~node ~version ~status in
    if w = 0 then Alcotest.failf "word 0 for (%d, %d, %d)" node version status;
    if w < 0 then Alcotest.failf "negative word for (%d, %d, %d)" node version status;
    (match Hashtbl.find_opt seen w with
    | Some (n, v, s) ->
      Alcotest.failf "(%d, %d, %d) and (%d, %d, %d) share a word" n v s node version status
    | None -> ());
    Hashtbl.replace seen w (node, version, status)
  in
  for node = 0 to 63 do
    for version = 0 to 31 do
      for status = 0 to Payload.status_down do
        check ~node ~version ~status
      done
    done
  done;
  List.iter
    (fun (node, version) ->
      for status = 0 to Payload.status_down do
        check ~node ~version ~status
      done)
    [ ((1 lsl 24) - 1, 0); (0, (1 lsl 36) - 1); ((1 lsl 24) - 1, (1 lsl 36) - 1) ]

(* A planted divergence that only the sync can repair. Two founders, so
   each one's sync always lands on the other. [b] learns that node 9
   left (down at version 3) from a full-state reply, which is merged
   without relogging: the entry has no gossip budget, and no gossip
   push will ever carry it. Messages take one tick per hop. The first
   sync fires at tick 64; a digest, the whole-view push and the full
   reply are three hops, so by tick 64 + 3 both views must hold the
   entry and agree. *)
let test_member_digest_repairs_planted_entry () =
  let cap = 16 and interval = 64 in
  let wire = Queue.create () in
  let member self =
    Member.create_genesis ~cap ~self ~peers:[| 0; 1 |]
      ~rng:(Repro_util.Rng.create ~seed:(7 + self)) ~full_sync:true ~indirect_k:2 ~lifeguard:true
      (quiet_actions (fun ~dst payload ->
           Queue.push (self, dst, encode Wire.Adaptive ~universe:cap payload) wire))
  in
  let members = [| member 0; member 1 |] in
  let a = members.(0) and b = members.(1) in
  Member.deliver b ~src:0 ~now:0.0
    (Payload.Reply (updates ~full:true [ (9, 3, Payload.status_down) ]));
  let knows_left m =
    View.status (Member.view m) 9 = Payload.status_down && View.version (Member.view m) 9 = 3
  in
  Alcotest.(check bool) "planted in b" true (knows_left b);
  for tick = 1 to interval + 3 do
    let now = float_of_int tick in
    (* deliver what the previous tick sent: one hop per tick *)
    let due = Queue.fold (fun acc hop -> hop :: acc) [] wire |> List.rev in
    Queue.clear wire;
    List.iter
      (fun (src, dst, frame) ->
        match decode ~universe:cap frame with
        | Ok payload -> Member.deliver members.(dst) ~src ~now payload
        | Error msg -> Alcotest.failf "frame refused: %s" msg)
      due;
    if tick < interval && knows_left a then
      Alcotest.failf "a learned the entry at tick %d, before any sync" tick;
    Member.step a ~now;
    Member.step b ~now
  done;
  Alcotest.(check bool) "repaired within one interval plus three hops" true (knows_left a);
  Alcotest.(check int) "digests agree" (View.digest (Member.view a)) (View.digest (Member.view b))

(* --- Service: end-to-end soaks ---------------------------------------- *)

let soak_config ?(n = 16) ?(cap = 24) ?(ticks = 600) ?(seed = 11) ?churn ?(fault = Fault.none)
    ?backend ?(indirect_k = 2) ?(lifeguard = true) () =
  {
    Service.n;
    cap;
    seed;
    ticks;
    churn;
    fault;
    lag_bound = None;
    full_sync = None;
    backend;
    indirect_k;
    lifeguard;
    trace = Trace.null;
  }

let test_service_clean_churn_converges () =
  let churn = { Service.rate = 0.1; min_live = 8; until = 450 } in
  let stats = Service.run (soak_config ~churn ()) in
  Alcotest.(check bool) "some churn happened" true (stats.Service.epochs > 0);
  Alcotest.(check int) "every epoch closed" stats.Service.epochs stats.Service.epochs_closed;
  Alcotest.(check bool) "lag within bound" true
    (stats.Service.max_lag <= Service.default_lag_bound ~cap:24)

let test_service_quiet_fleet_sends_no_gossip () =
  let stats = Service.run (soak_config ~ticks:300 ()) in
  Alcotest.(check int) "no gossip without churn" 0 stats.Service.gossip;
  Alcotest.(check int) "no update entries" 0 stats.Service.update_entries;
  Alcotest.(check int) "no churn, no epochs" 0 stats.Service.epochs;
  Alcotest.(check bool) "probe floor only" true
    (stats.Service.msgs = stats.Service.probes + stats.Service.acks)

let test_service_lossy_churn_converges () =
  let churn = { Service.rate = 0.05; min_live = 8; until = 400 } in
  let fault = Fault.with_loss Fault.none ~p:0.05 in
  let stats = Service.run (soak_config ~churn ~fault ~seed:3 ()) in
  Alcotest.(check int) "every epoch closed" stats.Service.epochs stats.Service.epochs_closed;
  Alcotest.(check bool) "loss actually applied" true (stats.Service.dropped_loss > 0);
  Alcotest.(check bool) "backstop auto-enabled" true (stats.Service.full_syncs > 0)

(* The byte total splits into five classes. A converged fleet with the
   sync forced on sends digests only: no sync repairs, no whole-view
   bytes, and a digest is at most 10 bytes. A scheduled join's
   bootstrap is the only bootstrap traffic: its request and the full
   replies to it, not the reply half of a sync. *)
let test_service_traffic_classes () =
  let classes (s : Service.stats) =
    s.probe_bytes + s.gossip_bytes + s.digest_bytes + s.full_state_bytes + s.bootstrap_bytes
  in
  let quiet = Service.run { (soak_config ~ticks:300 ()) with Service.full_sync = Some true } in
  Alcotest.(check int) "classes sum to bytes" quiet.Service.bytes (classes quiet);
  Alcotest.(check bool) "syncs ran" true (quiet.Service.full_syncs > 0);
  Alcotest.(check int) "no repair between equal views" 0 quiet.Service.sync_repairs;
  Alcotest.(check int) "no whole-view bytes" 0 quiet.Service.full_state_bytes;
  Alcotest.(check bool) "a digest is at most 10 bytes" true
    (quiet.Service.digest_bytes <= 10 * quiet.Service.full_syncs);
  Alcotest.(check int) "no bootstraps without a joiner" 0 quiet.Service.bootstraps;
  let fault = Fault.with_join Fault.none ~node:20 ~round:100 in
  let joined = Service.run (soak_config ~fault ~ticks:300 ()) in
  Alcotest.(check int) "classes sum to bytes, with a joiner" joined.Service.bytes (classes joined);
  Alcotest.(check int) "one joiner" 1 joined.Service.joins;
  Alcotest.(check bool) "its request and a reply" true (joined.Service.bootstraps >= 2);
  Alcotest.(check bool) "and not every sync's reply" true
    (joined.Service.bootstraps < joined.Service.full_syncs)

let test_service_direct_transport_caps_throttle () =
  (* the direct transport applies Fault.fate, so a link cap drops the
     messages a link carries past its per-tick limit *)
  let churn = { Service.rate = 0.05; min_live = 8; until = 400 } in
  let lossy = Fault.with_loss Fault.none ~p:0.05 in
  let run fault = Service.run (soak_config ~churn ~fault ~seed:3 ()) in
  let uncapped = run lossy and capped = run (Fault.with_cap lossy ~limit:1) in
  Alcotest.(check bool) "the cap drops messages" true
    (capped.Service.dropped_loss > uncapped.Service.dropped_loss)

let test_service_scheduled_churn () =
  let fault =
    Fault.with_leave (Fault.with_crash (Fault.with_join Fault.none ~node:20 ~round:100) ~node:2 ~round:50)
      ~node:5 ~round:150
  in
  let stats = Service.run (soak_config ~fault ~ticks:400 ()) in
  Alcotest.(check int) "three scheduled changes" 3 stats.Service.epochs;
  Alcotest.(check int) "all closed" 3 stats.Service.epochs_closed;
  Alcotest.(check int) "one join" 1 stats.Service.joins;
  Alcotest.(check int) "one leave" 1 stats.Service.leaves;
  Alcotest.(check int) "one crash" 1 stats.Service.crashes;
  Alcotest.(check int) "net population" 15 stats.Service.final_live

let test_service_deterministic () =
  let churn = { Service.rate = 0.08; min_live = 8; until = 400 } in
  let a = Service.run (soak_config ~churn ~seed:9 ()) in
  let b = Service.run (soak_config ~churn ~seed:9 ()) in
  Alcotest.(check string) "byte-identical reports" (Service.stats_to_json a)
    (Service.stats_to_json b);
  let c = Service.run (soak_config ~churn ~seed:10 ()) in
  Alcotest.(check bool) "seed matters" true (Service.stats_to_json a <> Service.stats_to_json c)

let test_service_traffic_scales_with_churn_not_n () =
  (* per-member steady-state traffic must be flat in fleet size and
     grow with the churn rate: the anti-entropy claim of the service *)
  let run ~n ~rate =
    let cap = n + n / 4 in
    let churn = if rate = 0.0 then None else Some { Service.rate; min_live = n / 2; until = 700 } in
    let stats = Service.run (soak_config ~n ~cap ~ticks:900 ~seed:5 ?churn ()) in
    float_of_int (stats.Service.gossip + stats.Service.probes + stats.Service.acks)
    /. float_of_int stats.Service.ticks_run /. float_of_int n
  in
  let small_quiet = run ~n:32 ~rate:0.0 in
  let small_churny = run ~n:32 ~rate:0.2 in
  let big_churny = run ~n:128 ~rate:0.2 in
  Alcotest.(check bool) "churn costs traffic" true (small_churny > small_quiet);
  (* quadrupling the fleet at fixed churn must not quadruple per-member
     traffic; allow 2x slack for the log-factor and noise *)
  Alcotest.(check bool) "per-member traffic flat in n" true (big_churny < 2.0 *. small_churny)

(* --- Service over a real backend -------------------------------------- *)

let test_service_mux_soak_converges () =
  (* members hosted inside node cores: envelope framing, go-back-N and
     the in-core fault shim on every hop. The run must close every
     churn epoch just like the virtual-network path does. *)
  let churn = { Service.rate = 0.05; min_live = 12; until = 400 } in
  let fault = Fault.with_loss Fault.none ~p:0.1 in
  let stats =
    Service.run (soak_config ~n:24 ~cap:32 ~ticks:600 ~churn ~fault ~seed:3 ~backend:Repro_net.Backend.Mux ())
  in
  Alcotest.(check bool) "churn happened" true (stats.Service.epochs > 0);
  Alcotest.(check int) "every epoch closed" stats.Service.epochs stats.Service.epochs_closed;
  (* loss lives in the core's fault shim on this path: the runtime must
     not double-apply it, and go-back-N must be doing real work *)
  Alcotest.(check int) "no service-level drops" 0 stats.Service.dropped_loss;
  Alcotest.(check bool) "go-back-N retransmitted" true (stats.Service.retransmits > 0)

let test_service_mux_deterministic () =
  let churn = { Service.rate = 0.08; min_live = 8; until = 300 } in
  let cfg = soak_config ~ticks:450 ~churn ~seed:9 ~backend:Repro_net.Backend.Mux in
  Alcotest.(check string) "byte-identical reports"
    (Service.stats_to_json (Service.run (cfg ())))
    (Service.stats_to_json (Service.run (cfg ())))

let test_service_process_backend_rejected () =
  Alcotest.check_raises "one-process runtime"
    (Invalid_argument
       "Service.run: process backends fork one OS process per node; the multiplexed service \
        runs on the direct transport or mux")
    (fun () ->
      ignore
        (Service.run (soak_config ~backend:(Repro_net.Backend.Process Repro_net.Backend.Uds) ())))

let test_service_mux_partition_heals () =
  (* a clean two-way cut: cross-partition probes all fail, so both
     sides wrongly convict the other (every conviction is false — no
     one actually died). After the heal, a scheduled join opens an
     epoch that every member must close; closing it requires having
     refuted every partition-era conviction, since a view still holding
     a live member down hashes to no true membership snapshot. *)
  let n = 24 and cap = 32 in
  let fault =
    Fault.with_join
      (Fault.with_partition Fault.none
         ~groups:[ List.init 12 Fun.id; List.init 12 (fun i -> 12 + i) ]
         ~start:100 ~heal:180)
      ~node:24 ~round:300
  in
  let stats = Service.run (soak_config ~n ~cap ~ticks:500 ~fault ~backend:Repro_net.Backend.Mux ()) in
  Alcotest.(check bool) "partition caused false convictions" true
    (stats.Service.false_retirements > 0);
  Alcotest.(check int) "join epoch" 1 stats.Service.epochs;
  Alcotest.(check int) "closed after heal" 1 stats.Service.epochs_closed;
  Alcotest.(check int) "everyone refuted and survived" 25 stats.Service.final_live

let test_service_detector_precision () =
  (* healthy fleet + heavy loss: every suspicion is false. The indirect
     round, local health and confirmation-scaled windows must cut false
     verdicts at least fivefold against the naive direct-probe detector
     (ISSUE acceptance; in practice they reach zero here). *)
  let fault = Fault.with_loss Fault.none ~p:0.2 in
  let run ~indirect_k ~lifeguard =
    Service.run (soak_config ~n:24 ~cap:32 ~ticks:800 ~fault ~seed:7 ~indirect_k ~lifeguard ())
  in
  let naive = run ~indirect_k:0 ~lifeguard:false in
  let full = run ~indirect_k:2 ~lifeguard:true in
  Alcotest.(check bool) "naive detector suspects the living" true
    (naive.Service.false_suspicions > 0);
  Alcotest.(check bool) "5x fewer false suspicions" true
    (5 * full.Service.false_suspicions <= naive.Service.false_suspicions);
  Alcotest.(check bool) "no more convictions than the naive detector" true
    (full.Service.false_retirements <= naive.Service.false_retirements)

let test_service_observer_tables_bounded () =
  (* satellite of the lag observer: its snapshot and epoch tables must
     stay O(bound), not O(changes), over a long churny soak. The peaks
     are deterministic for a fixed seed — pin them. *)
  let churn = { Service.rate = 0.1; min_live = 8; until = 1900 } in
  let stats = Service.run (soak_config ~ticks:2000 ~churn ~seed:4 ()) in
  Alcotest.(check bool) "many changes happened" true (stats.Service.epochs > 50);
  let bound = Service.default_lag_bound ~cap:24 in
  Alcotest.(check bool) "snapshot table bounded by expiry window" true
    (float_of_int stats.Service.snapshots_peak <= (2.0 *. bound) +. 1.0);
  Alcotest.(check bool) "epoch table bounded by open epochs" true
    (stats.Service.lag_table_peak < stats.Service.epochs);
  Alcotest.(check int) "snapshot high-water pinned" 25 stats.Service.snapshots_peak;
  (* 10 before the sync went digest first, 11 until peers were drawn
     from the view's live list instead of by rank over its known set;
     each moved the run's message trajectory by design, and the bound
     checks above still hold *)
  Alcotest.(check int) "epoch-table high-water pinned" 10 stats.Service.lag_table_peak

(* ROADMAP item 18's heavy-churn soak (n = 64, 3,000 ticks, churn 0.2,
   the CLI's defaults for the rest): seed 2 breaks the lag bound,
   because under churn this heavy the whole fleet matches no exact
   membership snapshot for 160 ticks, while seed 1 passes. Each runs
   under the null sink, where the lag checker gets one tick per tick,
   and under a recording sink, which sees every member's [Tick]; the
   verdicts and reports must not depend on which. The failure is pinned
   to its exact message until the checker is redefined per change. *)
let heavy_churn_config ~seed trace =
  let n = 64 and ticks = 3000 in
  let cap = n + 16 in
  let bound = Service.default_lag_bound ~cap in
  {
    (soak_config ~n ~cap ~ticks ~seed
       ~churn:
         { Service.rate = 0.2; min_live = n / 2; until = ticks - (int_of_float bound + 16) }
       ())
    with
    Service.lag_bound = Some bound;
    trace;
  }

(* a sink that only counts the [Tick]s it sees *)
let recording_sink () =
  let ticks = ref 0 in
  (Trace.callback (function Trace.Tick _ -> incr ticks | _ -> ()), ticks)

let test_service_heavy_churn_lag_failure_pinned () =
  let expected =
    "convergence lag exceeded: node 2 has not converged to epoch 452 (change at t=2343) by \
     t=2503 (bound 159.867)"
  in
  let verdict trace =
    match Service.run (heavy_churn_config ~seed:2 trace) with
    | _ -> Alcotest.fail "the seed-2 heavy-churn soak met its lag bound"
    | exception Trace.Lag.Violation msg -> msg
  in
  Alcotest.(check string) "null sink" expected (verdict Trace.null);
  let sink, ticks = recording_sink () in
  Alcotest.(check string) "recording sink" expected (verdict sink);
  (* the recording run saw a tick per member, not one per tick *)
  Alcotest.(check bool) "per-member ticks recorded" true (!ticks > 2503 * 32)

let test_service_lag_tick_sink_independent () =
  let quiet = Service.run (heavy_churn_config ~seed:1 Trace.null) in
  let sink, ticks = recording_sink () in
  let recorded = Service.run (heavy_churn_config ~seed:1 sink) in
  Alcotest.(check string) "same report under both sinks" (Service.stats_to_json quiet)
    (Service.stats_to_json recorded);
  Alcotest.(check bool) "per-member ticks recorded" true (!ticks > 3000 * 32)

(* --- chaos matrix: the known-failing cell stays pinned ---------------- *)

let test_chaos_known_failing_cell_pinned () =
  (* hm on a tree under the partition family: a real robustness gap
     tracked by ci/chaos-matrix-baseline.json. Pin the exact pass count
     so a fix (or a regression) surfaces here first. *)
  let open Repro_net in
  let cells =
    Chaos.matrix ~algos:[ Hm_gossip.algorithm ] ~families:[ Repro_graph.Generate.Binary_tree ]
      ~plans:[ "partition" ] ~n:8 ~trials:3 ~seed:0 ~backend:Backend.Mux ~timeout:10.0 ()
  in
  Alcotest.(check string) "cell"
    "{\"algo\":\"hm\",\"topology\":\"tree\",\"plan_family\":\"partition\",\"n\":8,\"trials\":3,\"passed\":2,\"failed\":1}\n"
    (Chaos.matrix_to_json cells)

let test_chaos_failing_cell_diagnosed () =
  (* Trace-level replay of the cell's failing trial (trial 0): the cut
     0-2|3-7 lands while hm is mid-halt. Nodes 1 and 3 reach local
     termination inside their side of the partition and go silent
     before the heal, so the identifiers only they would have relayed
     never cross the healed cut and six nodes starve. The passing
     trials also have pre-heal-quiet nodes, but every one of those
     completes — quiet *and completed* before the heal is the fatal
     combination. *)
  let open Repro_net in
  let diagnose trial =
    Chaos.diagnose ~algo:Hm_gossip.algorithm ~family:Repro_graph.Generate.Binary_tree
      ~plan_family:"partition" ~n:8 ~trial ~seed:0 ~backend:Backend.Mux ~timeout:10.0 ()
  in
  let d = diagnose 0 in
  Alcotest.(check string) "failing trial diagnosis"
    "{\"seed\":0,\"plan\":\"part=0-2|3-7@2..9\",\"heal_time\":9,\"quiet_pre_heal\":[1,3,4,7],\"never_completed\":[0,2,4,5,6,7],\"converged\":false}"
    (Chaos.diagnosis_to_json d);
  let halted_pre_heal =
    List.filter (fun id -> not (List.mem id d.Chaos.diag_never_completed)) d.Chaos.diag_quiet_pre_heal
  in
  Alcotest.(check (list int)) "nodes that halted inside the partition" [ 1; 3 ] halted_pre_heal;
  (* the same replay of a passing trial shows no such node *)
  let ok = diagnose 1 in
  Alcotest.(check bool) "trial 1 converged" true ok.Chaos.diag_converged;
  Alcotest.(check (list int)) "nobody starved" [] ok.Chaos.diag_never_completed

let () =
  Alcotest.run "service"
    [
      ( "lag",
        [
          Alcotest.test_case "clean churn passes" `Quick test_lag_clean_churn;
          Alcotest.test_case "laggard rejected" `Quick test_lag_violation_rejected;
          Alcotest.test_case "joiner accountable" `Quick test_lag_joiner_is_accountable;
          Alcotest.test_case "departed excused" `Quick test_lag_departed_not_required;
          Alcotest.test_case "future epoch rejected" `Quick test_lag_future_epoch_rejected;
          Alcotest.test_case "open epoch within bound" `Quick test_lag_open_epoch_within_bound_ok;
          Alcotest.test_case "same-time ticks: violation at first tick past bound" `Quick
            test_lag_same_time_ticks_violation;
          Alcotest.test_case "same-time ticks: converge closes epoch" `Quick
            test_lag_converge_between_same_time_ticks;
        ] );
      ( "wire",
        [
          Alcotest.test_case "updates roundtrip" `Quick test_wire_updates_roundtrip;
          Alcotest.test_case "canonical form enforced" `Quick test_wire_updates_canonical_enforced;
          Alcotest.test_case "bad bytes rejected" `Quick test_wire_updates_bad_bytes_rejected;
          Alcotest.test_case "size exact" `Quick test_wire_updates_size_exact;
          Alcotest.test_case "fabricated batch canonical" `Quick
            test_updates_fabrication_canonical;
          Alcotest.test_case "probe payloads roundtrip" `Quick test_wire_probe_payloads_roundtrip;
          Alcotest.test_case "probe payloads canonical" `Quick
            test_wire_probe_payloads_canonical_enforced;
          Alcotest.test_case "probe payloads bad bytes" `Quick
            test_wire_probe_payloads_bad_bytes_rejected;
          Alcotest.test_case "probe payloads size exact" `Quick test_wire_probe_payloads_size_exact;
        ] );
      ( "versions",
        [
          Alcotest.test_case "view versions" `Quick test_view_versions;
          Alcotest.test_case "payload merge" `Quick test_payload_updates_merge;
        ] );
      ( "fault",
        [
          Alcotest.test_case "leave roundtrip" `Quick test_fault_leave_roundtrip;
          Alcotest.test_case "leave/crash exclusive" `Quick test_fault_leave_crash_exclusive;
        ] );
      ( "view",
        [
          Alcotest.test_case "lattice" `Quick test_view_lattice;
          Alcotest.test_case "suspicion local" `Quick test_view_suspicion_is_local;
          Alcotest.test_case "digest single change" `Quick test_view_digest_single_change;
          QCheck_alcotest.to_alcotest prop_view_digest_incremental;
          QCheck_alcotest.to_alcotest prop_view_live_list;
          Alcotest.test_case "digest repairs planted entry" `Quick
            test_member_digest_repairs_planted_entry;
        ] );
      ( "soak",
        [
          Alcotest.test_case "clean churn converges" `Quick test_service_clean_churn_converges;
          Alcotest.test_case "quiet fleet silent" `Quick test_service_quiet_fleet_sends_no_gossip;
          Alcotest.test_case "lossy churn converges" `Quick test_service_lossy_churn_converges;
          Alcotest.test_case "direct transport caps throttle" `Quick
            test_service_direct_transport_caps_throttle;
          Alcotest.test_case "traffic classes" `Quick test_service_traffic_classes;
          Alcotest.test_case "scheduled churn" `Quick test_service_scheduled_churn;
          Alcotest.test_case "deterministic" `Quick test_service_deterministic;
          Alcotest.test_case "traffic scales with churn" `Slow
            test_service_traffic_scales_with_churn_not_n;
          Alcotest.test_case "observer tables bounded" `Slow test_service_observer_tables_bounded;
          Alcotest.test_case "heavy churn lag failure pinned" `Slow
            test_service_heavy_churn_lag_failure_pinned;
          Alcotest.test_case "lag verdicts sink-independent" `Slow
            test_service_lag_tick_sink_independent;
        ] );
      ( "detector",
        [ Alcotest.test_case "precision under loss" `Slow test_service_detector_precision ] );
      ( "backend",
        [
          Alcotest.test_case "mux soak converges" `Slow test_service_mux_soak_converges;
          Alcotest.test_case "mux deterministic" `Slow test_service_mux_deterministic;
          Alcotest.test_case "mux partition heals" `Slow test_service_mux_partition_heals;
          Alcotest.test_case "process rejected" `Quick test_service_process_backend_rejected;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "known-failing cell pinned" `Slow test_chaos_known_failing_cell_pinned;
          Alcotest.test_case "failing cell diagnosed" `Slow test_chaos_failing_cell_diagnosed;
        ] );
    ]
