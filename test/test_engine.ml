(* Tests for the synchronous engine: delivery semantics, accounting,
   faults, and determinism. *)

open Repro_engine

(* A tiny echo protocol: node 0 sends its round number to node 1 each
   round; receivers log what they see. *)
let log_handlers log =
  {
    Sim.round_begin =
      (fun ~node ~round ~send -> if node = 0 then send ~dst:1 round);
    deliver = (fun ~node ~src ~round msg -> log := (node, src, round, msg) :: !log);
  }

(* Alcotest has no quad testable by default; build one. *)
let quad a b c d =
  let pp ppf (w, x, y, z) =
    Format.fprintf ppf "(%a,%a,%a,%a)" (Alcotest.pp a) w (Alcotest.pp b) x (Alcotest.pp c) y
      (Alcotest.pp d) z
  in
  Alcotest.testable pp (fun (w1, x1, y1, z1) (w2, x2, y2, z2) ->
      Alcotest.equal a w1 w2 && Alcotest.equal b x1 x2 && Alcotest.equal c y1 y2
      && Alcotest.equal d z1 z2)

let test_synchrony () =
  (* A message sent in round r must not be visible to the receiver's
     round_begin of round r — only from round r+1 on. *)
  let received_before_round = ref [] in
  let inbox = ref 0 in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round ~send ->
          if node = 1 then received_before_round := (round, !inbox) :: !received_before_round;
          if node = 0 then send ~dst:1 ());
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> incr inbox);
    }
  in
  let _ =
    Sim.run ~n:2 ~config:Sim.default_config ~handlers ~measure:(fun _ -> 0)
      ~stop:(fun ~round ~alive:_ -> round >= 3)
      ()
  in
  Alcotest.(check (list (pair int int)))
    "node 1 sees k-1 messages at the start of round k"
    [ (1, 0); (2, 1); (3, 2) ]
    (List.rev !received_before_round)

let test_metrics_accounting () =
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round:_ ~send ->
          if node = 0 then begin
            send ~dst:1 3;
            send ~dst:2 5
          end);
      deliver = (fun ~node:_ ~src:_ ~round:_ _ -> ());
    }
  in
  let outcome =
    Sim.run ~n:3 ~config:Sim.default_config ~handlers ~measure:(fun p -> p)
      ~stop:(fun ~round ~alive:_ -> round >= 2)
      ()
  in
  let m = outcome.Sim.metrics in
  Alcotest.(check int) "sent" 4 (Metrics.messages_sent m);
  Alcotest.(check int) "delivered" 4 (Metrics.messages_delivered m);
  Alcotest.(check int) "dropped" 0 (Metrics.messages_dropped m);
  Alcotest.(check int) "pointers" 16 (Metrics.pointers_sent m);
  Alcotest.(check (array int)) "per-round sends" [| 2; 2 |] (Metrics.sent_series m);
  Alcotest.(check int) "peak" 2 (Metrics.max_messages_in_round m)

(* The metrics recorder driven directly, without an engine: the per-round
   send series and peak are pure functions of the recorded sequence. *)
let test_metrics_direct () =
  let m = Metrics.create () in
  Alcotest.(check (array int)) "empty sent series" [||] (Metrics.sent_series m);
  Alcotest.(check int) "peak of nothing" 0 (Metrics.max_messages_in_round m);
  Metrics.begin_round m;
  Metrics.record_send m ~pointers:3 ~bytes:10;
  Metrics.record_send m ~pointers:1 ~bytes:4;
  Metrics.record_delivery m;
  Metrics.record_drop m;
  Metrics.begin_round m;
  (* a silent round stays in the series *)
  Metrics.begin_round m;
  Metrics.record_send m ~pointers:2 ~bytes:6;
  Alcotest.(check int) "sent" 3 (Metrics.messages_sent m);
  Alcotest.(check int) "delivered" 1 (Metrics.messages_delivered m);
  Alcotest.(check int) "dropped" 1 (Metrics.messages_dropped m);
  Alcotest.(check int) "pointers" 6 (Metrics.pointers_sent m);
  Alcotest.(check int) "bytes" 20 (Metrics.bytes_sent m);
  Alcotest.(check (array int)) "sent series" [| 2; 0; 1 |] (Metrics.sent_series m);
  Alcotest.(check int) "peak round" 2 (Metrics.max_messages_in_round m);
  Metrics.absorb m ~sent:4 ~delivered:3 ~dropped:1 ~pointers:9 ~bytes:30;
  Alcotest.(check int) "absorbed sent" 7 (Metrics.messages_sent m);
  Alcotest.(check int) "absorbed bytes" 50 (Metrics.bytes_sent m);
  Alcotest.(check (array int)) "absorb leaves the series" [| 2; 0; 1 |] (Metrics.sent_series m);
  Alcotest.check_raises "negative totals refused"
    (Invalid_argument "Metrics.absorb: negative totals") (fun () ->
      Metrics.absorb m ~sent:(-1) ~delivered:0 ~dropped:0 ~pointers:0 ~bytes:0)

let test_stop_before_first_round () =
  let outcome =
    Sim.run ~n:2 ~config:Sim.default_config
      ~handlers:
        {
          Sim.round_begin = (fun ~node:_ ~round:_ ~send:_ -> Alcotest.fail "should not run");
          deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
        }
      ~measure:(fun _ -> 0)
      ~stop:(fun ~round:_ ~alive:_ -> true)
      ()
  in
  Alcotest.(check bool) "completed" true outcome.Sim.completed;
  Alcotest.(check int) "no rounds" 0 outcome.Sim.rounds

let test_max_rounds () =
  let outcome =
    Sim.run ~n:1
      ~config:{ Sim.default_config with Sim.max_rounds = 7 }
      ~handlers:
        {
          Sim.round_begin = (fun ~node:_ ~round:_ ~send:_ -> ());
          deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
        }
      ~measure:(fun _ -> 0)
      ~stop:(fun ~round:_ ~alive:_ -> false)
      ()
  in
  Alcotest.(check bool) "incomplete" false outcome.Sim.completed;
  Alcotest.(check int) "round budget" 7 outcome.Sim.rounds

let test_send_validation () =
  let handlers =
    {
      Sim.round_begin = (fun ~node:_ ~round:_ ~send -> send ~dst:5 ());
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
    }
  in
  Alcotest.check_raises "bad destination"
    (Invalid_argument "Sim.send: destination out of range") (fun () ->
      ignore
        (Sim.run ~n:2 ~config:Sim.default_config ~handlers ~measure:(fun _ -> 0)
           ~stop:(fun ~round:_ ~alive:_ -> false)
           ()))

let test_crash_semantics () =
  (* node 1 crashes at round 3: it must send in rounds 1-2 and receive
     messages delivered in rounds 1-2, nothing after. *)
  let sent_by_1 = ref [] in
  let delivered_to_1 = ref [] in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round ~send ->
          if node = 1 then sent_by_1 := round :: !sent_by_1;
          if node = 0 then send ~dst:1 round);
      deliver = (fun ~node ~src:_ ~round msg -> if node = 1 then delivered_to_1 := (round, msg) :: !delivered_to_1);
    }
  in
  let fault = Fault.with_crash Fault.none ~node:1 ~round:3 in
  let outcome =
    Sim.run ~n:2
      ~config:{ Sim.default_config with Sim.fault; max_rounds = 5 }
      ~handlers ~measure:(fun _ -> 1)
      ~stop:(fun ~round:_ ~alive:_ -> false)
      ()
  in
  Alcotest.(check (list int)) "sent rounds" [ 1; 2 ] (List.rev !sent_by_1);
  Alcotest.(check (list (pair int int))) "received rounds" [ (1, 1); (2, 2) ]
    (List.rev !delivered_to_1);
  Alcotest.(check bool) "marked dead" false outcome.Sim.alive.(1);
  Alcotest.(check bool) "others alive" true outcome.Sim.alive.(0);
  (* messages to the dead node count as drops *)
  Alcotest.(check int) "dropped" 3 (Metrics.messages_dropped outcome.Sim.metrics)

let count_drops ~seed ~p =
  let handlers =
    {
      Sim.round_begin = (fun ~node:_ ~round:_ ~send -> send ~dst:0 ());
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
    }
  in
  let fault = Fault.with_loss Fault.none ~p in
  let outcome =
    Sim.run ~n:50
      ~config:{ Sim.default_config with Sim.max_rounds = 40; fault; engine_seed = seed }
      ~handlers ~measure:(fun _ -> 0)
      ~stop:(fun ~round:_ ~alive:_ -> false)
      ()
  in
  Metrics.messages_dropped outcome.Sim.metrics

let test_loss_rate_and_determinism () =
  let d1 = count_drops ~seed:4 ~p:0.25 in
  let d2 = count_drops ~seed:4 ~p:0.25 in
  Alcotest.(check int) "loss is deterministic per seed" d1 d2;
  let total = 50 * 40 in
  let rate = float_of_int d1 /. float_of_int total in
  if Float.abs (rate -. 0.25) > 0.05 then Alcotest.failf "loss rate drifted: %f" rate;
  Alcotest.(check int) "p=0 drops nothing" 0 (count_drops ~seed:4 ~p:0.0)

let test_alive_callback () =
  let observed = ref [] in
  let fault = Fault.with_crash Fault.none ~node:0 ~round:2 in
  let _ =
    Sim.run ~n:2
      ~config:{ Sim.default_config with Sim.fault; max_rounds = 3 }
      ~handlers:
        {
          Sim.round_begin = (fun ~node:_ ~round:_ ~send:_ -> ());
          deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
        }
      ~measure:(fun _ -> 0)
      ~stop:(fun ~round ~alive ->
        observed := (round, alive 0) :: !observed;
        false)
      ()
  in
  (* round 0 pre-check, then after rounds 1..3 *)
  Alcotest.(check (list (pair int bool))) "alive transitions"
    [ (0, true); (1, true); (2, false); (3, false) ]
    (List.rev !observed)

let test_join_semantics () =
  (* node 1 joins at round 3: silent and deaf before, normal after *)
  let sent_by_1 = ref [] in
  let delivered_to_1 = ref [] in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round ~send ->
          if node = 1 then sent_by_1 := round :: !sent_by_1;
          if node = 0 then send ~dst:1 round);
      deliver =
        (fun ~node ~src:_ ~round msg ->
          if node = 1 then delivered_to_1 := (round, msg) :: !delivered_to_1);
    }
  in
  let fault = Fault.with_join Fault.none ~node:1 ~round:3 in
  let outcome =
    Sim.run ~n:2
      ~config:{ Sim.default_config with Sim.fault; max_rounds = 5 }
      ~handlers ~measure:(fun _ -> 1)
      ~stop:(fun ~round:_ ~alive:_ -> false)
      ()
  in
  Alcotest.(check (list int)) "active rounds" [ 3; 4; 5 ] (List.rev !sent_by_1);
  Alcotest.(check (list (pair int int))) "received after joining"
    [ (3, 3); (4, 4); (5, 5) ]
    (List.rev !delivered_to_1);
  Alcotest.(check bool) "alive at end" true outcome.Sim.alive.(1);
  Alcotest.(check int) "pre-join messages dropped" 2
    (Metrics.messages_dropped outcome.Sim.metrics)

let test_join_then_crash () =
  (* a crash before the scheduled join wins: the node never activates *)
  let activity = ref 0 in
  let fault = Fault.with_crash (Fault.with_join Fault.none ~node:0 ~round:4) ~node:0 ~round:2 in
  let outcome =
    Sim.run ~n:1
      ~config:{ Sim.default_config with Sim.fault; max_rounds = 6 }
      ~handlers:
        {
          Sim.round_begin = (fun ~node:_ ~round:_ ~send:_ -> incr activity);
          deliver = (fun ~node:_ ~src:_ ~round:_ () -> ());
        }
      ~measure:(fun _ -> 0)
      ~stop:(fun ~round:_ ~alive:_ -> false)
      ()
  in
  Alcotest.(check int) "never active" 0 !activity;
  Alcotest.(check bool) "dead at end" false outcome.Sim.alive.(0)

let test_fault_model () =
  let f = Fault.with_crashes (Fault.with_loss Fault.none ~p:0.5) [ (3, 7); (1, 2) ] in
  Alcotest.(check (float 1e-9)) "loss" 0.5 (Fault.link_between f ~src:0 ~dst:1).Fault.loss;
  Alcotest.(check (option int)) "crash round" (Some 7) (List.assoc_opt 3 (Fault.crashed_nodes f));
  Alcotest.(check (option int)) "no crash" None (List.assoc_opt 0 (Fault.crashed_nodes f));
  Alcotest.(check (list (pair int int))) "sorted crashes" [ (1, 2); (3, 7) ] (Fault.crashed_nodes f);
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Fault.with_loss: probability out of range") (fun () ->
      ignore (Fault.with_loss Fault.none ~p:1.5));
  Alcotest.check_raises "bad round" (Invalid_argument "Fault.with_crash: rounds are 1-based")
    (fun () -> ignore (Fault.with_crash Fault.none ~node:0 ~round:0))

(* Delivery order. The delivery phase walks the round's survivors one
   destination block at a time, so handler calls for different nodes
   interleave differently from the send order; what must hold is each
   node's own order. n spans three full destination blocks and a
   partial one. Every node fans out to five destinations, links across
   the two halves of the node range delay by 2 rounds, every link loses
   10%, and one destination crashes at round 3. For each node: its
   handler sequence equals its subsequence of the trace's [Deliver]
   events, the messages released from a delay come before the round's
   fresh ones, and the sequence is the same at jobs 1, 2, 3 and 4. At
   jobs 1 each round's handler calls also come in ascending block
   order. *)
let test_delivery_order () =
  let block = Sim.delivery_block in
  let n = (3 * block) + (block / 2) in
  let crashed = block + 5 and rounds = 8 in
  let fault =
    Fault.with_crash
      (Fault.with_wan
         (Fault.with_loss Fault.none ~p:0.1)
         ~regions:[ List.init (n / 2) Fun.id ]
         ~cross:{ Fault.default_link with Fault.delay = 2; loss = 0.1 })
      ~node:crashed ~round:3
  in
  let run jobs =
    (* per node, newest first: (round, src, (sent round, fan-out index));
       each list is written by the shard that owns the node *)
    let got = Array.make n [] in
    let calls = ref [] in
    let events = Array.make n [] in
    let now = ref 0 in
    let trace =
      Trace.callback (function
        | Trace.Round_begin { round } -> now := round
        | Trace.Deliver { src; dst } -> events.(dst) <- (!now, src) :: events.(dst)
        | _ -> ())
    in
    let handlers =
      {
        Sim.round_begin =
          (fun ~node ~round ~send ->
            List.iteri
              (fun j dst -> send ~dst (round, j))
              [
                (node + 1) mod n; (node * 7 + round) mod n; n - 1 - node; crashed; node * 131 mod n;
              ]);
        deliver =
          (fun ~node ~src ~round msg ->
            got.(node) <- (round, src, msg) :: got.(node);
            if jobs = 1 then calls := (round, node) :: !calls);
      }
    in
    let outcome =
      Sim.run ~n
        ~config:{ Sim.default_config with Sim.fault; jobs; engine_seed = 7; trace }
        ~handlers ~measure:(fun _ -> 1)
        ~stop:(fun ~round ~alive:_ -> round >= rounds)
        ()
    in
    Alcotest.(check int) (Printf.sprintf "jobs %d: rounds" jobs) rounds outcome.Sim.rounds;
    Array.iteri
      (fun v seq ->
        let seq = List.rev seq in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "jobs %d: node %d receives in Deliver-event order" jobs v)
          (List.rev events.(v))
          (List.map (fun (r, src, _) -> (r, src)) seq);
        (* released (sent before the round) first, then fresh *)
        ignore
          (List.fold_left
             (fun (last_round, seen_fresh) (r, src, (sent, _)) ->
               let seen_fresh = if r = last_round then seen_fresh else false in
               let fresh = sent = r in
               if seen_fresh && not fresh then
                 Alcotest.failf
                   "jobs %d: node %d got %d's round-%d message after a fresh one in round %d" jobs v
                   src sent r;
               (r, seen_fresh || fresh))
             (0, false) seq))
      got;
    if jobs = 1 then
      ignore
        (List.fold_left
           (fun (last_round, last_block) (r, node) ->
             let b = node / block in
             if r = last_round && b < last_block then
               Alcotest.failf "round %d: a call for block %d after one for block %d" r b last_block;
             (r, b))
           (0, 0) (List.rev !calls));
    Array.map List.rev got
  in
  let reference = run 1 in
  (* the run mixes released and fresh messages in one node's round, and
     the crashed node hears nothing once down *)
  let mixed =
    Array.exists
      (fun seq ->
        List.exists
          (fun (r, _, (sent, _)) ->
            sent < r && List.exists (fun (r', _, (s', _)) -> r' = r && s' = r) seq)
          seq)
      reference
  in
  Alcotest.(check bool) "some node receives released and fresh messages in one round" true mixed;
  Alcotest.(check bool) "the crashed node hears nothing from round 3" true
    (List.for_all (fun (r, _, _) -> r < 3) reference.(crashed));
  List.iter
    (fun jobs ->
      let seqs = run jobs in
      Array.iteri
        (fun v seq ->
          if seq <> reference.(v) then
            Alcotest.failf "jobs %d: node %d's deliveries differ from jobs 1" jobs v)
        seqs)
    [ 2; 3; 4 ]

let () =
  let test_basic_delivery () =
    let log = ref [] in
    let outcome =
      Sim.run ~n:2 ~config:Sim.default_config ~handlers:(log_handlers log) ~measure:(fun _ -> 1)
        ~stop:(fun ~round ~alive:_ -> round >= 3)
        ()
    in
    Alcotest.(check bool) "completed" true outcome.Sim.completed;
    Alcotest.(check int) "rounds" 3 outcome.Sim.rounds;
    Alcotest.(check (list (quad int int int int))) "deliveries in round order"
      [ (1, 0, 1, 1); (1, 0, 2, 2); (1, 0, 3, 3) ]
      (List.rev !log)
  in
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "synchrony" `Quick test_synchrony;
          Alcotest.test_case "stop before round 1" `Quick test_stop_before_first_round;
          Alcotest.test_case "max rounds" `Quick test_max_rounds;
          Alcotest.test_case "send validation" `Quick test_send_validation;
          Alcotest.test_case "delivery order by destination block" `Quick test_delivery_order;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "metrics" `Quick test_metrics_accounting;
          Alcotest.test_case "metrics direct" `Quick test_metrics_direct;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
          Alcotest.test_case "loss rate + determinism" `Quick test_loss_rate_and_determinism;
          Alcotest.test_case "alive callback" `Quick test_alive_callback;
          Alcotest.test_case "join semantics" `Quick test_join_semantics;
          Alcotest.test_case "crash beats join" `Quick test_join_then_crash;
          Alcotest.test_case "fault model" `Quick test_fault_model;
        ] );
    ]
