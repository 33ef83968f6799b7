(* Fault-injection tests: message loss and crash-stop failures against
   the loss-tolerant algorithms and the completion predicates. *)

open Repro_engine
open Repro_graph
open Repro_discovery

let topology ~n ~seed =
  Generate.of_seed (Generate.K_out 3) ~n ~seed

(* every run here injects a fault and needs headroom over the default
   round budget *)
let spec ~seed ~fault = { Run.default_spec with Run.seed; fault; max_rounds = Some 2000 }

(* Fault injection is exactly where the trace invariants bite (drop
   reasons, liveness discipline under crashes and late joins), so every
   run in this suite executes under the online checker. *)
let checked_exec spec algo topo =
  let inv = Trace.Invariants.create () in
  let r = Run.exec_spec { spec with Run.trace = Trace.Invariants.sink inv } algo topo in
  Trace.Invariants.final_check inv r.Run.metrics;
  r

let test_loss_tolerance () =
  (* every retransmitting algorithm must finish under 30% loss *)
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun seed ->
          let fault = Fault.with_loss Fault.none ~p:0.3 in
          let r = checked_exec (spec ~seed ~fault) algo (topology ~n:128 ~seed) in
          if not r.Run.completed then
            Alcotest.failf "%s seed=%d did not survive 30%% loss" algo.Algorithm.name seed)
        [ 1; 2; 3 ])
    [
      Hm_gossip.algorithm;
      Hm_gossip.with_variant ~upward:Hm_gossip.Full ();
      Rand_gossip.algorithm;
      Name_dropper.algorithm;
      Min_pointer.algorithm;
      Swamping.algorithm;
    ]

let test_loss_slows_but_never_breaks_hm () =
  let rounds p =
    let fault = if p > 0.0 then Fault.with_loss Fault.none ~p else Fault.none in
    let r = checked_exec (spec ~seed:3 ~fault) Hm_gossip.algorithm (topology ~n:256 ~seed:3) in
    Alcotest.(check bool) (Printf.sprintf "completed at loss %.1f" p) true r.Run.completed;
    r.Run.rounds
  in
  let clean = rounds 0.0 in
  let lossy = rounds 0.4 in
  Alcotest.(check bool) "loss costs rounds" true (lossy >= clean)

let test_crash_survivors_complete () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun seed ->
          let n = 128 in
          let fault = Fault.with_random_crashes Fault.none ~seed ~n ~count:12 in
          let r =
            checked_exec
              { (spec ~seed ~fault) with Run.completion = Run.Survivors_strong }
              algo (topology ~n ~seed)
          in
          if not r.Run.completed then
            Alcotest.failf "%s seed=%d: survivors did not complete" algo.Algorithm.name seed;
          let crashed = Array.length (Array.of_seq (Seq.filter (fun b -> not b) (Array.to_seq r.Run.alive))) in
          Alcotest.(check int) "all scheduled crashes happened" 12 crashed)
        [ 1; 2 ])
    [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm ]

let test_hm_survives_sink_crash () =
  (* crash the rank minimum in the endgame: hm must suspect and recover *)
  let n = 256 and seed = 1 in
  let labels = Repro_util.Rng.permutation (Repro_util.Rng.substream ~seed ~index:0) n in
  let rank_min = ref 0 in
  Array.iteri (fun v l -> if l < labels.(!rank_min) then rank_min := v) labels;
  let fault = Fault.with_crash Fault.none ~node:!rank_min ~round:4 in
  let r =
    checked_exec
      { (spec ~seed ~fault) with Run.completion = Run.Survivors_strong }
      Hm_gossip.algorithm (topology ~n ~seed)
  in
  Alcotest.(check bool) "recovered from sink crash" true r.Run.completed

let test_min_pointer_stalls_on_late_sink_crash () =
  (* the deterministic baseline has no failure detection: killing node 0
     once everyone points at it wedges the run *)
  let n = 1024 and seed = 1 in
  let fault = Fault.with_crash Fault.none ~node:0 ~round:5 in
  let r =
    checked_exec
      {
        (spec ~seed ~fault) with
        Run.completion = Run.Survivors_strong;
        max_rounds = Some 400;
      }
      Min_pointer.algorithm (topology ~n ~seed)
  in
  Alcotest.(check bool) "stalled" false r.Run.completed

let test_crash_all_but_one () =
  let n = 16 and seed = 2 in
  let fault = Fault.with_crashes Fault.none (List.init 15 (fun i -> (i + 1, 1))) in
  let r =
    checked_exec
      {
        (spec ~seed ~fault) with
        Run.completion = Run.Survivors_strong;
        max_rounds = Some 50;
      }
      Hm_gossip.algorithm (topology ~n ~seed)
  in
  (* a single survivor trivially knows all survivors *)
  Alcotest.(check bool) "lone survivor completes" true r.Run.completed

let test_churn_stabilizes () =
  (* half the fleet joins late, in two waves; every gossip algorithm must
     still reach strong completion, which is gated on the last join *)
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun seed ->
          let n = 128 in
          let rng = Repro_util.Rng.substream ~seed ~index:0x901d in
          let late = Repro_util.Rng.sample_distinct rng ~n ~k:(n / 2) ~avoid:(-1) in
          let joins = List.mapi (fun i v -> (v, if i mod 2 = 0 then 4 else 9)) (Array.to_list late) in
          let fault = Fault.with_joins Fault.none joins in
          let r = checked_exec (spec ~seed ~fault) algo (topology ~n ~seed) in
          if not r.Run.completed then
            Alcotest.failf "%s seed=%d did not stabilise under churn" algo.Algorithm.name seed;
          if r.Run.rounds < 9 then
            Alcotest.failf "%s seed=%d completed before the last join" algo.Algorithm.name seed)
        [ 1; 2 ])
    [ Hm_gossip.algorithm; Rand_gossip.algorithm; Name_dropper.algorithm ]

let test_churn_with_loss () =
  (* churn and loss together: the stress test of the retransmission and
     suspicion machinery *)
  let n = 128 and seed = 5 in
  let rng = Repro_util.Rng.substream ~seed ~index:0x901d in
  let late = Repro_util.Rng.sample_distinct rng ~n ~k:32 ~avoid:(-1) in
  let fault =
    Fault.with_loss
      (Fault.with_joins Fault.none (List.map (fun v -> (v, 6)) (Array.to_list late)))
      ~p:0.2
  in
  let r = checked_exec (spec ~seed ~fault) Hm_gossip.algorithm (topology ~n ~seed) in
  Alcotest.(check bool) "completed" true r.Run.completed

let test_drops_accounted () =
  let fault = Fault.with_loss Fault.none ~p:0.5 in
  let r = checked_exec (spec ~seed:1 ~fault) Name_dropper.algorithm (topology ~n:64 ~seed:1) in
  Alcotest.(check int) "sent = delivered + dropped" r.Run.messages (r.Run.delivered + r.Run.dropped);
  Alcotest.(check bool) "some drops happened" true (r.Run.dropped > 0)

(* --- fault-plan DSL and schedule edge cases -------------------------- *)

let test_loss_edge_probabilities () =
  (* p = 0.0 is a no-op plan; p = 1.0 drops every message *)
  Alcotest.(check bool) "p=0 plan is none" true
    (Fault.equal (Fault.with_loss Fault.none ~p:0.0) Fault.none);
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed = 1; fault = Fault.with_loss Fault.none ~p:1.0; max_rounds = Some 30 }
      Name_dropper.algorithm (topology ~n:16 ~seed:1)
  in
  Alcotest.(check bool) "total loss never completes" false r.Run.completed;
  Alcotest.(check int) "nothing delivered" 0 r.Run.delivered;
  Alcotest.(check int) "everything dropped" r.Run.messages r.Run.dropped;
  Alcotest.check_raises "p > 1 rejected" (Invalid_argument "Fault.with_loss: probability out of range")
    (fun () -> ignore (Fault.with_loss Fault.none ~p:1.5))

let test_crash_and_join_same_node () =
  (* a node can join late and crash later: active exactly during
     [join, crash) *)
  let fault = Fault.with_crash (Fault.with_join Fault.none ~node:3 ~round:3) ~node:3 ~round:5 in
  Alcotest.(check int) "join kept" 3 (Fault.join_round fault ~node:3);
  Alcotest.(check bool) "crash kept" true (List.assoc_opt 3 (Fault.crashed_nodes fault) = Some 5);
  let r =
    checked_exec
      { (spec ~seed:2 ~fault) with Run.completion = Run.Survivors_strong }
      Hm_gossip.algorithm (topology ~n:64 ~seed:2)
  in
  Alcotest.(check bool) "survivors complete" true r.Run.completed;
  Alcotest.(check bool) "node 3 ends dead" false r.Run.alive.(3)

let test_restart_requires_crash () =
  Alcotest.check_raises "restart without crash rejected"
    (Invalid_argument "Fault.with_restart: no crash scheduled for node") (fun () ->
      ignore (Fault.with_restart Fault.none ~node:4 ~round:9));
  Alcotest.check_raises "restart before crash rejected"
    (Invalid_argument "Fault.with_restart: restart must follow the crash") (fun () ->
      ignore (Fault.with_restart (Fault.with_crash Fault.none ~node:4 ~round:6) ~node:4 ~round:6));
  (* ... but the DSL may list restart= before crash= *)
  match Fault.of_string "restart=4@9,crash=4@6" with
  | Ok f -> Alcotest.(check bool) "parsed out of order" true (Fault.restart_round f ~node:4 = Some 9)
  | Error e -> Alcotest.fail e

let test_dsl_examples () =
  (* the README example parses and round-trips *)
  match Fault.of_string "loss=0.1,part=0-3|4-7@5..20,crash=5@8,restart=5@14" with
  | Error e -> Alcotest.fail e
  | Ok f ->
    let cut ~src ~dst ~time =
      Fault.fate f (Fault.windows ()) (Repro_util.Rng.create ~seed:1) ~src ~dst ~time
        (Fault.link_between f ~src ~dst)
      = Some Trace.Partitioned
    in
    Alcotest.(check (float 1e-9)) "loss" 0.1 (Fault.link_between f ~src:0 ~dst:5).Fault.loss;
    Alcotest.(check bool) "partitioned at 7" true (cut ~src:0 ~dst:5 ~time:7.0);
    Alcotest.(check bool) "healed at 20" false (cut ~src:0 ~dst:5 ~time:20.0);
    Alcotest.(check bool) "same side never cut" false (cut ~src:0 ~dst:3 ~time:7.0);
    (match Fault.of_string (Fault.to_string f) with
    | Ok f' -> Alcotest.(check bool) "round-trips" true (Fault.equal f f')
    | Error e -> Alcotest.fail e);
    (match Fault.of_string "loss=2.0" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "out-of-range probability parsed");
    match Fault.of_string "flux=0.1" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unknown key parsed"

let test_duplicate_link_rejected () =
  (* two overrides for the same directed link would silently shadow each
     other depending on application order — the parser must refuse *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  (match Fault.of_string "link=1>2:loss=0.5,link=1>2:delay=2" with
  | Ok _ -> Alcotest.fail "duplicate link override parsed"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the link (%s)" e)
      true
      (contains e "duplicate link override for 1>2"));
  (* distinct links are of course fine *)
  (match Fault.of_string "link=1>2:loss=0.5,link=2>1:delay=2" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Fault.of_string "wan=0-3|4-7:delay=2,wan=0-1|2-7:delay=1" with
  | Ok _ -> Alcotest.fail "duplicate wan profile parsed"
  | Error _ -> ()

let test_wan_precedence () =
  (* per-link override > WAN cross profile > base link *)
  let base = Fault.with_loss Fault.none ~p:0.1 in
  let cross = { Fault.default_link with Fault.delay = 3; loss = 0.2 } in
  let f = Fault.with_wan base ~regions:[ [ 0; 1 ]; [ 2; 3 ] ] ~cross in
  let f = Fault.with_link f ~src:0 ~dst:2 { Fault.default_link with Fault.cap = 1 } in
  (* same region: base link *)
  let same = Fault.link_between f ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "intra-region loss is base" 0.1 same.Fault.loss;
  Alcotest.(check int) "intra-region delay is base" 0 same.Fault.delay;
  (* cross-region without override: the WAN profile *)
  let far = Fault.link_between f ~src:1 ~dst:3 in
  Alcotest.(check int) "cross-region delay" 3 far.Fault.delay;
  Alcotest.(check (float 1e-9)) "cross-region loss" 0.2 far.Fault.loss;
  (* cross-region with override: the override, whole record *)
  let ov = Fault.link_between f ~src:0 ~dst:2 in
  Alcotest.(check int) "override cap" 1 ov.Fault.cap;
  Alcotest.(check int) "override delay (not wan's)" 0 ov.Fault.delay;
  (* a node in no listed region forms the implicit region *)
  let f = Fault.with_wan base ~regions:[ [ 0; 1 ] ] ~cross in
  let implicit = Fault.link_between f ~src:0 ~dst:5 in
  Alcotest.(check int) "implicit region is cross" 3 implicit.Fault.delay;
  let implicit2 = Fault.link_between f ~src:5 ~dst:7 in
  Alcotest.(check int) "both unlisted share the implicit region" 0 implicit2.Fault.delay

let test_wan_dsl_example () =
  match Fault.of_string "wan=0-3|4-7:delay=2:loss=0.1:cap=5,cap=9" with
  | Error e -> Alcotest.fail e
  | Ok f ->
    let cross = Fault.link_between f ~src:0 ~dst:4 in
    Alcotest.(check int) "cross delay" 2 cross.Fault.delay;
    Alcotest.(check (float 1e-9)) "cross loss" 0.1 cross.Fault.loss;
    Alcotest.(check int) "cross cap" 5 cross.Fault.cap;
    Alcotest.(check int) "base cap" 9 (Fault.link_between f ~src:0 ~dst:1).Fault.cap;
    Alcotest.(check bool) "has_delays" true (Fault.has_delays f);
    (match Fault.of_string (Fault.to_string f) with
    | Ok f' -> Alcotest.(check bool) "round-trips" true (Fault.equal f f')
    | Error e -> Alcotest.fail e);
    match Fault.of_string "fabricate=3@17,audit=1" with
    | Error e -> Alcotest.fail e
    | Ok f ->
      Alcotest.(check bool) "audit flag" true (Fault.audit f);
      Alcotest.(check (list (pair int (list int)))) "fabrications" [ (3, [ 17 ]) ]
        (Fault.fabrications f)

(* qcheck: random plans round-trip through the DSL. Probabilities are
   drawn as k/1000 so the %g printing is exact. *)
let plan_gen =
  QCheck2.Gen.(
    let prob = map (fun k -> float_of_int k /. 1000.0) (int_range 0 1000) in
    let* loss = prob and* dup = prob and* reorder = prob and* corrupt = prob in
    let* delay = int_range 0 3 in
    let* link =
      opt
        (let* src = int_range 0 9 and* dst = int_range 0 9 in
         let* l = prob and* d = int_range 0 2 and* c = int_range 0 2 in
         return (src, dst, { Fault.default_link with Fault.loss = l; delay = d; cap = c }))
    in
    let* part =
      opt
        (let* split = int_range 1 7 and* start = int_range 1 10 and* len = int_range 1 15 in
         return (split, start, start + len))
    in
    let* crash =
      opt
        (let* node = int_range 0 9 and* round = int_range 1 10 in
         let* restart = opt (int_range 1 10) in
         return (node, round, Option.map (fun d -> round + d) restart))
    in
    let* join = opt (pair (int_range 0 9) (int_range 1 12)) in
    let* cap = int_range 0 3 in
    let* wan =
      opt
        (let* split = int_range 1 7 in
         let* wloss = prob and* wdelay = int_range 0 2 and* wcap = int_range 0 2 in
         return (split, wloss, wdelay, wcap))
    in
    let* fab = opt (pair (int_range 0 9) (int_range 0 99)) in
    let* audit = bool in
    return ((loss, dup, reorder, corrupt, delay), link, part, crash, join, (cap, wan, fab, audit)))

let plan_of_gen ((loss, dup, reorder, corrupt, delay), link, part, crash, join, (cap, wan, fab, audit)) =
  let f = Fault.with_loss Fault.none ~p:loss in
  let f = Fault.with_dup f ~p:dup in
  let f = Fault.with_reorder f ~p:reorder in
  let f = Fault.with_corrupt f ~p:corrupt in
  let f = Fault.with_delay f ~ticks:delay in
  let f = Fault.with_cap f ~limit:cap in
  let f =
    match wan with
    | Some (split, wloss, wdelay, wcap) when wloss > 0.0 || wdelay > 0 || wcap > 0 ->
      Fault.with_wan f
        ~regions:[ List.init split Fun.id; List.init (8 - split) (fun i -> split + i) ]
        ~cross:{ Fault.default_link with Fault.loss = wloss; delay = wdelay; cap = wcap }
    | Some _ | None -> f
  in
  let f = match fab with None -> f | Some (node, id) -> Fault.with_fabrication f ~node ~id in
  let f = Fault.with_audit f audit in
  let f = match link with None -> f | Some (src, dst, lk) -> Fault.with_link f ~src ~dst lk in
  let f =
    match part with
    | None -> f
    | Some (split, start, heal) ->
      Fault.with_partition f
        ~groups:[ List.init split Fun.id; List.init (8 - split) (fun i -> split + i) ]
        ~start ~heal
  in
  let f =
    match crash with
    | None -> f
    | Some (node, round, restart) ->
      let f = Fault.with_crash f ~node ~round in
      (match restart with None -> f | Some r -> Fault.with_restart f ~node ~round:r)
  in
  match join with
  | None -> f
  | Some (node, round) ->
    (* joining a crashed node is allowed only if the join precedes it *)
    (match List.assoc_opt node (Fault.crashed_nodes f) with
    | Some r when round >= r -> f
    | _ -> Fault.with_join f ~node ~round)

let dsl_roundtrip =
  QCheck2.Test.make ~name:"fault DSL round-trips" ~count:500 plan_gen (fun g ->
      let plan = plan_of_gen g in
      match Fault.of_string (Fault.to_string plan) with
      | Ok plan' ->
        if not (Fault.equal plan plan') then
          QCheck2.Test.fail_reportf "not equal after round-trip:@.%s@.%s" (Fault.to_string plan)
            (Fault.to_string plan');
        true
      | Error e -> QCheck2.Test.fail_reportf "%S did not parse back: %s" (Fault.to_string plan) e)

(* --- restart schedules in the simulators ----------------------------- *)

(* the checker the CLI's [trace --check] builds for the plan: restart
   plans check in its lenient mode *)
let checked_lenient_exec spec algo topo =
  let inv = Fault.invariants spec.Run.fault in
  let r = Run.exec_spec { spec with Run.trace = Trace.Invariants.sink inv } algo topo in
  Trace.Invariants.final_check inv r.Run.metrics;
  r

let test_sim_crash_restart () =
  (* a crashed node that restarts rejoins with initial knowledge and the
     run still reaches Strong completion — all n nodes, not survivors *)
  let n = 128 and seed = 3 in
  let fault = Fault.with_restart (Fault.with_crash Fault.none ~node:5 ~round:3) ~node:5 ~round:6 in
  let r = checked_lenient_exec (spec ~seed ~fault) Hm_gossip.algorithm (topology ~n ~seed) in
  Alcotest.(check bool) "completed" true r.Run.completed;
  Alcotest.(check bool) "victim alive at the end" true r.Run.alive.(5);
  Alcotest.(check bool) "restart gates completion" true (r.Run.rounds >= 6)

(* Known-failing, ROADMAP item 5 ("quiesce, don't halt"): hm on a
   3-node star goes quiet from round 7, so the leaf that restarts at round 10
   is never taught again and the run never completes. This pins today's
   result; item 5's fix must flip it to a completed run. *)
let test_hm_starves_late_restart () =
  let fault =
    match Fault.of_string "crash=1@2,restart=1@10" with Ok f -> f | Error e -> failwith e
  in
  let spec = { Run.default_spec with Run.seed = 7; fault; max_rounds = Some 500 } in
  let r =
    checked_lenient_exec spec Hm_gossip.algorithm (Generate.of_seed Generate.Star ~n:3 ~seed:7)
  in
  Alcotest.(check bool) "completed" false r.Run.completed;
  Alcotest.(check int) "rounds" 500 r.Run.rounds;
  Alcotest.(check int) "messages" 19 r.Run.messages;
  Alcotest.(check int) "dropped" 5 r.Run.dropped

let test_sim_restart_async () =
  let n = 48 and seed = 4 in
  let fault = Fault.with_restart (Fault.with_crash Fault.none ~node:7 ~round:3) ~node:7 ~round:9 in
  let inv = Trace.Invariants.create ~lenient:true () in
  let r =
    Run_async.exec_spec
      { Run_async.default_spec with Run_async.seed; fault; trace = Trace.Invariants.sink inv }
      Hm_gossip.algorithm (topology ~n ~seed)
  in
  Trace.Invariants.final_check inv r.Run_async.metrics;
  Alcotest.(check bool) "completed" true r.Run_async.completed

let () =
  Alcotest.run "faults"
    [
      ( "loss",
        [
          Alcotest.test_case "30% loss tolerated" `Slow test_loss_tolerance;
          Alcotest.test_case "loss slows hm" `Quick test_loss_slows_but_never_breaks_hm;
          Alcotest.test_case "drop accounting" `Quick test_drops_accounted;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "survivors complete" `Quick test_crash_survivors_complete;
          Alcotest.test_case "hm survives sink crash" `Quick test_hm_survives_sink_crash;
          Alcotest.test_case "min_pointer stalls on late sink crash" `Quick
            test_min_pointer_stalls_on_late_sink_crash;
          Alcotest.test_case "all but one crash" `Quick test_crash_all_but_one;
        ] );
      ( "churn",
        [
          Alcotest.test_case "late joins stabilise" `Quick test_churn_stabilizes;
          Alcotest.test_case "churn with loss" `Quick test_churn_with_loss;
        ] );
      ( "plans",
        [
          Alcotest.test_case "loss edge probabilities" `Quick test_loss_edge_probabilities;
          Alcotest.test_case "crash and join same node" `Quick test_crash_and_join_same_node;
          Alcotest.test_case "restart requires crash" `Quick test_restart_requires_crash;
          Alcotest.test_case "dsl examples" `Quick test_dsl_examples;
          Alcotest.test_case "duplicate link rejected" `Quick test_duplicate_link_rejected;
          Alcotest.test_case "wan precedence" `Quick test_wan_precedence;
          Alcotest.test_case "wan dsl example" `Quick test_wan_dsl_example;
          QCheck_alcotest.to_alcotest dsl_roundtrip;
        ] );
      ( "restarts",
        [
          Alcotest.test_case "sync crash+restart completes" `Quick test_sim_crash_restart;
          Alcotest.test_case "async crash+restart completes" `Quick test_sim_restart_async;
          Alcotest.test_case "known-failing (item 5): hm starves a late restart at n = 3" `Quick
            test_hm_starves_late_restart;
        ] );
    ]
