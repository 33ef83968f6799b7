(* Adversarial scenario coverage: named worst-case topologies, WAN link
   profiles with bandwidth caps, and the content-audit layer that
   catches fabricated identifiers — on the simulators and on the
   multiplexed live backend. *)

open Repro_engine
open Repro_graph
open Repro_discovery
open Repro_net

let topology family ~n ~seed = Generate.of_seed family ~n ~seed

let checked_exec ?lenient spec algo topo =
  let inv = Trace.Invariants.create ?lenient ~allow_inflight:(Fault.has_delays spec.Run.fault) () in
  let r = Run.exec_spec { spec with Run.trace = Trace.Invariants.sink inv } algo topo in
  Trace.Invariants.final_check inv r.Run.metrics;
  r

(* --- satellite: min_pointer vs hm on the sorted-id chain ------------- *)

(* The sorted chain is the structured worst case the paper's random
   ranks exist to defeat: raw identifiers increase along the chain, so
   min_pointer's deterministic convergecast collapses every pointer onto
   node 0, which then broadcasts full snapshots to everything it knows,
   round after round. Pin the separation so it cannot silently erode:
   min_pointer pays well over hm's pointer cost here (the margin grows
   with n — about 1.3x at n=256, 1.4–1.9x at n=1024), while on a benign
   random k-out graph the two are round-for-round comparable (T4). *)
let test_sorted_chain_separation () =
  let n = 256 in
  List.iter
    (fun seed ->
      let run algo = checked_exec { Run.default_spec with Run.seed; max_rounds = Some 2000 } algo (topology Generate.Sorted_chain ~n ~seed) in
      let mp = run Min_pointer.algorithm in
      let hm = run Hm_gossip.algorithm in
      Alcotest.(check bool) "min_pointer completes" true mp.Run.completed;
      Alcotest.(check bool) "hm completes" true hm.Run.completed;
      (* both still finish in O(log n)-ish rounds: the separation is cost,
         not liveness *)
      Alcotest.(check bool) "min_pointer rounds bounded" true (mp.Run.rounds <= 32);
      Alcotest.(check bool) "hm rounds bounded" true (hm.Run.rounds <= 32);
      let ratio = float_of_int mp.Run.pointers /. float_of_int (max 1 hm.Run.pointers) in
      if ratio < 1.15 then
        Alcotest.failf
          "seed %d: min_pointer/hm pointer ratio %.2f below 1.15 (mp=%d hm=%d) — the sorted-chain \
           separation regressed"
          seed ratio mp.Run.pointers hm.Run.pointers)
    [ 1; 2; 3 ]

let test_sorted_chain_min_pointer_deterministic () =
  (* on the sorted chain min_pointer never consults its rank randomness:
     the run is identical for every seed, which is exactly why the
     instance is adversarial — the outcome can be precomputed *)
  let n = 256 in
  let run seed =
    let r =
      checked_exec
        { Run.default_spec with Run.seed; max_rounds = Some 2000 }
        Min_pointer.algorithm
        (topology Generate.Sorted_chain ~n ~seed)
    in
    (r.Run.rounds, r.Run.messages, r.Run.pointers)
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool)
    "min_pointer on sorted chain is seed-invariant" true (a = b)

(* --- named adversarial topologies are runnable end to end ------------ *)

let test_adversarial_families_complete () =
  List.iter
    (fun family ->
      List.iter
        (fun (algo : Algorithm.t) ->
          let seed = 1 and n = 64 in
          let r =
            checked_exec
              { Run.default_spec with Run.seed; max_rounds = Some 2000 }
              algo (topology family ~n ~seed)
          in
          if not r.Run.completed then
            Alcotest.failf "%s did not complete on %s" algo.Algorithm.name
              (Generate.family_name family))
        [ Hm_gossip.algorithm; Min_pointer.algorithm; Name_dropper.algorithm ])
    Generate.adversarial_families

let test_adversarial_families_parse () =
  List.iter
    (fun family ->
      let name = Generate.family_name family in
      match Generate.family_of_string name with
      | Ok f -> Alcotest.(check string) (name ^ " round-trips") name (Generate.family_name f)
      | Error e -> Alcotest.failf "%s did not parse: %s" name e)
    Generate.adversarial_families

(* --- WAN profiles in the engines ------------------------------------- *)

let wan2 ~n ~cross f =
  let half = List.init (n / 2) Fun.id in
  let rest = List.init (n - (n / 2)) (fun i -> (n / 2) + i) in
  Fault.with_wan f ~regions:[ half; rest ] ~cross

let test_wan_delay_completes_inflight () =
  (* cross-region delay carries messages over round boundaries: the run
     must complete, and the checker (in in-flight mode) must accept it *)
  let n = 64 and seed = 2 in
  let fault = wan2 ~n ~cross:{ Fault.default_link with Fault.delay = 2 } Fault.none in
  let r =
    checked_exec
      { Run.default_spec with Run.seed; fault; max_rounds = Some 2000 }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  Alcotest.(check bool) "completed under WAN delay" true r.Run.completed;
  Alcotest.(check bool) "hm is delay-tolerant, nothing dropped" true (r.Run.dropped = 0)

let test_wan_delay_needs_inflight_mode () =
  (* the same run under the strict checker must trip the round-boundary
     conservation invariant — pins that allow_inflight is a real
     relaxation, not a no-op *)
  let n = 64 and seed = 2 in
  let fault = wan2 ~n ~cross:{ Fault.default_link with Fault.delay = 2 } Fault.none in
  let inv = Trace.Invariants.create () in
  match
    Run.exec_spec
      { Run.default_spec with Run.seed; fault; max_rounds = Some 2000; trace = Trace.Invariants.sink inv }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  with
  | exception Trace.Invariants.Violation _ -> ()
  | _ -> Alcotest.fail "strict checker accepted messages crossing a round boundary"

let test_wan_loss_slows_cross_region () =
  (* an identical fleet with a lossy WAN crossing completes but pays for
     it; the intra-region links stay clean *)
  let n = 64 and seed = 3 in
  let clean =
    checked_exec { Run.default_spec with Run.seed; max_rounds = Some 2000 } Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  let lossy_fault = wan2 ~n ~cross:{ Fault.default_link with Fault.loss = 0.4 } Fault.none in
  let lossy =
    checked_exec
      { Run.default_spec with Run.seed; fault = lossy_fault; max_rounds = Some 2000 }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  Alcotest.(check bool) "completed under WAN loss" true lossy.Run.completed;
  Alcotest.(check bool) "cross-region loss dropped messages" true (lossy.Run.dropped > 0);
  Alcotest.(check bool) "WAN loss costs rounds" true (lossy.Run.rounds >= clean.Run.rounds)

(* --- bandwidth caps --------------------------------------------------- *)

(* Drive the sync engine directly with handlers that flood one link:
   with cap=k, exactly k messages per round cross it and the rest are
   throttled — deterministic, no algorithm in the way. *)
let test_cap_bounds_link_sync () =
  let cap = 2 and sends_per_round = 5 and rounds = 4 in
  let delivered = ref 0 and throttled = ref 0 in
  let events = ref [] in
  let sink = Trace.callback (fun e -> events := e :: !events) in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round:_ ~send ->
          if node = 0 then
            for _ = 1 to sends_per_round do
              send ~dst:1 ()
            done);
      deliver = (fun ~node:_ ~src:_ ~round:_ () -> incr delivered);
    }
  in
  let config =
    {
      Sim.max_rounds = rounds;
      fault = Fault.with_cap Fault.none ~limit:cap;
      engine_seed = 0;
      trace = sink;
      jobs = 1;
    }
  in
  let outcome =
    Sim.run ~n:2 ~config ~handlers ~measure:(fun () -> 1) ~stop:(fun ~round:_ ~alive:_ -> false) ()
  in
  List.iter
    (function
      | Trace.Drop { reason = Trace.Throttled; _ } -> incr throttled
      | _ -> ())
    !events;
  Alcotest.(check int) "cap messages per round delivered" (cap * rounds) !delivered;
  Alcotest.(check int) "excess throttled" ((sends_per_round - cap) * rounds) !throttled;
  Alcotest.(check int) "metrics agree on drops"
    ((sends_per_round - cap) * rounds)
    (Metrics.messages_dropped outcome.Sim.metrics)

let test_cap_saturated_run_completes () =
  (* a loss-tolerant algorithm under a saturated WAN crossing: progress
     slows but discovery still completes, and the checker accepts
     throttled drops like any loss *)
  let n = 64 and seed = 1 in
  let fault = wan2 ~n ~cross:{ Fault.default_link with Fault.cap = 1 } Fault.none in
  let r =
    checked_exec
      { Run.default_spec with Run.seed; fault; max_rounds = Some 2000 }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  Alcotest.(check bool) "completed under cap" true r.Run.completed

(* --- content audit: fabricated ids are caught ------------------------- *)

(* On the sorted chain node 1 initially knows {0, 1}; fabricating an id
   it never learns makes its very first advertisement a provenance
   violation. The id must sit inside the universe [0, n) or injection
   (correctly) discards it. *)
let fabricating_fault ~id = Fault.with_audit (Fault.with_fabrication Fault.none ~node:1 ~id) true

let expect_provenance_violation name ~id f =
  match f () with
  | exception Trace.Invariants.Violation msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec at i = i + nl <= hl && (String.sub msg i nl = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s names the fabrication (%s)" name msg)
      true
      (contains "provenance violation" && contains "node 1"
      && contains (Printf.sprintf "id %d" id))
  | _ -> Alcotest.failf "%s: fabricated id %d escaped the audit" name id

let test_audit_catches_fabricator_sim () =
  expect_provenance_violation "sync simulator" ~id:50 (fun () ->
      let inv = Trace.Invariants.create () in
      Run.exec_spec
        {
          Run.default_spec with
          Run.seed = 1;
          fault = fabricating_fault ~id:50;
          max_rounds = Some 2000;
          trace = Trace.Invariants.sink inv;
        }
        Hm_gossip.algorithm
        (topology Generate.Sorted_chain ~n:64 ~seed:1))

let test_audit_catches_fabricator_async () =
  expect_provenance_violation "async simulator" ~id:50 (fun () ->
      let inv = Trace.Invariants.create () in
      Run_async.exec_spec
        {
          Run_async.default_spec with
          Run_async.seed = 1;
          fault = fabricating_fault ~id:50;
          trace = Trace.Invariants.sink inv;
        }
        Hm_gossip.algorithm
        (topology Generate.Sorted_chain ~n:64 ~seed:1))

let test_audit_catches_fabricator_mux () =
  expect_provenance_violation "mux backend" ~id:20 (fun () ->
      let inv = Trace.Invariants.create () in
      Mux.exec_spec
        {
          Run_async.default_spec with
          Run_async.seed = 1;
          fault = fabricating_fault ~id:20;
          trace = Trace.Invariants.sink inv;
        }
        Hm_gossip.algorithm
        (topology Generate.Sorted_chain ~n:32 ~seed:1))

let test_audit_clean_runs_pass () =
  (* auditing an honest fleet must never fire: genesis/content events
     flow, the provenance sets grow, nothing is flagged *)
  let audit_only = Fault.with_audit Fault.none true in
  let n = 64 and seed = 1 in
  let r =
    checked_exec
      { Run.default_spec with Run.seed; fault = audit_only; max_rounds = Some 2000 }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  Alcotest.(check bool) "sync audited run completes" true r.Run.completed;
  (* and on the mux, where content events come from the live cores *)
  let inv = Trace.Invariants.create () in
  let r, _finals =
    Mux.exec_spec
      { Run_async.default_spec with Run_async.seed; fault = audit_only; trace = Trace.Invariants.sink inv }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n:32 ~seed)
  in
  Trace.Invariants.final_check inv r.Run_async.metrics;
  Alcotest.(check bool) "mux audited run completes" true r.Run_async.completed

let test_audit_restart_resets_provenance () =
  (* a restarted node re-emits genesis: its provenance resets to initial
     knowledge and the re-learning that follows is genuine, not flagged *)
  let n = 64 and seed = 3 in
  let fault =
    Fault.with_audit
      (Fault.with_restart (Fault.with_crash Fault.none ~node:5 ~round:3) ~node:5 ~round:6)
      true
  in
  (* lenient mode: restart Join events are expected, same as every
     restart test *)
  let inv = Trace.Invariants.create ~lenient:true () in
  let r =
    Run.exec_spec
      { Run.default_spec with Run.seed; fault; max_rounds = Some 2000; trace = Trace.Invariants.sink inv }
      Hm_gossip.algorithm
      (topology (Generate.K_out 3) ~n ~seed)
  in
  Trace.Invariants.final_check inv r.Run.metrics;
  Alcotest.(check bool) "completed across audited restart" true r.Run.completed

let () =
  Alcotest.run "adversarial"
    [
      ( "sorted-chain",
        [
          Alcotest.test_case "min_pointer/hm separation" `Quick test_sorted_chain_separation;
          Alcotest.test_case "min_pointer seed-invariant" `Quick
            test_sorted_chain_min_pointer_deterministic;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "all families complete" `Quick test_adversarial_families_complete;
          Alcotest.test_case "names parse" `Quick test_adversarial_families_parse;
        ] );
      ( "wan",
        [
          Alcotest.test_case "delay in flight" `Quick test_wan_delay_completes_inflight;
          Alcotest.test_case "strict checker trips" `Quick test_wan_delay_needs_inflight_mode;
          Alcotest.test_case "lossy crossing" `Quick test_wan_loss_slows_cross_region;
        ] );
      ( "caps",
        [
          Alcotest.test_case "cap bounds one link" `Quick test_cap_bounds_link_sync;
          Alcotest.test_case "saturated run completes" `Quick test_cap_saturated_run_completes;
        ] );
      ( "audit",
        [
          Alcotest.test_case "catches fabricator (sync)" `Quick test_audit_catches_fabricator_sim;
          Alcotest.test_case "catches fabricator (async)" `Quick
            test_audit_catches_fabricator_async;
          Alcotest.test_case "catches fabricator (mux)" `Quick test_audit_catches_fabricator_mux;
          Alcotest.test_case "clean runs pass" `Quick test_audit_clean_runs_pass;
          Alcotest.test_case "restart resets provenance" `Quick
            test_audit_restart_resets_provenance;
        ] );
    ]
