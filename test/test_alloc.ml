open Repro_util
open Repro_discovery

(* Regression guard for the allocation-free hot path: a steady-state
   flooding round at n = 4096 with tracing off must not allocate on the
   minor heap. Once a node's [sent_upto] mark has caught up with its
   knowledge, the round body is a single integer comparison — any
   reintroduced per-node or per-send allocation shows up here as at
   least one word per node, far above the measurement overhead of the
   [Gc.minor_words] calls themselves (which box their float results). *)

let n = 4096

let make_instances () =
  let labels = Array.init n (fun i -> i) in
  Array.init n (fun i ->
      Flooding.algorithm.make
        {
          Algorithm.n;
          node = i;
          neighbors = [| (i + 1) mod n |];
          labels;
          rng = Rng.create ~seed:i;
          params = Params.default;
        })

let send_sink ~dst:_ (_ : Payload.t) = ()

let run_round inst = inst.Algorithm.round ~round:2 ~send:send_sink

let test_steady_state_flooding_round_allocates_nothing () =
  let instances = make_instances () in
  (* saturate every node's knowledge, then flush the backlog once so the
     next round is the converged steady state *)
  let everyone = Payload.Share (Payload.Ids (Array.init n (fun i -> i))) in
  Array.iter (fun inst -> inst.Algorithm.receive ~src:0 everyone) instances;
  Array.iter (fun inst -> inst.Algorithm.round ~round:1 ~send:send_sink) instances;
  (* calibrate the overhead of the measurement window itself *)
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  Array.iter run_round instances;
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if extra > 64.0 then
    Alcotest.failf "steady-state flooding round allocated %.0f minor words (expected 0)" extra

(* Same guard for a snapshot broadcaster: a steady-state swamping
   broadcast re-fans the version-cached message out of the compressed
   set, and each receiver's merge hits the same-snapshot memo — no
   payload rebuild, no enumeration, no minor allocation. This is what
   benchmark subject B9 (broadcast_round_65536) measures, here at a
   reduced universe. *)
let test_steady_state_broadcast_round_allocates_nothing () =
  let bn = 4096 in
  let labels = Array.init bn (fun i -> i) in
  let mk node =
    Swamping.algorithm.Algorithm.make
      {
        Algorithm.n = bn;
        node;
        neighbors = [||];
        labels;
        rng = Rng.create ~seed:node;
        params = Params.default;
      }
  in
  let sender = mk 0 and receiver = mk 1 in
  let full = Cset.create bn in
  for v = 0 to bn - 1 do
    ignore (Cset.add full v)
  done;
  ignore (Knowledge.merge_bits sender.Algorithm.knowledge full);
  ignore (Knowledge.merge_bits receiver.Algorithm.knowledge full);
  let send ~dst:_ payload = receiver.Algorithm.receive ~src:0 payload in
  (* round 1 builds and caches the snapshot message; from round 2 on
     the broadcast is the steady state *)
  sender.Algorithm.round ~round:1 ~send;
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  sender.Algorithm.round ~round:2 ~send;
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if extra > 64.0 then
    Alcotest.failf "steady-state broadcast round allocated %.0f minor words (expected 0)" extra

(* Words allocated on either heap (large blocks skip the minor heap). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let quiet_actions =
  {
    Repro_net.Node_core.emit = (fun ~now:_ _ -> ());
    xmit = (fun ~now:_ ~dst:_ _ -> ());
    notify_complete = (fun ~now:_ ~tick:_ -> ());
    wake = (fun ~dst:_ -> ());
  }

let core_config ~n ~node algo =
  {
    Repro_net.Node_core.node;
    n;
    algo;
    seed = 1;
    neighbors = [| (node + 1) mod n |];
    tick_period = 1.0;
    rto = 3.0;
    fault = Repro_engine.Fault.none;
    announce = false;
    encoding = Wire.Adaptive;
    fleet_halt = false;
  }

(* A node core costs O(peers it talks to), not O(n): no link table and
   no label permutation per core. At n = 65,536 one record per link
   would be over a million words; what [create] may add beyond the
   algorithm instance's own allocation is a small constant. *)
let test_node_core_create_is_constant () =
  let cn = 65_536 in
  let labels = Exec.labels_of ~seed:1 cn in
  let make_words = ref 0.0 in
  let algo =
    {
      Flooding.algorithm with
      Algorithm.make =
        (fun ctx ->
          let before = allocated_words () in
          let inst = Flooding.algorithm.Algorithm.make ctx in
          make_words := allocated_words () -. before;
          inst);
    }
  in
  let cfg = core_config ~n:cn ~node:7 algo in
  let before = allocated_words () in
  let core = Repro_net.Node_core.create cfg quiet_actions ~labels ~links_up:true ~now:0.0 in
  let extra = allocated_words () -. before -. !make_words in
  ignore (Sys.opaque_identity core);
  if extra > 1024.0 then
    Alcotest.failf "Node_core.create at n = %d allocated %.0f words beyond algo.make" cn extra

(* [pump] over touched links with nothing due walks them without
   allocating: an idle mux tick must cost no minor-heap words. *)
let test_idle_pump_allocates_nothing () =
  let cn = 64 in
  let labels = Array.init cn Fun.id in
  let core =
    Repro_net.Node_core.create (core_config ~n:cn ~node:0 Flooding.algorithm) quiet_actions
      ~labels ~links_up:true ~now:0.0
  in
  (* touch every link: one data frame out, then the peer's ack drains it *)
  for dst = 1 to cn - 1 do
    Repro_net.Node_core.send core ~now:0.0 ~dst Payload.Probe;
    Repro_net.Node_core.handle_frame core ~now:1.0
      {
        Repro_net.Envelope.kind = Repro_net.Envelope.Ack;
        src = dst;
        stamp = 0;
        seq = 0;
        ack = 1;
        comp = false;
        body = Bytes.empty;
      }
  done;
  for dst = 1 to cn - 1 do
    if Repro_net.Node_core.wants_link core ~dst then Alcotest.failf "link %d not idle" dst
  done;
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Repro_net.Node_core.pump core ~now:2.0
  done;
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if extra > 0.0 then Alcotest.failf "1,000 idle pumps allocated %.0f minor words (expected 0)" extra

(* The event heap stores times and sequence numbers unboxed beside the
   payloads: once its arrays have grown, a push and a pop of an
   immediate payload write into preallocated slots and allocate
   nothing. Each push below sifts up to the root and each pop sifts the
   last entry back down, the longest paths through a 1,000-entry heap
   (below its 1,024-slot capacity, so no growth falls in the window).
   The time is a literal constant, so the call passes a static float. *)
let test_heap_push_pop_allocates_nothing () =
  let h = Heap.create ~dummy:0 in
  for i = 1 to 1000 do
    Heap.push h (float_of_int i) i
  done;
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    Heap.push h 0.5 i;
    if Heap.pop h <> i then Alcotest.fail "pop did not return the earliest entry"
  done;
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if extra > 0.0 then
    Alcotest.failf "1,000 heap push/pop pairs allocated %.0f minor words (expected 0)" extra

(* An array union that fits in the destination's private payload
   merges in place: 12 members lie in a 16-slot payload (8 slots,
   doubled once by [add]) and 4 fresh ones fill it. *)
let test_array_union_in_place_allocates_nothing () =
  let dst = Cset.of_array 65_536 (Array.init 12 (fun i -> 100 * (i + 1))) in
  let src = Cset.of_array 65_536 [| 50; 150; 1250; 5000; 600 |] in
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  let added = Cset.union_into ~dst ~src in
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if added <> 4 then Alcotest.failf "union added %d ids (expected 4)" added;
  if extra > 0.0 then
    Alcotest.failf "in-place array union allocated %.0f minor words (expected 0)" extra

(* A batch merge filters the fresh ids into a reused domain-local
   scratch and sorts it in place: once the scratch has grown (the
   warm-up batch), an unsorted 64-id batch allocates nothing. The
   knowledge set is a bitmap by then and its learn order has room for
   both batches, so neither grows inside the window. *)
let test_unsorted_batch_merge_allocates_nothing () =
  let kn = 4096 in
  let k = Knowledge.create ~n:kn ~owner:0 ~labels:(Array.init kn Fun.id) () in
  ignore (Knowledge.merge_ids k (Array.init 1200 Fun.id));
  (* 64 even ids from [base - 64], scrambled; the warm-up batch knows
     half of its ids already, the measured one none *)
  let batch base = Array.init 64 (fun i -> base + (((i * 37) mod 64) * 2) - 64) in
  let slice ids = Intvec.slice (Intvec.of_array ids) ~pos:0 ~len:(Array.length ids) in
  let warm = slice (batch 1200) and measured = slice (batch 1400) in
  if Knowledge.merge_slice k warm <> 32 then Alcotest.fail "warm-up batch learned the wrong count";
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  let learned = Knowledge.merge_slice k measured in
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  if learned <> 64 then Alcotest.failf "measured batch learned %d ids (expected 64)" learned;
  if extra > 0.0 then
    Alcotest.failf "unsorted 64-id batch merge allocated %.0f minor words (expected 0)" extra

let () =
  Alcotest.run "alloc"
    [
      ( "regression",
        [
          Alcotest.test_case "steady-state flooding round is allocation-free" `Quick
            test_steady_state_flooding_round_allocates_nothing;
          Alcotest.test_case "steady-state compact broadcast round is allocation-free" `Quick
            test_steady_state_broadcast_round_allocates_nothing;
          Alcotest.test_case "node core creation is O(1) beyond the algorithm" `Quick
            test_node_core_create_is_constant;
          Alcotest.test_case "idle pump is allocation-free" `Quick
            test_idle_pump_allocates_nothing;
          Alcotest.test_case "heap push and pop are allocation-free" `Quick
            test_heap_push_pop_allocates_nothing;
          Alcotest.test_case "in-place array union is allocation-free" `Quick
            test_array_union_in_place_allocates_nothing;
          Alcotest.test_case "unsorted batch merge is allocation-free" `Quick
            test_unsorted_batch_merge_allocates_nothing;
        ] );
    ]
