open Repro_util
open Repro_discovery

(* minor words [f ()] allocates, less the measurement window's own *)
let minor_words_of f =
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before -. overhead

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
   payload rebuild, no enumeration, no minor allocation. Each send is
   recorded in a metrics ledger, as the engine records it. At 65,536
   this is benchmark subject B9 (broadcast_round_65536). *)
let test_steady_state_broadcast_round_allocates_nothing () =
  List.iter
    (fun bn ->
      let labels = Array.init bn (fun i -> i) in
      let mk node =
        Swamping.algorithm.Algorithm.make
          {
            Algorithm.n = bn;
            node;
            neighbors = [||];
            labels;
            rng = Rng.create ~seed:node;
          }
      in
      let sender = mk 0 and receiver = mk 1 in
      let full = Cset.create bn in
      for v = 0 to bn - 1 do
        ignore (Cset.add full v)
      done;
      ignore (Knowledge.merge_bits sender.Algorithm.knowledge full);
      ignore (Knowledge.merge_bits receiver.Algorithm.knowledge full);
      let metrics = Repro_engine.Metrics.create () in
      Repro_engine.Metrics.begin_round metrics;
      let send ~dst:_ payload =
        Repro_engine.Metrics.record_send metrics ~pointers:(Payload.measure payload) ~bytes:0;
        receiver.Algorithm.receive ~src:0 payload
      in
      (* round 1 builds and caches the snapshot message; from round 2 on
         the broadcast is the steady state *)
      sender.Algorithm.round ~round:1 ~send;
      let extra = minor_words_of (fun () -> sender.Algorithm.round ~round:2 ~send) in
      if extra > 16.0 then
        Alcotest.failf "n = %d: steady-state broadcast round allocated %.0f minor words (expected 0)"
          bn extra)
    [ 4096; 65_536 ]

(* The same guard for the synchronous engine itself: once its outboxes
   and delivery index have grown to a round's traffic, a round — send
   phase, accounting, resolution, the counting sort on destination
   block and the block walk — allocates nothing per message. n = 4,096
   spans many destination blocks, at one shard and at two. Each round is
   read at its end; the clock float the fault plan reads is boxed once
   per round, and the per-round send series grows by doubling, so a
   round may show a few words but never one per message (12,288 sends
   here). *)
let test_steady_state_sim_round_allocates_nothing () =
  let module Sim = Repro_engine.Sim in
  let sn = 4096 and rounds = 10 in
  let received = Array.make sn 0 in
  let handlers =
    {
      Sim.round_begin =
        (fun ~node ~round ~send ->
          send ~dst:((node + 1) mod sn) round;
          send ~dst:((node * 97 + 5) mod sn) round;
          send ~dst:(sn - 1 - node) round);
      deliver = (fun ~node ~src:_ ~round:_ _ -> received.(node) <- received.(node) + 1);
    }
  in
  List.iter
    (fun jobs ->
      let words = Array.make (rounds + 1) 0.0 in
      let outcome =
        Sim.run ~n:sn
          ~config:{ Sim.default_config with Sim.jobs }
          ~handlers
          ~measure:(fun _ -> 1)
          ~stop:(fun ~round ~alive:_ -> round >= rounds)
          ~on_round_end:(fun ~round -> words.(round) <- Gc.minor_words ())
          ()
      in
      if Repro_engine.Metrics.messages_delivered outcome.Sim.metrics <> 3 * sn * rounds then
        Alcotest.fail "not every message was delivered";
      for r = 3 to rounds do
        let extra = words.(r) -. words.(r - 1) in
        if extra > 64.0 then
          Alcotest.failf "jobs %d: steady-state round %d allocated %.0f minor words (expected 0)"
            jobs r extra
      done)
    [ 1; 2 ]

(* Words allocated on both heaps: the minor count plus direct major
   allocations (major words less the promoted ones, which the minor
   count already holds). A large array skips the minor heap. The minor
   count comes from [Gc.minor_words], which reads the allocation
   pointer; the minor figure of [Gc.counters] can lag it. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let quiet_actions =
  {
    Repro_net.Node_core.emit = None;
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
  let memo = Repro_net.Node_core.memo ~n:cn in
  let before = allocated_words () in
  let core = Repro_net.Node_core.create cfg quiet_actions ~labels ~memo ~links_up:true ~now:0.0 in
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
      ~labels ~memo:(Repro_net.Node_core.memo ~n:cn) ~links_up:true ~now:0.0
  in
  (* touch every link: one data frame out, then the peer's ack drains it *)
  for dst = 1 to cn - 1 do
    ignore (Repro_net.Node_core.send core ~now:0.0 ~dst Payload.Probe);
    let ack = Bytes.create Repro_net.Envelope.header_size in
    Repro_net.Envelope.seal ack Repro_net.Envelope.Ack ~src:dst ~stamp:0 ~seq:0 ~ack:1;
    Repro_net.Node_core.receive core ~now:1.0 ack
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

(* Every message of both simulators and every live frame looks up its
   link ([Fault.link_between]) and meets the shared fate rule
   ([Fault.fate]: partition, cap, loss). Neither may allocate, with or
   without per-link overrides, a WAN profile or a partition. A capped
   link allocates its window cell once, on first use, so a warm-up pass
   in an earlier window comes first; the measured pass reuses the cells
   in a new window. The times are literal constants, so the calls pass
   static floats. *)
let test_link_fate_allocates_nothing () =
  let plan s = match Repro_engine.Fault.of_string s with Ok f -> f | Error e -> failwith e in
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (name, fault) ->
      let windows = Repro_engine.Fault.windows () in
      let pass time =
        for src = 0 to 15 do
          for dst = 0 to 15 do
            let lk = Repro_engine.Fault.link_between fault ~src ~dst in
            let verdict = Repro_engine.Fault.fate fault windows rng ~src ~dst ~time lk in
            ignore (Sys.opaque_identity verdict)
          done
        done
      in
      pass 1.0;
      let cal_before = Gc.minor_words () in
      let cal_after = Gc.minor_words () in
      let overhead = cal_after -. cal_before in
      let before = Gc.minor_words () in
      pass 2.5;
      let after = Gc.minor_words () in
      let extra = after -. before -. overhead in
      if extra > 0.0 then
        Alcotest.failf "%s: 256 link lookups and fates allocated %.0f minor words (expected 0)" name
          extra)
    [
      ("no faults", Repro_engine.Fault.none);
      ("base loss", plan "loss=0.05");
      ("per-link overrides", plan "link=1>2:loss=0.5,link=3>4:cap=1,link=5>6:delay=2,cap=2");
      ("wan profile", plan "wan=0-7|8-15:loss=0.2:cap=2");
      ("partition", plan "part=0-4|5-9@2..6,cap=3,loss=0.1");
    ]

(* Every random choice of every engine, algorithm and fault draws from
   [Rng]: a bounded draw, power of two or not, and a loss coin must
   not allocate. 17,408 is not a power of two, so it takes the
   rejection path; 1,000 draws below it alone are benchmark subject B2
   (rng_int_1k). *)
let test_rng_draws_allocate_nothing () =
  List.iter
    (fun (name, seed, draw) ->
      let rng = Rng.create ~seed in
      let draws () =
        let acc = ref 0 in
        for _ = 1 to 1000 do
          acc := !acc + draw rng
        done;
        ignore (Sys.opaque_identity !acc)
      in
      draws ();
      let extra = minor_words_of draws in
      if extra > 0.0 then
        Alcotest.failf "1,000 rounds of %s allocated %.0f minor words (expected 0)" name extra)
    [
      ( "int and bernoulli draws",
        1,
        fun rng -> Rng.int rng 17_408 + Rng.int rng 1024 + Bool.to_int (Rng.bernoulli rng ~p:0.05) );
      ("int draws below 17,408", 2, fun rng -> Rng.int rng 17_408);
    ]

(* [Rng.float] is inlined like [Rng.unit], so a draw that only feeds a
   comparison (the per-message latency draws of the async engine, the
   service and the mux) stays unboxed instead of costing a float block
   on the minor heap per call. *)
let test_rng_float_allocates_nothing () =
  let rng = Rng.create ~seed:1 in
  let draws () =
    let acc = ref 0 in
    for _ = 1 to 1000 do
      if Rng.float rng 0.3 < 0.1 then incr acc
    done;
    ignore (Sys.opaque_identity !acc)
  in
  draws ();
  let extra = minor_words_of draws in
  if extra > 0.0 then
    Alcotest.failf "1,000 float draws compared against a constant allocated %.0f minor words" extra

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

(* A difference into a private destination works in place: a bitmap
   container clears the source's bits, an array container is compacted
   over its own payload, and a container whose source is saturated is
   emptied. hm runs this on every snapshot it absorbs into custody. The
   source is a frozen view, as a snapshot's set is. *)
let test_diff_into_allocates_nothing () =
  let dn = 140_000 in
  let dst = Cset.create dn in
  for v = 0 to 65_535 do
    if v mod 3 = 0 then ignore (Cset.add dst v)
  done;
  for i = 0 to 19 do
    ignore (Cset.add dst (65_536 + (3 * i)));
    ignore (Cset.add dst (131_072 + i))
  done;
  let src = Cset.create dn in
  for v = 0 to 65_535 do
    if v mod 2 = 0 then ignore (Cset.add src v)
  done;
  for i = 0 to 19 do
    ignore (Cset.add src (65_536 + (2 * i)))
  done;
  for v = 131_072 to dn - 1 do
    ignore (Cset.add src v)
  done;
  let src = Cset.freeze src in
  let cal_before = Gc.minor_words () in
  let cal_after = Gc.minor_words () in
  let overhead = cal_after -. cal_before in
  let before = Gc.minor_words () in
  let removed = Cset.diff_into ~dst ~src in
  let after = Gc.minor_words () in
  let extra = after -. before -. overhead in
  (* multiples of 6: 10,923 in the bitmap, 7 in the array; all 20 of the
     last container *)
  if removed <> 10_923 + 7 + 20 then Alcotest.failf "diff removed %d ids (expected 10950)" removed;
  if extra > 0.0 then Alcotest.failf "difference allocated %.0f minor words (expected 0)" extra

(* The bitmap kernels below read and write 64-bit words of a [Bytes]
   payload through primitives declared in [Cset] itself and popcount
   them with an inlined SWAR, so no word is ever boxed. Unless an input
   says otherwise, the sets span n = 17,408, one container, as in
   hm-compact; every operand is a bitmap. *)
let bitmap_n = 17_408

let bitmap_of_step ~step ~offset =
  let t = Cset.create bitmap_n in
  let v = ref offset in
  while !v < bitmap_n do
    ignore (Cset.add t !v);
    v := !v + step
  done;
  t

(* The operands of benchmark subjects B11 at universe [n]: two sets of
   [n / 2] uniform draws each (about 39% full, so every container is a
   bitmap), built the way bench/main.exe builds them. *)
let bench_pair n =
  let rng = Rng.create ~seed:(n lxor 22) in
  let mk () =
    let b = Cset.create n in
    for _ = 1 to n / 2 do
      ignore (Cset.add b (Rng.int rng n))
    done;
    b
  in
  let dst = mk () in
  (dst, mk ())

(* B11's hm-band operands at n = 17,408: [card] uniform members a side *)
let band_pair card =
  let rng = Rng.create ~seed:(card + 17) in
  let mk () =
    let b = Cset.create bitmap_n in
    while Cset.cardinal b < card do
      ignore (Cset.add b (Rng.int rng bitmap_n))
    done;
    b
  in
  let dst = mk () in
  (dst, mk ())

(* members of [src] that [dst] holds ([inside]) or lacks *)
let count_of ~inside ~dst ~src = Cset.fold (fun k v -> if Cset.mem dst v = inside then k + 1 else k) 0 src

(* The live fault shim maps its clock onto rounds only for a plan that
   reads it (a partition or a link cap): under plain loss a frame's
   verdict ([Gone] or [Pass]) costs nothing, where a round clock passed
   into [Fault.fate] would box a float per frame. The times are literal
   constants, so the calls pass static floats. *)
let test_faultnet_loss_allocates_nothing () =
  let plan = match Repro_engine.Fault.of_string "loss=0.05" with Ok f -> f | Error e -> failwith e in
  let fn = Repro_net.Faultnet.create ~plan ~seed:1 ~node:0 ~epoch:0.0 ~tick_period:1.0 in
  let frame = Bytes.make 40 'x' in
  let gone = ref 0 in
  let sends now =
    for i = 1 to 1000 do
      match Repro_net.Faultnet.send fn ~now ~dst:(1 + (i land 7)) frame with
      | Repro_net.Faultnet.Gone -> incr gone
      | Repro_net.Faultnet.Pass -> ()
      | Repro_net.Faultnet.Queue _ -> Alcotest.fail "plain loss queued a buffer"
    done
  in
  sends 1.0;
  let extra = minor_words_of (fun () -> sends 2.5) in
  if !gone = 0 then Alcotest.fail "no frame was lost";
  if extra > 0.0 then
    Alcotest.failf "1,000 shim sends under loss=0.05 allocated %.0f minor words (expected 0)" extra

(* bitmap ∪ bitmap into a private destination: one OR pass over the
   words, in place. The other inputs are benchmark subjects B11
   cset_union_65536, cset_union_1048576 (16 containers) and
   cset_union_17408_card1024. *)
let test_bitmap_union_allocates_nothing () =
  List.iter
    (fun (name, (dst, src)) ->
      let expected = count_of ~inside:false ~dst ~src in
      let added = ref 0 in
      let extra = minor_words_of (fun () -> added := Cset.union_into ~dst ~src) in
      if !added <> expected then Alcotest.failf "%s: union added %d ids (expected %d)" name !added expected;
      if extra > 0.0 then Alcotest.failf "%s: bitmap union allocated %.0f minor words (expected 0)" name extra)
    [
      ("steps 3 and 2", (bitmap_of_step ~step:3 ~offset:0, bitmap_of_step ~step:2 ~offset:0));
      ("halves at 65,536", bench_pair 65_536);
      ("halves at 1,048,576", bench_pair 1_048_576);
      ("1,024 members a side at 17,408", band_pair 1024);
    ]

(* the no-change union: the word-parallel subset pre-check on a bitmap
   pair finds nothing fresh and writes nothing *)
let test_bitmap_subset_precheck_allocates_nothing () =
  let dst = bitmap_of_step ~step:2 ~offset:0 and src = bitmap_of_step ~step:4 ~offset:0 in
  let added = ref (-1) in
  let extra = minor_words_of (fun () -> added := Cset.union_into ~dst ~src) in
  if !added <> 0 then Alcotest.failf "no-change union added %d ids" !added;
  if extra > 0.0 then
    Alcotest.failf "no-change bitmap union allocated %.0f minor words (expected 0)" extra

(* a bitmap difference into a private destination clears the source's
   bits word by word. The other inputs are benchmark subjects B11
   cset_diff_65536 and cset_diff_1048576. *)
let test_bitmap_diff_allocates_nothing () =
  List.iter
    (fun (name, (dst, src)) ->
      let expected = count_of ~inside:true ~dst ~src in
      let removed = ref 0 in
      let extra = minor_words_of (fun () -> removed := Cset.diff_into ~dst ~src) in
      if !removed <> expected then
        Alcotest.failf "%s: diff removed %d ids (expected %d)" name !removed expected;
      if extra > 0.0 then Alcotest.failf "%s: bitmap diff allocated %.0f minor words (expected 0)" name extra)
    [
      ("steps 3 and 2", (bitmap_of_step ~step:3 ~offset:0, bitmap_of_step ~step:2 ~offset:0));
      ("halves at 65,536", bench_pair 65_536);
      ("halves at 1,048,576", bench_pair 1_048_576);
    ]

(* A sorted insert into a long-lived array container one member short
   of promotion (n = 65,536, 127 members) shifts every member up a
   slot, and removing it shifts them back; the set lives on the major
   heap. Neither allocates (benchmark subject B11 cset_add_sorted_65536). *)
let test_sorted_add_allocates_nothing () =
  let t = Cset.create 65_536 in
  for i = 1 to 127 do
    ignore (Cset.add t (i * 512))
  done;
  Gc.full_major ();
  let extra =
    minor_words_of (fun () ->
        if not (Cset.add t 0) then Alcotest.fail "0 was already a member";
        if not (Cset.remove t 0) then Alcotest.fail "0 was not added")
  in
  if extra > 0.0 then
    Alcotest.failf "a sorted add and remove allocated %.0f minor words (expected 0)" extra

(* the bitmap queries: [rank] popcounts the words below an id,
   [choose_nth] selects within one word *)
let test_bitmap_queries_allocate_nothing () =
  let a = bitmap_of_step ~step:3 ~offset:1 in
  let acc = ref 0 in
  let queries () =
    for k = 0 to 999 do
      let v = k * 17 in
      acc := !acc + Cset.rank a v + Cset.choose_nth a (v mod Cset.cardinal a)
    done
  in
  let extra = minor_words_of queries in
  ignore (Sys.opaque_identity !acc);
  if extra > 0.0 then
    Alcotest.failf "1,000 bitmap rank and choose_nth queries allocated %.0f minor words (expected 0)"
      extra

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

(* The int sort's merge buffer and run bounds are domain-local and
   grow-only: once one sort on the domain has grown them, sorts of any
   size up to it allocate nothing on either heap. The first inputs are
   the learn-order shape (ascending runs end to end) with a scrambled
   stretch, so both the insertion and the merge steps run; the last is
   benchmark subject B17 (sort_prefix_runs_4096), a flooding delta's
   shape: 4,096 ids in 8 ascending runs. *)
let test_sort_prefix_allocates_nothing () =
  let input m = Array.init m (fun i -> if i < m / 2 then (i mod 97) * m + i else (i * 7919) mod m) in
  let largest = 5000 in
  let work = Array.make largest 0 in
  let src = input largest in
  Intvec.blit_ints src 0 work 0 largest;
  Intvec.sort_prefix work largest;
  List.iter
    (fun src ->
      let m = Array.length src in
      Intvec.blit_ints src 0 work 0 m;
      let cal_before = allocated_words () in
      let cal_after = allocated_words () in
      let overhead = cal_after -. cal_before in
      let before = allocated_words () in
      Intvec.sort_prefix work m;
      let words = allocated_words () -. before -. overhead in
      for i = 1 to m - 1 do
        if work.(i - 1) > work.(i) then Alcotest.failf "%d ids not sorted at %d" m i
      done;
      if words > 0.0 then Alcotest.failf "sorting %d ids allocated %.0f words (expected 0)" m words)
    [ input 64; input 1000; input largest; Array.init 4096 (fun i -> ((i mod 512) * 8) + (i / 512)) ]

(* A probe is encoded straight into its exactly sized frame: one
   [Bytes] block of at most 11 bytes (kind byte plus two varints) is a
   header and at most two words, with no growing buffer behind it. *)
let test_probe_encode_is_one_block () =
  List.iter
    (fun (name, p) ->
      let cal_before = Gc.minor_words () in
      let cal_after = Gc.minor_words () in
      let overhead = cal_after -. cal_before in
      let before = Gc.minor_words () in
      let frame = Wire.encode Wire.Adaptive ~universe:1024 ~room:0 p in
      let after = Gc.minor_words () in
      let extra = after -. before -. overhead in
      ignore (Sys.opaque_identity frame);
      if extra > 3.0 then Alcotest.failf "encoding a %s allocated %.0f words (budget 3)" name extra)
    [
      ("probe", Payload.Probe);
      ("probe-req", Payload.Probe_req { target = 1000; nonce = 0x3FFF_FFFF });
    ]

(* An id list is sorted in a reused domain-local scratch and written
   straight into its exactly sized frame. Once a warm-up encode has
   grown the scratch, the empty resend delta and a scrambled 64-id delta
   slice each cost their frame block and a few words: no list cell per
   id, no growing buffer, no final copy. *)
let test_delta_encode_is_small () =
  let ids = Intvec.of_array (Array.init 64 (fun i -> i * 37 mod 1000)) in
  let delta = Payload.Delta (Intvec.slice ids ~pos:0 ~len:64) in
  List.iter
    (fun (name, p) ->
      ignore (Sys.opaque_identity (Wire.encode Wire.Adaptive ~universe:1024 ~room:0 p));
      let cal_before = Gc.minor_words () in
      let cal_after = Gc.minor_words () in
      let overhead = cal_after -. cal_before in
      let before = Gc.minor_words () in
      let frame = Wire.encode Wire.Adaptive ~universe:1024 ~room:0 p in
      let after = Gc.minor_words () in
      let extra = after -. before -. overhead in
      ignore (Sys.opaque_identity frame);
      if extra > 32.0 then Alcotest.failf "encoding %s allocated %.0f words (budget 32)" name extra)
    [ ("the empty delta", Payload.Exchange Payload.empty_delta); ("a 64-id delta", Payload.Exchange delta) ]

(* A decoded update batch is lent from a grow-only array of the
   decoding domain (see [Wire.decode]): once a first decode has grown
   that array, decoding a 300-entry full batch allocates only the
   payload — the [Share] block, the batch record and the [Ok] — where a
   fresh flat array would cost 600 words on the major heap. The frame
   is spelled out byte by byte (Share, codec 3 with the full flag,
   count 300, then gap 0, version 1, status alive per entry). *)
let test_batch_decode_allocates_its_payload () =
  let entries = 300 in
  let frame = Buffer.create (4 + (3 * entries)) in
  Buffer.add_string frame "\000\067\172\002";
  for _ = 1 to entries do
    Buffer.add_string frame "\000\001\000"
  done;
  let frame = Buffer.to_bytes frame in
  let decode () = Wire.decode ~universe:1024 frame ~off:0 ~len:(Bytes.length frame) in
  ignore (Sys.opaque_identity (decode ()));
  let cal_before = allocated_words () in
  let cal_after = allocated_words () in
  let overhead = cal_after -. cal_before in
  let before = allocated_words () in
  let decoded = decode () in
  let after = allocated_words () in
  let extra = after -. before -. overhead in
  (match decoded with
  | Ok (Payload.Share (Payload.Updates { full = true; count; entries = _ })) when count = entries
    ->
    ()
  | Ok p -> Alcotest.failf "decoded the wrong payload: %s" (Format.asprintf "%a" Payload.pp p)
  | Error msg -> Alcotest.failf "valid batch rejected: %s" msg);
  if extra > 16.0 then
    Alcotest.failf "decoding a %d-entry batch allocated %.0f words (budget 16)" entries extra

(* A full-state exchange between two members of a 300-member view, over
   the direct transport's wire (each message encoded, then decoded where
   it lies): a full batch from [a] arrives at [b] as an [Exchange], [b]
   merges it and answers with its own full view, and [a] merges that
   [Reply]. Both
   batches are lent — [b]'s reply is built in the sending domain's
   scratch and each decode writes into the decoding domain's — so after
   a first exchange has grown the scratches, the whole exchange
   allocates nothing on the major heap: every block it makes (the two
   frames of ~115 words, the payload records) is small enough for the
   minor heap. The views already agree, so neither merge logs an
   update. [Gc.counters] also counts the major words allocated since the
   last major slice, so the reading is exact. *)
let test_full_exchange_allocates_no_major_words () =
  let module Member = Repro_service.Member in
  let view = 300 and cap = 320 in
  let peers = Array.init view Fun.id in
  let reply = ref Bytes.empty in
  let member self ~send =
    Member.create_genesis ~cap ~self ~peers ~rng:(Rng.create ~seed:self) ~full_sync:true
      ~indirect_k:2 ~lifeguard:true
      {
        Member.send;
        on_suspect = (fun ~target:_ -> ());
        on_retire = (fun ~target:_ -> ());
        on_view_change = (fun ~target:_ ~alive:_ -> ());
      }
  in
  let a = member 0 ~send:(fun ~dst:_ _ -> ()) in
  let b =
    member 1 ~send:(fun ~dst payload ->
        if dst = 0 then reply := Wire.encode Wire.Adaptive ~universe:cap ~room:0 payload)
  in
  let full = Array.make (2 * view) 0 in
  Array.iteri
    (fun i node -> Payload.set_update full i ~node ~version:1 ~status:Payload.status_alive)
    peers;
  let exchange =
    Wire.encode Wire.Adaptive ~universe:cap ~room:0
      (Payload.Exchange (Payload.Updates { full = true; count = view; entries = full }))
  in
  let deliver m ~src frame =
    match Wire.decode ~universe:cap frame ~off:0 ~len:(Bytes.length frame) with
    | Ok payload -> Member.deliver m ~src ~now:1.0 payload
    | Error msg -> Alcotest.failf "a member's frame does not decode: %s" msg
  in
  let run () =
    deliver b ~src:0 exchange;
    deliver a ~src:1 !reply
  in
  run ();
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct_major () in
  run ();
  let words = direct_major () -. before in
  if Bytes.length !reply < 3 * view then
    Alcotest.failf "the reply is %d bytes, not a full view" (Bytes.length !reply);
  if words > 0.0 then
    Alcotest.failf "a full-state exchange of %d entries allocated %.0f major words (expected 0)"
      view words

(* A quiet member's tick between two probes is its gossip push with
   nothing to push: one [View.random_live] draw, a read of the drawn
   peer's gossip cursor and its advance. A cursor is a 32-bit slot of a
   flat byte table, read and written unboxed, and the draw returns a
   bare int, so 1,000 such steps allocate nothing, and neither do 1,000
   bare draws. The first step sends the periodic probe; a message from
   its target answers it, so the steps after it sweep no probe table.
   The path takes only the literal [now]. *)
let test_member_gossip_step_allocates_nothing () =
  let module Member = Repro_service.Member in
  let module View = Repro_service.View in
  let probed = ref (-1) in
  let m =
    Member.create_genesis ~cap:80 ~self:0 ~peers:(Array.init 64 Fun.id) ~rng:(Rng.create ~seed:1)
      ~full_sync:true ~indirect_k:2 ~lifeguard:true
      {
        Member.send = (fun ~dst _ -> probed := dst);
        on_suspect = (fun ~target:_ -> ());
        on_retire = (fun ~target:_ -> ());
        on_view_change = (fun ~target:_ ~alive:_ -> ());
      }
  in
  Member.step m ~now:1.0;
  if !probed < 0 then Alcotest.fail "the first step sent no probe";
  Member.deliver m ~src:!probed ~now:1.0 Payload.Halt;
  probed := -1;
  let steps =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          Member.step m ~now:1.0
        done)
  in
  if !probed >= 0 then Alcotest.failf "a quiet step sent a message to %d" !probed;
  if steps > 0.0 then
    Alcotest.failf "1,000 quiet gossip steps (draw, cursor read, cursor advance) allocated %.0f \
                    minor words (expected 0)" steps;
  let rng = Rng.create ~seed:2 in
  let acc = ref 0 in
  let draws =
    minor_words_of (fun () ->
        for _ = 1 to 1000 do
          acc := !acc + View.random_live (Member.view m) rng
        done)
  in
  ignore (Sys.opaque_identity !acc);
  if draws > 0.0 then
    Alcotest.failf "1,000 live-peer draws allocated %.0f minor words (expected 0)" draws

(* Two node cores, 0 and 1, of a [cn]-node run over one decode memo,
   whose algorithm ignores what it receives; [last] is the frame the
   latest transmission put on the wire. *)
let deaf_pair cn =
  let labels = Array.init cn Fun.id in
  let deaf =
    {
      Flooding.algorithm with
      Algorithm.make =
        (fun ctx ->
          let inst = Flooding.algorithm.Algorithm.make ctx in
          { inst with Algorithm.receive = (fun ~src:_ _ -> ()) });
    }
  in
  let last = ref Bytes.empty in
  let acts =
    {
      Repro_net.Node_core.emit = None;
      xmit = (fun ~now:_ ~dst:_ frame -> last := frame);
      notify_complete = (fun ~now:_ ~tick:_ -> ());
      wake = (fun ~dst:_ -> ());
    }
  in
  let memo = Repro_net.Node_core.memo ~n:cn in
  let core node =
    Repro_net.Node_core.create (core_config ~n:cn ~node deaf) acts ~labels ~memo ~links_up:true
      ~now:0.0
  in
  (core 0, core 1, last)

(* A frame out of [a] and into [b], and [b]'s ack back into [a]. *)
let frame_round_trip (a, b, last) ~now payload =
  ignore (Repro_net.Node_core.send a ~now ~dst:1 payload);
  Repro_net.Node_core.receive b ~now !last;
  Repro_net.Node_core.pump b ~now;
  Repro_net.Node_core.receive a ~now !last

(* A data frame through two node cores allocates its frame and its
   decoded payload and nothing else. The sender encodes the payload
   once, after envelope room, and seals the header into that buffer in
   place; the receiver checks the envelope and reads the header and
   body where they lie, so decoding costs the payload and its [Ok]
   (2 words). The receiving algorithm ignores what it gets, so its own
   work is not counted. A warm-up frame each way first creates the link
   records and the sender's send ring, and its ack empties the ring.
   Payloads: a 3-id list (varint codec) and a dense snapshot (bitmap
   codec); the snapshot's measured receipt repeats the warm-up's view,
   so it is a decode-memo hit, pinned on its own below. *)
let test_frame_seal_and_decode_allocate_frame_and_payload () =
  let cn = 256 in
  let ((a, b, last) as pair) = deaf_pair cn in
  let dense = Cset.create cn in
  for v = 0 to cn - 1 do
    if v mod 3 <> 0 then ignore (Cset.add dense v)
  done;
  List.iter
    (fun (name, payload) ->
      frame_round_trip pair ~now:1.0 payload;
      let sent =
        minor_words_of (fun () -> ignore (Repro_net.Node_core.send a ~now:2.0 ~dst:1 payload))
      in
      let frame = !last in
      let frame_words = float_of_int (Obj.reachable_words (Obj.repr frame)) in
      if sent > frame_words then
        Alcotest.failf "%s: sealing a data frame allocated %.0f words, the frame is %.0f" name sent
          frame_words;
      let payload_words =
        match
          Wire.decode ~universe:cn frame ~off:Repro_net.Envelope.header_size
            ~len:(Bytes.length frame - Repro_net.Envelope.header_size)
        with
        | Ok p -> float_of_int (Obj.reachable_words (Obj.repr p))
        | Error msg -> Alcotest.failf "%s: the frame's body does not decode: %s" name msg
      in
      let received = minor_words_of (fun () -> Repro_net.Node_core.receive b ~now:2.0 frame) in
      if (Repro_net.Node_core.final b).Repro_net.Control.delivered < 2 then
        Alcotest.failf "%s: the frame was not delivered" name;
      if received > payload_words +. 2.0 then
        Alcotest.failf "%s: decoding a data frame allocated %.0f words, the payload is %.0f + 2"
          name received payload_words;
      (* the receiver's ack empties the sender's ring again *)
      Repro_net.Node_core.pump b ~now:2.0;
      Repro_net.Node_core.receive a ~now:2.0 !last)
    [
      ("id list", Payload.Share (Payload.Ids [| 200; 5; 77 |]));
      ( "bitmap snapshot",
        Payload.Share (Payload.Bits (Knowledge.external_snapshot (Cset.freeze dense))) );
    ]

(* A view a sender repeats is decoded once: the receiving core finds
   the frame's body byte-equal to the last one it decoded from that
   sender and hands the algorithm the frozen view it built then, wrapped
   in this frame's kind. So a hit allocates the payload constructor and
   its [Ok] (2 words each) and nothing else, where a decode builds the
   whole set. *)
let test_memo_hit_allocates_its_constructor () =
  let cn = 256 in
  let ((a, b, last) as pair) = deaf_pair cn in
  let dense = Cset.create cn in
  for v = 0 to cn - 1 do
    if v mod 3 <> 0 then ignore (Cset.add dense v)
  done;
  let view = Payload.Bits (Knowledge.external_snapshot (Cset.freeze dense)) in
  (* the first receipt decodes the view and fills the memo *)
  frame_round_trip pair ~now:1.0 (Payload.Share view);
  ignore (Repro_net.Node_core.send a ~now:2.0 ~dst:1 (Payload.Reply view));
  let frame = !last in
  let received = minor_words_of (fun () -> Repro_net.Node_core.receive b ~now:2.0 frame) in
  if (Repro_net.Node_core.final b).Repro_net.Control.delivered <> 2 then
    Alcotest.fail "the repeated view was not delivered";
  if received > 4.0 then
    Alcotest.failf "a memo hit allocated %.0f words, not its constructor and Ok (4)" received

(* --- words per frame, path by path -------------------------------------

   One fixed small run per message path: hm on kout:3 at n = 256 under
   5% loss, seed 1, through the asynchronous engine's clock and through
   the mux's live cores (envelope, CRC, go-back-N, fault shim), and a
   64-member service soak under the same loss, on the hosted mux
   transport and on the direct transport; and the same 64 members with
   no loss, quiet or under churn. Each pin is the minor words of the
   whole run (its set-up included, the topology excluded) per data
   frame delivered to an algorithm, per member message on the lossy
   soaks, per member step on the quiet one or per tick under churn, at
   the value the current code measures, with 2% headroom
   (the soak's counts vary by ~0.1% from run to run). A regression of a
   few words per frame on any path fails its pin. *)

let pinned_topology =
  lazy (Repro_graph.Generate.of_seed (Repro_graph.Generate.K_out 3) ~n:256 ~seed:1)
let pinned_loss = Repro_engine.Fault.with_loss Repro_engine.Fault.none ~p:0.05

let words_of_run f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

let async_words_per_frame () =
  let topo = Lazy.force pinned_topology in
  let spec = { Run_async.default_spec with Run_async.seed = 1; fault = pinned_loss } in
  let words, r = words_of_run (fun () -> Run_async.exec_spec spec Hm_gossip.algorithm topo) in
  if not r.Run_async.completed then Alcotest.fail "async run did not complete";
  words /. float_of_int (Repro_engine.Metrics.messages_delivered r.Run_async.metrics)

let sim_words_per_message () =
  let topo = Lazy.force pinned_topology in
  let spec = { Run.default_spec with Run.seed = 1; fault = pinned_loss } in
  let words, r = words_of_run (fun () -> Run.exec_spec spec Hm_gossip.algorithm topo) in
  if not r.Run.completed then Alcotest.fail "sync run did not complete";
  words /. float_of_int r.Run.delivered

let mux_words_per_frame () =
  let topo = Lazy.force pinned_topology in
  let spec = { Run_async.default_spec with Run_async.seed = 1; fault = pinned_loss } in
  let words, (r, finals) =
    words_of_run (fun () -> Repro_net.Mux.exec_spec spec Hm_gossip.algorithm topo)
  in
  if not r.Run_async.completed then Alcotest.fail "mux run did not complete";
  let delivered = Array.fold_left (fun acc f -> acc + f.Repro_net.Control.delivered) 0 finals in
  words /. float_of_int delivered

let service_config ~fault backend =
  {
    Repro_service.Service.n = 64;
    cap = 80;
    seed = 1;
    ticks = 300;
    churn = None;
    fault;
    lag_bound = None;
    full_sync = None;
    backend;
    indirect_k = 2;
    lifeguard = true;
    trace = Repro_engine.Trace.null;
  }

let service_words_per_message backend () =
  let module Service = Repro_service.Service in
  let words, stats = words_of_run (fun () -> Service.run (service_config ~fault:pinned_loss backend)) in
  words /. float_of_int stats.Service.msgs

(* The same 64 members with no loss and no churn: each member-tick is a
   gossip draw with nothing to push, plus a probe and its ack every
   four ticks, so this reads what a member step costs when nothing
   happens. *)
let quiet_words_per_member_step () =
  let module Service = Repro_service.Service in
  let cfg = service_config ~fault:Repro_engine.Fault.none None in
  let words, stats = words_of_run (fun () -> Service.run cfg) in
  if stats.Service.gossip <> 0 then Alcotest.fail "the quiet fleet gossiped";
  words /. float_of_int (cfg.Service.n * cfg.Service.ticks)

(* Benchmark subject B13 (soak_service_tick_64): 64 members on the
   direct transport under churn at rate 0.05, never below 32 live, for
   2,000 ticks, the last lag bound + 16 of them churn-free, so every
   membership change converges before the end. Words per tick. *)
let churn_words_per_tick () =
  let module Service = Repro_service.Service in
  let ticks = 2000 and n = 64 in
  let cap = n + 16 in
  let cooldown = int_of_float (Service.default_lag_bound ~cap) + 16 in
  let cfg =
    {
      (service_config ~fault:Repro_engine.Fault.none None) with
      Service.cap;
      seed = 3;
      ticks;
      churn = Some { Service.rate = 0.05; min_live = n / 2; until = ticks - cooldown };
    }
  in
  let words, stats = words_of_run (fun () -> Service.run cfg) in
  if stats.Service.epochs <> stats.Service.epochs_closed then
    Alcotest.fail "a membership change did not converge";
  words /. float_of_int ticks

(* (path, measurement, pin). Before the frame was made one buffer
   (encoded once with envelope room, sealed in place, decoded in place)
   the mux read 227.95 words per delivered frame and the hosted service
   219.48 words per message; the async clock, which carries payloads by
   reference, is unchanged. The fault shim's clock float (2 words per
   frame under loss) took the mux from 119.12 to 116.33 and the hosted
   service from 111.36 to 107.71. The decode memo (a view a sender
   repeats is decoded once, not once per receipt) took the mux from
   115.19 to 95.83. The direct transport is the service
   with no net layer: each message encoded and decoded on the service
   heap. Flat gossip cursors, guarded probe and relay lookups and one
   lag tick per tick (no per-member [Tick] under the null sink) took
   the hosted service from 93.09 to 75.48 and the direct one from 58.07
   to 41.94. *)
let path_pins =
  [
    ("sync engine (Sim), words per delivered message", sim_words_per_message, 26.2);
    ("async clock, words per delivered frame", async_words_per_frame, 42.1);
    ("mux over node cores, words per delivered frame", mux_words_per_frame, 95.9);
    ( "service hosted transport, words per message",
      service_words_per_message (Some Repro_net.Backend.Mux),
      75.5 );
    ("service direct transport, words per message", service_words_per_message None, 42.0);
    ("service quiet fleet, words per member step", quiet_words_per_member_step, 20.5);
    ("service under churn, words per tick", churn_words_per_tick, 2770.0);
  ]

let test_path_pin measure budget () =
  let per_frame = measure () in
  Printf.printf "measured %.2f words (pin %.2f)\n" per_frame budget;
  if per_frame > budget *. 1.02 then
    Alcotest.failf "%.2f words, over the pin of %.2f (+2%%)" per_frame budget

let () =
  Alcotest.run "alloc"
    [
      ( "regression",
        [
          Alcotest.test_case "steady-state flooding round is allocation-free" `Quick
            test_steady_state_flooding_round_allocates_nothing;
          Alcotest.test_case "steady-state compact broadcast round is allocation-free" `Quick
            test_steady_state_broadcast_round_allocates_nothing;
          Alcotest.test_case "a steady-state Sim round allocates nothing" `Quick
            test_steady_state_sim_round_allocates_nothing;
          Alcotest.test_case "node core creation is O(1) beyond the algorithm" `Quick
            test_node_core_create_is_constant;
          Alcotest.test_case "idle pump is allocation-free" `Quick
            test_idle_pump_allocates_nothing;
          Alcotest.test_case "link lookup and fate are allocation-free" `Quick
            test_link_fate_allocates_nothing;
          Alcotest.test_case "fault shim under loss is allocation-free" `Quick
            test_faultnet_loss_allocates_nothing;
          Alcotest.test_case "rng draws are allocation-free" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "rng float draws are allocation-free" `Quick
            test_rng_float_allocates_nothing;
          Alcotest.test_case "heap push and pop are allocation-free" `Quick
            test_heap_push_pop_allocates_nothing;
          Alcotest.test_case "in-place array union is allocation-free" `Quick
            test_array_union_in_place_allocates_nothing;
          Alcotest.test_case "difference into a private set is allocation-free" `Quick
            test_diff_into_allocates_nothing;
          Alcotest.test_case "bitmap union is allocation-free" `Quick
            test_bitmap_union_allocates_nothing;
          Alcotest.test_case "no-change bitmap union is allocation-free" `Quick
            test_bitmap_subset_precheck_allocates_nothing;
          Alcotest.test_case "bitmap difference is allocation-free" `Quick
            test_bitmap_diff_allocates_nothing;
          Alcotest.test_case "sorted add to an array container is allocation-free" `Quick
            test_sorted_add_allocates_nothing;
          Alcotest.test_case "bitmap queries are allocation-free" `Quick
            test_bitmap_queries_allocate_nothing;
          Alcotest.test_case "unsorted batch merge is allocation-free" `Quick
            test_unsorted_batch_merge_allocates_nothing;
          Alcotest.test_case "int sort is allocation-free after a warm-up" `Quick
            test_sort_prefix_allocates_nothing;
          Alcotest.test_case "probe encoding is one small block" `Quick
            test_probe_encode_is_one_block;
          Alcotest.test_case "delta encoding is small" `Quick test_delta_encode_is_small;
          Alcotest.test_case "a decoded update batch allocates only its payload" `Quick
            test_batch_decode_allocates_its_payload;
          Alcotest.test_case "a full-state exchange allocates no major words" `Quick
            test_full_exchange_allocates_no_major_words;
          Alcotest.test_case "a quiet member's gossip step is allocation-free" `Quick
            test_member_gossip_step_allocates_nothing;
          Alcotest.test_case "a data frame allocates its frame and payload only" `Quick
            test_frame_seal_and_decode_allocate_frame_and_payload;
          Alcotest.test_case "a memo hit allocates only its constructor and Ok" `Quick
            test_memo_hit_allocates_its_constructor;
        ] );
      ( "per-path",
        List.map
          (fun (name, measure, budget) ->
            Alcotest.test_case name `Quick (test_path_pin measure budget))
          path_pins );
    ]
