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

let () =
  Alcotest.run "alloc"
    [
      ( "regression",
        [
          Alcotest.test_case "steady-state flooding round is allocation-free" `Quick
            test_steady_state_flooding_round_allocates_nothing;
          Alcotest.test_case "steady-state compact broadcast round is allocation-free" `Quick
            test_steady_state_broadcast_round_allocates_nothing;
        ] );
    ]
