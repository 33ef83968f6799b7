open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

(* The multiplexed runtime: every node of the deployment is a live
   {!Node_core} — real envelopes, go-back-N, hellos, fault shim — but
   all of them live in this one process and frames travel through a
   virtual-time event heap instead of sockets.

   The scheduler is a faithful replica of {!Async_sim}'s: the same
   engine RNG substream, the same draw order (per-node period jitter,
   first-tick phase, then one transit latency per data frame at
   transmission time), the same lazy crash/join/restart application, the
   same monitor cadence. Frames the async oracle does not have — bare
   acks, hellos, done probes — draw their latency from a private
   substream, so their extra heap events never perturb the shared
   sequence of draws. That is what makes a fault-free mux run
   trace-identical to the loopback oracle (see mux.mli for the exact
   claim and its boundaries). *)

let rto = 3.0
(* One virtual round trip is at worst latency_max + one tick period +
   latency_max ≈ 2.9 with the default spec, so 3.0 never fires a
   spurious retransmission on a healthy link. *)

type ev = Tick of int | Frame of { dst : int; frame : bytes } | Monitor

let exec_spec (spec : Run_async.spec) (algo : Algorithm.t) topology =
  let n = Topology.n topology in
  let horizon =
    match spec.Run_async.horizon with Some h -> h | None -> (4.0 *. float_of_int n) +. 64.0
  in
  if horizon <= 0.0 then invalid_arg "Mux.exec_spec: horizon must be positive";
  if spec.Run_async.tick_jitter < 0.0 || spec.Run_async.tick_jitter >= 1.0 then
    invalid_arg "Mux.exec_spec: jitter must be in [0, 1)";
  let lmin, lmax = spec.Run_async.latency in
  if lmin < 0.0 || lmax < lmin then invalid_arg "Mux.exec_spec: invalid latency interval";
  let seed = spec.Run_async.seed in
  let fault = spec.Run_async.fault in
  let trace = spec.Run_async.trace in
  (* the engine stream: every draw below must stay in lockstep with
     Async_sim.run for the fault-free trace-identity guarantee *)
  let rng = Rng.substream ~seed ~index:0xa5f1 in
  (* bare frames (acks, hellos, done probes) have no async counterpart:
     their transit draws come from a private stream *)
  let aux = Rng.substream ~seed ~index:0xba2e in
  (* the canonical per-run instantiation; each slot is replaced by the
     owning core's live instance at creation time, so these also serve
     as well-typed placeholders for nodes that have not joined yet (the
     completion predicate only dereferences alive — hence created —
     nodes) *)
  let labels, instances = Exec.instances ~seed algo topology in
  let last_join = float_of_int (Exec.last_join_round fault) in
  let is_alive_ref = ref (fun _ -> false) in
  let stop ~time =
    time >= last_join
    && Exec.satisfied spec.Run_async.completion ~labels ~instances ~alive:!is_alive_ref
  in
  let alive = Array.make n true in
  let crash_time = Array.make n infinity in
  List.iter
    (fun (node, round) -> if node < n then crash_time.(node) <- float_of_int round)
    (Fault.crashed_nodes fault);
  let restart_time = Array.make n infinity in
  List.iter
    (fun (node, round) -> if node < n then restart_time.(node) <- float_of_int round)
    (Fault.restarting_nodes fault);
  let join_time = Array.make n 0.0 in
  List.iter
    (fun (node, round) -> if node < n then join_time.(node) <- float_of_int round)
    (Fault.joining_nodes fault);
  let is_alive v = v >= 0 && v < n && alive.(v) in
  is_alive_ref := is_alive;
  let period =
    Array.init n (fun _ ->
        1.0 -. spec.Run_async.tick_jitter +. Rng.float rng (2.0 *. spec.Run_async.tick_jitter))
  in
  (* ordered on (time, insertion seq), the async engine's contract, so
     identical event times resolve identically *)
  let heap = Heap.create ~dummy:Monitor in
  let now = ref 0.0 in
  let latency () = lmin +. Rng.float rng (lmax -. lmin) in
  let aux_latency () = lmin +. Rng.float aux (lmax -. lmin) in
  let cores : Node_core.t option array = Array.make n None in
  let crash_emitted = Array.make n false in
  let make_core v ~announce =
    let actions =
      {
        Node_core.emit = (fun ~now:_ ev -> Trace.emit trace ev);
        xmit =
          (fun ~now ~dst frame ->
            (* data frames take the oracle's latency draw; everything
               else rides the private stream *)
            let lat =
              match Envelope.peek_kind frame with
              | Some Envelope.Data -> latency ()
              | Some (Envelope.Ack | Envelope.Hello | Envelope.Done) | None -> aux_latency ()
            in
            Heap.push heap (now +. lat) (Frame { dst; frame }));
        notify_complete = (fun ~now:_ ~tick:_ -> ());
        (* "establishing a connection" is instantaneous here *)
        wake =
          (fun ~dst ->
            match cores.(v) with
            | Some core -> Node_core.link_up core ~now:!now ~dst
            | None -> ());
      }
    in
    let core =
      Node_core.create
        {
          Node_core.node = v;
          n;
          algo;
          seed;
          neighbors = Topology.out_neighbors topology v;
          tick_period = 1.0;  (* virtual time advances one unit per round *)
          rto;
          fault;
          announce;
          encoding = spec.Run_async.encoding;
          fleet_halt = false;  (* the monitor is the authority on completion *)
        }
        actions ~labels ~links_up:true ~now:!now
    in
    cores.(v) <- Some core;
    instances.(v) <- Node_core.instance core;
    core
  in
  let emit_crash v =
    crash_emitted.(v) <- true;
    Trace.emit trace (Trace.Crash { node = v });
    (* a peer that will never return is written off by every transport
       at once (the socket runtime reaches the same verdict through its
       retry budget); one that restarts later keeps its links, exactly
       like the probing a live runtime does for a will-return peer *)
    if restart_time.(v) = infinity then
      Array.iteri
        (fun u core ->
          match core with
          | Some c when u <> v -> Node_core.link_dead c ~now:!now ~dst:v
          | _ -> ())
        cores
  in
  let apply_restart v =
    if (not alive.(v)) && !now >= crash_time.(v) && !now >= restart_time.(v) then begin
      if not crash_emitted.(v) then emit_crash v;
      alive.(v) <- true;
      crash_time.(v) <- infinity;
      restart_time.(v) <- infinity;
      (* a fresh incarnation: new instance, tick count reset, and an
         announce so peers void the old sequence state *)
      ignore (make_core v ~announce:true)
    end
  in
  (* setup mirrors the oracle's: periods drawn above, then per node a
     Join (for round-0 joiners) and a first-tick phase draw *)
  for v = 0 to n - 1 do
    if join_time.(v) > 0.0 then alive.(v) <- false else ignore (make_core v ~announce:false);
    Heap.push heap (join_time.(v) +. Rng.float rng period.(v)) (Tick v)
  done;
  Heap.push heap 1.0 Monitor;
  let ticks = ref 0 in
  let completed = ref (stop ~time:0.0) in
  let continue = ref true in
  while !continue && not !completed do
    if Heap.is_empty heap || Heap.min_time heap > horizon then continue := false
    else begin
      now := Heap.min_time heap;
      match Heap.pop heap with
      | Tick v ->
        if alive.(v) && !now >= crash_time.(v) then begin
          alive.(v) <- false;
          emit_crash v
        end;
        if (not alive.(v)) && !now >= join_time.(v) && !now < crash_time.(v) then begin
          alive.(v) <- true;
          ignore (make_core v ~announce:false)
        end;
        apply_restart v;
        (match cores.(v) with
        | Some core when alive.(v) ->
          incr ticks;
          Node_core.flush_faults core ~now:!now;
          Node_core.tick core ~now:!now;
          (* owed bare acks and retransmission timeouts ride the tick
             cadence: the round trip budgeted by [rto] accounts for it *)
          Node_core.pump core ~now:!now
        | _ -> ());
        if !now < crash_time.(v) || restart_time.(v) < infinity then
          Heap.push heap (!now +. period.(v)) (Tick v)
      | Frame { dst; frame } -> (
        if alive.(dst) && !now >= crash_time.(dst) then begin
          alive.(dst) <- false;
          emit_crash dst
        end;
        apply_restart dst;
        match cores.(dst) with
        | Some core when alive.(dst) -> Node_core.receive core ~now:!now frame
        | _ ->
          (* a wire into a dead or unborn node: the frame vanishes, as
             it would on a real socket; the sender's go-back-N either
             redelivers it after a revival or accounts it when the
             link is declared dead *)
          ())
      | Monitor ->
        if stop ~time:!now then completed := true else Heap.push heap (!now +. 1.0) Monitor
    end
  done;
  Trace.emit trace (if !completed then Trace.Complete else Trace.Give_up);
  Trace.flush trace;
  for v = 0 to n - 1 do
    if alive.(v) && !now >= crash_time.(v) then alive.(v) <- false
  done;
  (* per-node counters come from the cores themselves (the final
     incarnation's, matching what a socket cluster aggregates) *)
  let finals =
    Array.init n (fun v ->
        match cores.(v) with Some core -> Node_core.final core | None -> Control.zero_final)
  in
  let t = Array.fold_left Control.add_final Control.zero_final finals in
  let metrics = Metrics.create () in
  Metrics.absorb metrics ~retransmits:t.Control.retransmits
    ~corrupt_frames:t.Control.corrupt_frames ~sent:t.Control.sent ~delivered:t.Control.delivered
    ~dropped:t.Control.dropped ~pointers:t.Control.pointers ~bytes:t.Control.bytes ();
  ( {
      Run_async.algorithm = algo.Algorithm.name;
      n;
      seed;
      completed = !completed;
      time = !now;
      ticks = !ticks;
      messages = Metrics.messages_sent metrics;
      pointers = Metrics.pointers_sent metrics;
      dropped = Metrics.messages_dropped metrics;
      metrics;
      alive;
    },
    finals )
