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

(* Binary min-heap on (time, insertion seq) — the same ordering contract
   as the async engine's, so identical event times resolve identically. *)
module Heap = struct
  type entry = { time : float; seq : int; ev : ev }
  type t = { mutable arr : entry array; mutable len : int; mutable seq : int }

  let dummy = { time = 0.0; seq = 0; ev = Monitor }
  let create () = { arr = Array.make 256 dummy; len = 0; seq = 0 }
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h time ev =
    if h.len = Array.length h.arr then begin
      let arr = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    let e = { time; seq = h.seq; ev } in
    h.seq <- h.seq + 1;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- e;
    while !i > 0 && lt h.arr.(!i) h.arr.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      h.arr.(!i) <- h.arr.(p);
      h.arr.(p) <- e;
      i := p
    done

  let is_empty h = h.len = 0
  let peek h = h.arr.(0)

  let drop h =
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.arr.(!i) in
          h.arr.(!i) <- h.arr.(!smallest);
          h.arr.(!smallest) <- tmp;
          i := !smallest
        end
      done
    end
end

let zero_final =
  {
    Control.ticks = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    pointers = 0;
    bytes = 0;
    complete_tick = None;
    decode_errors = 0;
    retransmits = 0;
    corrupt_frames = 0;
  }

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
  let heap = Heap.create () in
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
    if Heap.is_empty heap then continue := false
    else begin
      let e = Heap.peek heap in
      if e.Heap.time > horizon then continue := false
      else begin
        now := e.Heap.time;
        Heap.drop heap;
        match e.Heap.ev with
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
          | Some core when alive.(dst) -> (
            match Envelope.decode frame ~off:0 ~len:(Bytes.length frame) with
            | `Frame (env, _) -> Node_core.handle_frame core ~now:!now env
            | `Corrupt reason ->
              if String.equal reason Envelope.crc_mismatch then Node_core.note_corrupt_frame core
              else Node_core.note_decode_error core
            | `Need_more -> Node_core.note_decode_error core)
          | _ ->
            (* a wire into a dead or unborn node: the frame vanishes, as
               it would on a real socket; the sender's go-back-N either
               redelivers it after a revival or accounts it when the
               link is declared dead *)
            ())
        | Monitor ->
          if stop ~time:!now then completed := true else Heap.push heap (!now +. 1.0) Monitor
      end
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
        match cores.(v) with Some core -> Node_core.final core | None -> zero_final)
  in
  let totals = ref zero_final in
  Array.iter
    (fun (f : Control.final) ->
      totals :=
        {
          !totals with
          Control.sent = !totals.Control.sent + f.Control.sent;
          delivered = !totals.Control.delivered + f.Control.delivered;
          dropped = !totals.Control.dropped + f.Control.dropped;
          pointers = !totals.Control.pointers + f.Control.pointers;
          bytes = !totals.Control.bytes + f.Control.bytes;
          retransmits = !totals.Control.retransmits + f.Control.retransmits;
          corrupt_frames = !totals.Control.corrupt_frames + f.Control.corrupt_frames;
        })
    finals;
  let metrics = Metrics.create () in
  let t = !totals in
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
