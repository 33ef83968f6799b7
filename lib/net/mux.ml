open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

(* The multiplexed runtime: every node of the deployment is a live
   {!Node_core} — real envelopes, go-back-N, hellos, fault shim — but
   all of them live in this one process and frames travel through a
   virtual-time event heap instead of sockets.

   The mux runs on {!Async_sim}'s clock: the same engine RNG substream
   and draw order (per-node period jitter, first-tick phase, then one
   transit latency per data frame at transmission time), the same lazy
   crash/join/restart application, the same monitor cadence. This module
   only says what each event does to a core. Frames the async oracle
   does not have — bare acks, hellos, done probes — draw their latency
   from a private substream, so their extra heap events never perturb
   the shared sequence of draws. That is what makes a fault-free mux run
   trace-identical to the loopback oracle (see mux.mli for the exact
   claim and its boundaries). *)

let rto = 3.0
(* One virtual round trip is at worst latency_max + one tick period +
   latency_max ≈ 2.9 with the default spec, so 3.0 never fires a
   spurious retransmission on a healthy link. *)

let exec_spec (spec : Run_async.spec) (algo : Algorithm.t) topology =
  let n = Topology.n topology in
  let lmin, lmax = spec.Run_async.latency in
  let seed = spec.Run_async.seed in
  let fault = spec.Run_async.fault in
  let trace = spec.Run_async.trace in
  let clock = Async_sim.clock ~who:"Mux.exec_spec" ~n (Run_async.engine_config ~n spec) in
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
  let stop ~time ~alive =
    time >= last_join && Exec.satisfied spec.Run_async.completion ~labels ~instances ~alive
  in
  let cores : Node_core.t option array = Array.make n None in
  let make_core v ~announce =
    let actions =
      {
        Node_core.emit =
          (if Trace.is_null trace then None else Some (fun ~now:_ ev -> Trace.emit trace ev));
        xmit =
          (fun ~now ~dst frame ->
            (* data frames take the oracle's latency draw; everything
               else rides the private stream *)
            let lat =
              match Envelope.peek_kind frame with
              | Some Envelope.Data -> Async_sim.latency clock
              | Some (Envelope.Ack | Envelope.Hello | Envelope.Done) | None ->
                lmin +. Rng.float aux (lmax -. lmin)
            in
            Async_sim.send clock ~at:(now +. lat) ~src:v ~dst frame);
        notify_complete = (fun ~now:_ ~tick:_ -> ());
        (* "establishing a connection" is instantaneous here *)
        wake =
          (fun ~dst ->
            match cores.(v) with
            | Some core -> Node_core.link_up core ~now:(Async_sim.now clock) ~dst
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
          fleet_halt = false;  (* the monitor is the authority on completion *)
        }
        actions ~labels ~links_up:true ~now:(Async_sim.now clock)
    in
    cores.(v) <- Some core;
    instances.(v) <- Node_core.instance core
  in
  let hooks =
    {
      (* a restart is a fresh incarnation: new instance, tick count
         reset, and an announce so peers void the old sequence state *)
      Async_sim.join = (fun ~node ~restart -> make_core node ~announce:restart);
      crash =
        (fun ~node:v ~restarts ->
          (* a peer that will never return is written off by every
             transport at once (the socket runtime reaches the same
             verdict through its retry budget); one that restarts later
             keeps its links, exactly like the probing a live runtime
             does for a will-return peer *)
          if not restarts then
            Array.iteri
              (fun u core ->
                match core with
                | Some c when u <> v -> Node_core.link_dead c ~now:(Async_sim.now clock) ~dst:v
                | _ -> ())
              cores);
      tick =
        (fun ~node ->
          match cores.(node) with
          | Some core ->
            let now = Async_sim.now clock in
            Node_core.flush_faults core ~now;
            Node_core.tick core ~now;
            (* owed bare acks and retransmission timeouts ride the tick
               cadence: the round trip budgeted by [rto] accounts for it *)
            Node_core.pump core ~now
          | None -> ());
      deliver =
        (fun ~src:_ ~dst frame ->
          match cores.(dst) with
          | Some core -> Node_core.receive core ~now:(Async_sim.now clock) frame
          | None -> ());
      (* a wire into a dead or unborn node: the frame vanishes, as it
         would on a real socket; the sender's go-back-N either redelivers
         it after a revival or accounts it when the link is declared dead *)
      lost = (fun ~src:_ ~dst:_ _ -> ());
    }
  in
  let completed = Async_sim.drive clock hooks ~stop in
  (* per-node counters come from the cores themselves (the final
     incarnation's, matching what a socket cluster aggregates) *)
  let finals =
    Array.init n (fun v ->
        match cores.(v) with Some core -> Node_core.final core | None -> Control.zero_final)
  in
  let metrics =
    Control.metrics_of_final (Array.fold_left Control.add_final Control.zero_final finals)
  in
  ( {
      Run_async.algorithm = algo.Algorithm.name;
      n;
      seed;
      completed;
      time = Async_sim.now clock;
      ticks = Async_sim.ticks clock;
      messages = Metrics.messages_sent metrics;
      pointers = Metrics.pointers_sent metrics;
      dropped = Metrics.messages_dropped metrics;
      metrics;
      alive = Async_sim.alive clock;
    },
    finals )
