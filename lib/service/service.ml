open Repro_util
open Repro_engine
open Repro_discovery
module Backend = Repro_net.Backend
module Node_core = Repro_net.Node_core
module Envelope = Repro_net.Envelope
module Control = Repro_net.Control

type churn = { rate : float; min_live : int; until : int }

type config = {
  n : int;
  cap : int;
  seed : int;
  ticks : int;
  churn : churn option;
  fault : Fault.t;
  lag_bound : float option;
  full_sync : bool option;
  backend : Backend.t option;
  indirect_k : int;
  lifeguard : bool;
  trace : Trace.sink;
}

type stats = {
  ticks_run : int;
  cap : int;
  founders : int;
  final_live : int;
  joins : int;
  leaves : int;
  crashes : int;
  suspicions : int;
  retirements : int;
  epochs : int;
  epochs_closed : int;
  max_lag : float;
  msgs : int;
  bytes : int;
  probes : int;
  acks : int;
  gossip : int;
  update_entries : int;
  full_syncs : int;
  bootstraps : int;
  dropped_loss : int;
  dropped_dead : int;
  probe_reqs : int;
  probe_acks : int;
  suspicion_msgs : int;
  false_suspicions : int;
  false_retirements : int;
  retransmits : int;
  snapshots_peak : int;
  lag_table_peak : int;
}

let default_lag_bound ~cap =
  let lg = log (float_of_int (max 2 cap)) /. log 2.0 in
  Float.max 64.0 (4.0 *. lg *. lg)

(* --- a set of ids with O(1) add/remove/uniform-draw ------------------ *)

module Pool = struct
  type t = { ids : Intvec.t; pos : int array }

  let create ~cap = { ids = Intvec.create (); pos = Array.make cap (-1) }
  let mem t id = t.pos.(id) >= 0
  let size t = Intvec.length t.ids

  let add t id =
    if not (mem t id) then begin
      t.pos.(id) <- Intvec.length t.ids;
      Intvec.push t.ids id
    end

  let remove t id =
    if mem t id then begin
      let last = Intvec.length t.ids - 1 in
      let moved = Intvec.get t.ids last in
      let hole = t.pos.(id) in
      Intvec.set t.ids hole moved;
      t.pos.(moved) <- hole;
      ignore (Intvec.pop t.ids);
      t.pos.(id) <- -1
    end

  let draw t rng =
    if size t = 0 then None else Some (Intvec.get t.ids (Rng.int rng (size t)))
end

(* --- (time, seq)-ordered message heap -------------------------------- *)

module Heap = struct
  type entry = { time : float; seq : int; src : int; dst : int; frame : bytes }

  type t = { mutable a : entry array; mutable len : int }

  let dummy = { time = 0.0; seq = 0; src = 0; dst = 0; frame = Bytes.empty }
  let create () = { a = Array.make 256 dummy; len = 0 }
  let lt x y = x.time < y.time || (x.time = y.time && x.seq < y.seq)
  let is_empty t = t.len = 0
  let peek t = t.a.(0)

  let push t e =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) dummy in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    let i = ref t.len in
    t.len <- t.len + 1;
    t.a.(!i) <- e;
    while !i > 0 && lt t.a.(!i) t.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = t.a.(p) in
      t.a.(p) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := p
    done

  let pop t =
    let top = t.a.(0) in
    t.len <- t.len - 1;
    t.a.(0) <- t.a.(t.len);
    t.a.(t.len) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.len && lt t.a.(l) t.a.(!s) then s := l;
      if r < t.len && lt t.a.(r) t.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = t.a.(!s) in
        t.a.(!s) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !s
      end
    done;
    top
end

(* --------------------------------------------------------------------- *)

let validate cfg =
  if cfg.n < 2 then invalid_arg "Service.run: need at least two founders";
  if cfg.cap < cfg.n then invalid_arg "Service.run: cap must be >= n";
  if cfg.ticks < 1 then invalid_arg "Service.run: ticks must be positive";
  if cfg.indirect_k < 0 then invalid_arg "Service.run: indirect_k must be >= 0";
  match cfg.churn with
  | Some c ->
    if c.rate < 0.0 || c.rate > 1.0 then invalid_arg "Service.run: churn rate must be in [0,1]";
    if c.min_live < 2 then invalid_arg "Service.run: min_live must be >= 2"
  | None -> ()

let run cfg =
  validate cfg;
  let hosted =
    match cfg.backend with
    | None | Some Backend.Loopback -> false
    | Some Backend.Mux -> true
    | Some (Backend.Process _) ->
      invalid_arg
        "Service.run: process backends fork one OS process per node; the multiplexed service \
         runs on loopback or mux"
  in
  let cap = cfg.cap in
  let fault = cfg.fault in
  let lossy = Fault.has_link_faults fault || Fault.partitions fault <> [] in
  (* The periodic full sync is the backstop for every way an update can
     die before reaching the whole fleet: a lossy link eats it, or a
     joiner bootstraps from a snapshot racing its dissemination and the
     piggyback budgets expire before anyone re-sends it. So it is on by
     default whenever either hazard exists — lossy links, or any
     membership change at all (churn or a scheduled join/leave/crash). *)
  let churny =
    cfg.churn <> None
    || Fault.joining_nodes fault <> []
    || Fault.leaving_nodes fault <> []
    || Fault.crashed_nodes fault <> []
  in
  let full_sync = Option.value cfg.full_sync ~default:(lossy || churny) in
  let bound = Option.value cfg.lag_bound ~default:(default_lag_bound ~cap) in
  let lag = Trace.Lag.create ~bound () in
  let trace = Trace.tee (Trace.Lag.sink lag) cfg.trace in
  let labels = Array.init cap Fun.id in
  let net_rng = Rng.substream ~seed:cfg.seed ~index:0x11e7 in
  let churn_rng = Rng.substream ~seed:cfg.seed ~index:0xc511 in
  let members = Array.make cap None in
  let cores : Node_core.t option array = Array.make cap None in
  let ever_lived = Array.make cap false in
  let healing = Array.make cap false in
  let counts = Array.make cap 0 in
  let live = Pool.create ~cap in
  let retired = Pool.create ~cap in
  let fresh = Pool.create ~cap in
  let truth = Array.make cap false in
  (* The omniscient observer matches views against consistent cuts, not
     just the instantaneous truth: under sustained churn there is almost
     always one change still in flight (crash detection alone takes ~13
     ticks), so "view = truth right now" instants can elude an unlucky
     node for longer than the lag bound even while it tracks perfectly.
     A node converges to epoch [e] by matching the membership as of ANY
     epoch >= e — exactly the checker's documented contract. Set
     equality is tested with Zobrist hashes: each id gets a random
     62-bit key, the truth hash and each member's view hash fold in a
     key per live id, and a view matches epoch [e]'s membership iff the
     hashes collide (the 2^-62 false-match rate is far below any churn
     rate worth measuring; keys are drawn from a seed substream, so runs
     stay byte-reproducible). *)
  let zob =
    let zrng = Rng.substream ~seed:cfg.seed ~index:0x20b1 in
    Array.init cap (fun _ -> Int64.to_int (Rng.bits64 zrng) land max_int)
  in
  let htruth = ref 0 in
  let vhash = Array.make cap 0 in
  let conv_emitted = Array.make cap 0 in
  let snapshots = Hashtbl.create 256 in
  let snapshots_peak = ref 0 in
  (* every snapshot insertion, oldest first, for expiry below *)
  let snapshot_ages : (int * int * float) Queue.t = Queue.create () in
  let heap = Heap.create () in
  let seq = ref 0 in
  let spawns = ref 0 in
  let epoch = ref 0 in
  (* counters *)
  let joins = ref 0 and leaves = ref 0 and crashes = ref 0 in
  let suspicions = ref 0 and retirements = ref 0 in
  let false_suspicions = ref 0 and false_retirements = ref 0 in
  let msgs = ref 0 and bytes = ref 0 in
  let probes = ref 0 and acks = ref 0 and gossip = ref 0 and update_entries = ref 0 in
  let probe_reqs = ref 0 and probe_acks = ref 0 and suspicion_msgs = ref 0 in
  let full_syncs = ref 0 and bootstraps = ref 0 in
  let dropped_loss = ref 0 and dropped_dead = ref 0 in
  let retransmits = ref 0 in
  let now = ref 0.0 in

  let classify payload =
    match (payload : Payload.t) with
    | Probe -> incr probes
    | Probe_req _ -> incr probe_reqs
    | Probe_ack _ -> incr probe_acks
    | Suspicion _ -> incr suspicion_msgs
    | Exchange (Payload.Updates u) ->
      (* push-pull exchanges: a periodic full sync carries full state, a
         bootstrap request carries only the joiner's self-announcement *)
      if u.full then incr full_syncs else incr bootstraps
    | Reply (Payload.Updates u) ->
      if u.full then incr bootstraps
      else begin
        incr acks;
        update_entries := !update_entries + Array.length u.entries
      end
    | Share (Payload.Updates u) ->
      if u.full then incr full_syncs
      else begin
        incr gossip;
        update_entries := !update_entries + Array.length u.entries
      end
    | Share _ | Exchange _ | Reply _ | Halt -> ()
  in
  let latency () = 0.35 +. Rng.float net_rng 0.3 in
  (* One member-level message. Virtual mode encodes, applies the fault
     plan's coin and pushes the frame itself; hosted mode hands the
     payload to the node core, whose wire stack (envelope framing,
     go-back-N, fault shim) owns loss and retransmission — so
     [dropped_loss] stays 0 there: the shim drops silently and the
     reliability layer re-sends. Both modes count the same member-level
     [msgs]/[bytes], so traffic stats are comparable across backends. *)
  let send ~src ~dst payload =
    incr msgs;
    classify payload;
    if hosted then begin
      bytes := !bytes + Wire.encoded_size Wire.Adaptive ~universe:cap payload;
      match cores.(src) with
      | Some core -> Node_core.send core ~now:!now ~dst payload
      | None -> ()
    end
    else begin
      let frame = Wire.encode Wire.Adaptive ~universe:cap payload in
      bytes := !bytes + Bytes.length frame;
      let link = Fault.link_between fault ~src ~dst in
      let lost =
        (link.Fault.loss > 0.0 && Rng.bernoulli net_rng ~p:link.Fault.loss)
        || Fault.cut fault ~src ~dst ~time:!now
      in
      if lost then incr dropped_loss
      else begin
        incr seq;
        Heap.push heap
          { Heap.time = !now +. latency () +. float_of_int link.Fault.delay; seq = !seq; src; dst; frame }
      end
    end
  in
  (* emit the best epoch whose membership this member's view matches *)
  let try_converge id =
    match Hashtbl.find_opt snapshots vhash.(id) with
    | Some e when e > conv_emitted.(id) ->
      conv_emitted.(id) <- e;
      Trace.emit trace (Trace.Converge { node = id; epoch = e })
    | Some _ | None -> ()
  in
  let emit_converged_sweep () =
    for id = 0 to cap - 1 do
      if members.(id) <> None then try_converge id
    done
  in
  let on_view_change ~self ~target ~alive =
    ignore alive;
    if members.(self) <> None then begin
      vhash.(self) <- vhash.(self) lxor zob.(target);
      try_converge self
    end
  in
  let actions_for self =
    {
      Member.send = (fun ~dst payload -> send ~src:self ~dst payload);
      on_suspect =
        (fun ~target ->
          incr suspicions;
          if truth.(target) then incr false_suspicions;
          Trace.emit trace (Trace.Suspect { node = self; target }));
      on_retire =
        (fun ~target ->
          incr retirements;
          if truth.(target) then incr false_retirements;
          Trace.emit trace (Trace.Retire { node = self; target }));
      on_view_change = (fun ~target ~alive -> on_view_change ~self ~target ~alive);
    }
  in
  let member_rng () =
    incr spawns;
    Rng.substream ~seed:cfg.seed ~index:(0x3e0 + !spawns)
  in
  (* a (re)spawned member's view hash, from scratch; its convergence
     level starts over — earlier verdicts were the previous incarnation's *)
  let init_view_hash id =
    match members.(id) with
    | None -> ()
    | Some m ->
      let view = Member.view m in
      let h = ref 0 in
      View.iter_known view (fun j -> if View.is_live view j then h := !h lxor zob.(j));
      vhash.(id) <- !h;
      conv_emitted.(id) <- 0
  in
  let record_snapshot hash ep =
    Hashtbl.replace snapshots hash ep;
    Queue.push (hash, ep, !now) snapshot_ages;
    let size = Hashtbl.length snapshots in
    if size > !snapshots_peak then snapshots_peak := size
  in
  (* Expire snapshots old enough that no member could still legitimately
     converge to them: an epoch more than [bound] old that is still open
     has already raised {!Trace.Lag.Violation}, so keeping twice that
     window is safely conservative. A hash re-recorded since (the
     membership returned to a previous set) keeps its newer entry: the
     guard removes a binding only when it still carries the queued
     epoch. This caps the table at O(bound * churn rate) entries instead
     of one per change for the whole run. *)
  let prune_snapshots () =
    let continue = ref true in
    while !continue && not (Queue.is_empty snapshot_ages) do
      let hash, ep, born = Queue.peek snapshot_ages in
      if !now -. born > 2.0 *. bound then begin
        ignore (Queue.pop snapshot_ages);
        match Hashtbl.find_opt snapshots hash with
        | Some e when e = ep -> Hashtbl.remove snapshots hash
        | Some _ | None -> ()
      end
      else continue := false
    done
  in
  (* flip the truth for [id] and record the new membership's hash as the
     current epoch's snapshot — O(1), no per-member patching *)
  let flip_truth id =
    truth.(id) <- not truth.(id);
    htruth := !htruth lxor zob.(id);
    record_snapshot !htruth !epoch
  in

  (* --- the hosted backend: members inside real node cores ------------- *)
  (* Under [backend = Mux] every member lives inside an (unmodified)
     {!Node_core}: its messages ride the full wire stack — envelope
     framing + CRC, per-link go-back-N with retransmission, the seeded
     fault shim for loss/delay/partitions — and the service delivers
     encoded frames, not payloads. The core's own trace events are
     discarded (the service emits the canonical lifecycle itself), and
     its completion machinery is inert ([fleet_halt = false]). *)
  let spawn_core id =
    match members.(id) with
    | None -> ()
    | Some m ->
      let algo =
        {
          Algorithm.name = "service-member";
          description = "continuous-service member hosted on a node core";
          make =
            (fun _ctx ->
              (* the member, not the ctx, is the protocol state: the
                 core's round/receive hooks just forward to it on the
                 service's clock *)
              {
                Algorithm.knowledge = View.knowledge (Member.view m);
                round = (fun ~round:_ ~send:_ -> Member.step m ~now:!now);
                receive = (fun ~src payload -> Member.deliver m ~src ~now:!now payload);
                is_quiescent = Algorithm.never_quiescent;
              });
        }
      in
      let acts =
        {
          Node_core.emit = (fun ~now:_ _ -> ());
          xmit =
            (fun ~now:sent_at ~dst frame ->
              incr seq;
              Heap.push heap
                { Heap.time = sent_at +. latency (); seq = !seq; src = id; dst; frame });
          notify_complete = (fun ~now:_ ~tick:_ -> ());
          (* "establishing a connection" is instantaneous here, as in the
             mux: a revived link comes straight back up *)
          wake =
            (fun ~dst ->
              match cores.(id) with
              | Some core -> Node_core.link_up core ~now:!now ~dst
              | None -> ());
        }
      in
      let core =
        Node_core.create
          {
            Node_core.node = id;
            n = cap;
            algo;
            seed = cfg.seed;
            neighbors = [||];
            tick_period = 1.0;
            rto = 3.0;
            fault;
            announce = false;
            encoding = Wire.Adaptive;
            fleet_halt = false;
          }
          acts ~labels ~links_up:true ~now:!now
      in
      cores.(id) <- Some core;
      if ever_lived.(id) then begin
        (* A reborn id must void the go-back-N state peers still hold
           about its predecessor (their stale cumulative-ack marks would
           silently eat the fresh incarnation's low sequence numbers):
           greet every live peer, and keep re-greeting — see
           [heal_links] — until each peer's dead link has demonstrably
           been revived, since any single hello can be lost. *)
        for p = 0 to cap - 1 do
          if p <> id && cores.(p) <> None then Node_core.greet core ~now:!now ~dst:p
        done;
        healing.(id) <- true
      end;
      ever_lived.(id) <- true
  in
  let despawn_core id =
    match cores.(id) with
    | None -> ()
    | Some core ->
      retransmits := !retransmits + (Node_core.final core).Control.retransmits;
      cores.(id) <- None;
      healing.(id) <- false;
      (* every peer writes the departed id off at once, so go-back-N
         stops retransmitting into the void; a later rebirth revives the
         links via its greeting hellos *)
      for p = 0 to cap - 1 do
        if p <> id then
          match cores.(p) with
          | Some pc -> Node_core.link_dead pc ~now:!now ~dst:id
          | None -> ()
      done
  in
  (* Re-greet peers whose link toward a reborn id is still [Dead]: the
     hello that should have revived it was eaten by the fault shim. The
     peer's link status is the delivery receipt — once no peer holds a
     dead link toward the id, healing is done. *)
  let heal_links () =
    for id = 0 to cap - 1 do
      if healing.(id) then
        match cores.(id) with
        | None -> healing.(id) <- false
        | Some core ->
          let pending = ref false in
          for p = 0 to cap - 1 do
            if p <> id then
              match cores.(p) with
              | Some pc when Node_core.link_status pc ~dst:id = Node_core.Dead ->
                pending := true;
                Node_core.greet core ~now:!now ~dst:p
              | Some _ | None -> ()
          done;
          if not !pending then healing.(id) <- false
    done
  in

  (* --- membership changes --------------------------------------------- *)
  (* a churn join (genesis members are built inline below): the epoch
     counter mirrors the lag checker's, which starts bumping once the
     first tick has been emitted — always true here *)
  let join ~id ~contacts =
    Trace.emit trace (Trace.Join { node = id });
    incr epoch;
    incr joins;
    flip_truth id;
    Pool.remove fresh id;
    Pool.remove retired id;
    Pool.add live id;
    let m =
      Member.create_joiner ~cap ~self:id ~labels ~contacts ~rng:(member_rng ()) ~full_sync
        ~indirect_k:cfg.indirect_k ~lifeguard:cfg.lifeguard (actions_for id)
    in
    members.(id) <- Some m;
    counts.(id) <- 0;
    if hosted then spawn_core id;
    init_view_hash id;
    emit_converged_sweep ()
  in
  let depart ~id ~graceful =
    match members.(id) with
    | None -> ()
    | Some m ->
      if graceful then begin
        Member.leave m;
        incr leaves;
        Trace.emit trace (Trace.Leave { node = id })
      end
      else begin
        incr crashes;
        Trace.emit trace (Trace.Crash { node = id })
      end;
      incr epoch;
      members.(id) <- None;
      if hosted then despawn_core id;
      Pool.remove live id;
      Pool.add retired id;
      flip_truth id;
      emit_converged_sweep ()
  in

  (* --- genesis --------------------------------------------------------- *)
  let scheduled_joins = Hashtbl.create 8 in
  List.iter
    (fun (node, round) ->
      if round > 1 && node < cap then Hashtbl.replace scheduled_joins node round)
    (Fault.joining_nodes fault);
  let founders = ref [] in
  for id = cfg.n - 1 downto 0 do
    if not (Hashtbl.mem scheduled_joins id) then founders := id :: !founders
  done;
  let founders = Array.of_list !founders in
  if Array.length founders < 2 then invalid_arg "Service.run: fewer than two founding members";
  for id = cfg.n to cap - 1 do
    if not (Hashtbl.mem scheduled_joins id) then Pool.add fresh id
  done;
  Array.iter
    (fun id ->
      Trace.emit trace (Trace.Join { node = id });
      truth.(id) <- true;
      htruth := !htruth lxor zob.(id);
      Pool.add live id;
      let m =
        Member.create_genesis ~cap ~self:id ~labels ~peers:founders ~rng:(member_rng ())
          ~full_sync ~indirect_k:cfg.indirect_k ~lifeguard:cfg.lifeguard (actions_for id)
      in
      members.(id) <- Some m)
    founders;
  (* epoch 0: the genesis membership *)
  record_snapshot !htruth 0;
  Array.iter init_view_hash founders;
  if hosted then Array.iter spawn_core founders;

  (* per-round schedules from the fault plan *)
  let at tbl round id =
    let prev = Option.value (Hashtbl.find_opt tbl round) ~default:[] in
    Hashtbl.replace tbl round (id :: prev)
  in
  let joins_at = Hashtbl.create 8
  and leaves_at = Hashtbl.create 8
  and crashes_at = Hashtbl.create 8 in
  Hashtbl.iter (fun node round -> at joins_at round node) scheduled_joins;
  List.iter (fun (node, round) -> if node < cap then at leaves_at round node) (Fault.leaving_nodes fault);
  List.iter (fun (node, round) -> if node < cap then at crashes_at round node) (Fault.crashed_nodes fault);
  List.iter (fun (node, round) -> if node < cap then at joins_at round node) (Fault.restarting_nodes fault);

  (* up to three distinct live contacts for a joiner: a single contact
     can churn out mid-bootstrap, stranding the joiner on a dead address
     with no live peer in its view to re-aim at *)
  let random_contacts ~avoid =
    let want = 3 in
    let picked = ref [] and n_picked = ref 0 and attempts = ref (8 * want) in
    while !n_picked < want && !attempts > 0 do
      decr attempts;
      match Pool.draw live churn_rng with
      | Some c when c <> avoid && not (List.mem c !picked) ->
        picked := c :: !picked;
        incr n_picked
      | Some _ | None -> ()
    done;
    if !picked = [] then None else Some (Array.of_list (List.rev !picked))
  in
  let apply_scheduled tick =
    let sorted tbl = List.sort compare (Option.value (Hashtbl.find_opt tbl tick) ~default:[]) in
    List.iter
      (fun id ->
        if members.(id) = None then
          match random_contacts ~avoid:id with
          | Some contacts -> join ~id ~contacts
          | None -> ())
      (sorted joins_at);
    List.iter (fun id -> depart ~id ~graceful:true) (sorted leaves_at);
    List.iter (fun id -> depart ~id ~graceful:false) (sorted crashes_at)
  in
  let apply_churn tick =
    match cfg.churn with
    | Some c when tick <= c.until ->
      if Rng.bernoulli churn_rng ~p:(c.rate /. 2.0) then begin
        (* fresh ids first, then the retired pool (restarts) *)
        let id =
          match Pool.draw fresh churn_rng with
          | Some id -> Some id
          | None -> Pool.draw retired churn_rng
        in
        match id with
        | Some id when members.(id) = None -> (
          match random_contacts ~avoid:id with
          | Some contacts -> join ~id ~contacts
          | None -> ())
        | Some _ | None -> ()
      end;
      if Rng.bernoulli churn_rng ~p:(c.rate /. 4.0) && Pool.size live > c.min_live then
        (match Pool.draw live churn_rng with
        | Some id -> depart ~id ~graceful:true
        | None -> ());
      if Rng.bernoulli churn_rng ~p:(c.rate /. 4.0) && Pool.size live > c.min_live then
        (match Pool.draw live churn_rng with
        | Some id -> depart ~id ~graceful:false
        | None -> ())
    | Some _ | None -> ()
  in

  (* --- main loop ------------------------------------------------------- *)
  for tick = 1 to cfg.ticks do
    let tick_time = float_of_int tick in
    (* deliver everything due by this tick, in (time, seq) order *)
    while (not (Heap.is_empty heap)) && (Heap.peek heap).Heap.time <= tick_time do
      let e = Heap.pop heap in
      now := e.Heap.time;
      if hosted then begin
        match cores.(e.Heap.dst) with
        | None -> incr dropped_dead
        | Some core -> (
          match Envelope.decode e.Heap.frame ~off:0 ~len:(Bytes.length e.Heap.frame) with
          | `Frame (env, _) -> Node_core.handle_frame core ~now:e.Heap.time env
          | `Corrupt reason ->
            if String.equal reason Envelope.crc_mismatch then Node_core.note_corrupt_frame core
            else Node_core.note_decode_error core
          | `Need_more -> Node_core.note_decode_error core)
      end
      else begin
        match members.(e.Heap.dst) with
        | None -> incr dropped_dead
        | Some m -> (
          match Wire.decode Wire.Adaptive ~universe:cap e.Heap.frame with
          | Ok payload -> Member.deliver m ~src:e.Heap.src ~now:e.Heap.time payload
          | Error msg -> failwith ("Service.run: wire decode failed: " ^ msg))
      end
    done;
    now := tick_time;
    for id = 0 to cap - 1 do
      match members.(id) with
      | None -> ()
      | Some m -> (
        counts.(id) <- counts.(id) + 1;
        Trace.emit trace (Trace.Tick { node = id; time = tick_time; count = counts.(id) });
        match cores.(id) with
        | Some core ->
          (* the core runs the member's step through its round hook, and
             owns retransmission timeouts and held fault-shim frames *)
          Node_core.flush_faults core ~now:tick_time;
          Node_core.tick core ~now:tick_time;
          Node_core.pump core ~now:tick_time
        | None -> Member.step m ~now:tick_time)
    done;
    if hosted then heal_links ();
    apply_scheduled tick;
    apply_churn tick;
    prune_snapshots ()
  done;
  if hosted then
    Array.iter
      (function
        | Some core -> retransmits := !retransmits + (Node_core.final core).Control.retransmits
        | None -> ())
      cores;
  Trace.Lag.final_check lag;
  Trace.flush trace;
  {
    ticks_run = cfg.ticks;
    cap;
    founders = Array.length founders;
    final_live = Pool.size live;
    joins = !joins;
    leaves = !leaves;
    crashes = !crashes;
    suspicions = !suspicions;
    retirements = !retirements;
    epochs = Trace.Lag.epochs lag;
    epochs_closed = Trace.Lag.closed lag;
    max_lag = Trace.Lag.max_lag lag;
    msgs = !msgs;
    bytes = !bytes;
    probes = !probes;
    acks = !acks;
    gossip = !gossip;
    update_entries = !update_entries;
    full_syncs = !full_syncs;
    bootstraps = !bootstraps;
    dropped_loss = !dropped_loss;
    dropped_dead = !dropped_dead;
    probe_reqs = !probe_reqs;
    probe_acks = !probe_acks;
    suspicion_msgs = !suspicion_msgs;
    false_suspicions = !false_suspicions;
    false_retirements = !false_retirements;
    retransmits = !retransmits;
    snapshots_peak = !snapshots_peak;
    lag_table_peak = Trace.Lag.table_peak lag;
  }

let stats_to_json s =
  Printf.sprintf
    "{\"ticks\":%d,\"cap\":%d,\"founders\":%d,\"final_live\":%d,\"joins\":%d,\"leaves\":%d,\"crashes\":%d,\"suspicions\":%d,\"retirements\":%d,\"epochs\":%d,\"epochs_closed\":%d,\"max_lag\":%.12g,\"msgs\":%d,\"bytes\":%d,\"probes\":%d,\"acks\":%d,\"gossip\":%d,\"update_entries\":%d,\"full_syncs\":%d,\"bootstraps\":%d,\"dropped_loss\":%d,\"dropped_dead\":%d,\"probe_reqs\":%d,\"probe_acks\":%d,\"suspicion_msgs\":%d,\"false_suspicions\":%d,\"false_retirements\":%d,\"retransmits\":%d,\"snapshots_peak\":%d,\"lag_table_peak\":%d}"
    s.ticks_run s.cap s.founders s.final_live s.joins s.leaves s.crashes s.suspicions
    s.retirements s.epochs s.epochs_closed s.max_lag s.msgs s.bytes s.probes s.acks s.gossip
    s.update_entries s.full_syncs s.bootstraps s.dropped_loss s.dropped_dead s.probe_reqs
    s.probe_acks s.suspicion_msgs s.false_suspicions s.false_retirements s.retransmits
    s.snapshots_peak s.lag_table_peak
