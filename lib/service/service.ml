open Repro_util
open Repro_engine
open Repro_discovery
module Backend = Repro_net.Backend
module Node_core = Repro_net.Node_core
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
  probe_bytes : int;
  gossip_bytes : int;
  digest_bytes : int;
  full_state_bytes : int;
  bootstrap_bytes : int;
  probes : int;
  acks : int;
  gossip : int;
  update_entries : int;
  full_syncs : int;
  sync_repairs : int;
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

(* --- the observer ------------------------------------------------------ *)
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

type observer = {
  trace : Trace.sink;
  bound : float;
  zob : int array;  (* each id's Zobrist key *)
  mutable htruth : int;  (* hash of the true membership *)
  vhash : int array;  (* hash of each member's live view *)
  conv_emitted : int array;  (* best epoch each member has been credited with *)
  snapshots : (int, int) Hashtbl.t;  (* membership hash -> epoch *)
  mutable snapshots_peak : int;
  ages : (int * int * float) Queue.t;  (* every snapshot insertion, oldest first, for expiry *)
}

let observer ~seed ~cap ~bound trace =
  let zrng = Rng.substream ~seed ~index:0x20b1 in
  {
    trace;
    bound;
    zob = Array.init cap (fun _ -> Int64.to_int (Rng.bits64 zrng) land max_int);
    htruth = 0;
    vhash = Array.make cap 0;
    conv_emitted = Array.make cap 0;
    snapshots = Hashtbl.create 256;
    snapshots_peak = 0;
    ages = Queue.create ();
  }

(* emit the best epoch whose membership this member's view matches *)
let try_converge o id =
  match Hashtbl.find_opt o.snapshots o.vhash.(id) with
  | Some e when e > o.conv_emitted.(id) ->
    o.conv_emitted.(id) <- e;
    Trace.emit o.trace (Trace.Converge { node = id; epoch = e })
  | Some _ | None -> ()

(* a (re)spawned member's view hash, from scratch: its live peers plus
   itself. Its convergence level starts over — earlier verdicts were the
   previous incarnation's *)
let reset_view o id m =
  let view = Member.view m in
  let h = ref (if View.is_live view id then o.zob.(id) else 0) in
  View.iter_live view (fun j -> h := !h lxor o.zob.(j));
  o.vhash.(id) <- !h;
  o.conv_emitted.(id) <- 0

(* [id] joined or left the true membership *)
let toggle o id = o.htruth <- o.htruth lxor o.zob.(id)

(* record the current membership's hash as epoch [ep]'s snapshot — O(1),
   no per-member patching *)
let record_snapshot o ~now ep =
  Hashtbl.replace o.snapshots o.htruth ep;
  Queue.push (o.htruth, ep, now) o.ages;
  o.snapshots_peak <- max o.snapshots_peak (Hashtbl.length o.snapshots)

(* Expire snapshots old enough that no member could still legitimately
   converge to them: an epoch more than [bound] old that is still open
   has already raised {!Trace.Lag.Violation}, so keeping twice that
   window is safely conservative. A hash re-recorded since (the
   membership returned to a previous set) keeps its newer entry: the
   guard removes a binding only when it still carries the queued
   epoch. This caps the table at O(bound * churn rate) entries instead
   of one per change for the whole run. *)
let prune_snapshots o ~now =
  let continue = ref true in
  while !continue && not (Queue.is_empty o.ages) do
    let hash, ep, born = Queue.peek o.ages in
    if now -. born > 2.0 *. o.bound then begin
      ignore (Queue.pop o.ages);
      match Hashtbl.find_opt o.snapshots hash with
      | Some e when e = ep -> Hashtbl.remove o.snapshots hash
      | Some _ | None -> ()
    end
    else continue := false
  done

(* --- transports --------------------------------------------------------- *)
(* How member messages travel between members, built once per run from
   [cfg.backend]. [send] returns the payload's encoded size, so both
   transports count the same member-level [bytes]; [deliver_due] hands
   over, in (time, seq) order, every frame due by the given time,
   advancing the shared clock to each; [step] is a member's tick;
   [spawn]/[despawn] follow a member's lifetime; [end_tick] runs after
   every member has stepped; [retransmits] is the run's go-back-N total. *)

type transport = {
  send : src:int -> dst:int -> Payload.t -> int;
  deliver_due : float -> unit;
  step : int -> Member.t -> unit;
  spawn : int -> Member.t -> unit;
  despawn : int -> unit;
  end_tick : unit -> unit;
  retransmits : unit -> int;
}

type hop = { src : int; dst : int; frame : bytes }  (* a frame in flight *)

let no_hop = { src = 0; dst = 0; frame = Bytes.empty }
let latency rng = 0.35 +. Rng.float rng 0.3

let drain heap now until deliver =
  while (not (Heap.is_empty heap)) && Heap.min_time heap <= until do
    now := Heap.min_time heap;
    deliver (Heap.pop heap)
  done

(* The certification path: every payload is wire-encoded and decoded
   (so the codec is exercised on every hop), and the transport itself
   applies the fault plan's link fate (partition cut, cap, loss coin). *)
let direct_transport (cfg : config) ~members ~deliver ~now ~dropped_loss ~dropped_dead =
  let rng = Rng.substream ~seed:cfg.seed ~index:0x11e7 in
  let windows = Fault.windows () in
  let heap = Heap.create ~dummy:no_hop in
  let deliver hop =
    match members.(hop.dst) with
    | None -> incr dropped_dead
    | Some m -> (
      match Wire.decode ~universe:cfg.cap hop.frame ~off:0 ~len:(Bytes.length hop.frame) with
      | Ok payload -> deliver m ~src:hop.src ~now:!now payload
      | Error msg -> failwith ("Service.run: wire decode failed: " ^ msg))
  in
  {
    send =
      (fun ~src ~dst payload ->
        let frame = Wire.encode Wire.Adaptive ~universe:cfg.cap ~room:0 payload in
        let link = Fault.link_between cfg.fault ~src ~dst in
        (match Fault.fate cfg.fault windows rng ~src ~dst ~time:!now link with
        | Some _ -> incr dropped_loss
        | None ->
          Heap.push heap (!now +. latency rng +. float_of_int link.Fault.delay) { src; dst; frame });
        Bytes.length frame);
    deliver_due = (fun until -> drain heap now until deliver);
    step = (fun _ m -> Member.step m ~now:!now);
    spawn = (fun _ _ -> ());
    despawn = ignore;
    end_tick = ignore;
    retransmits = (fun () -> 0);
  }

(* Every member lives inside an (unmodified) {!Node_core}: its messages
   ride the full wire stack — envelope framing + CRC, per-link go-back-N
   with retransmission, the seeded fault shim for loss/delay/partitions —
   and the transport delivers encoded frames, not payloads. The shim
   drops silently and the reliability layer re-sends, so [dropped_loss]
   stays 0 here. The core's own trace events are discarded (the service
   emits the canonical lifecycle itself), and its completion report goes
   nowhere: the service has no notion of a finished run. *)
let hosted_transport (cfg : config) ~deliver ~now ~dropped_dead =
  let cap = cfg.cap in
  let labels = Array.init cap Fun.id in
  let rng = Rng.substream ~seed:cfg.seed ~index:0x11e7 in
  let heap = Heap.create ~dummy:no_hop in
  let cores : Node_core.t option array = Array.make cap None in
  let memo = Node_core.memo ~n:cap in
  let ever_lived = Array.make cap false in
  let healing = Array.make cap false in
  (* go-back-N re-sends of cores already despawned *)
  let retired_retransmits = ref 0 in
  let spawn id m =
    let algo =
      {
        Algorithm.name = "service-member";
        description = "continuous-service member hosted on a node core";
        make =
          (fun ctx ->
            (* the member, not the ctx, is the protocol state: the
               core's round/receive hooks just forward to it on the
               service's clock. The core's knowledge is the ctx's own
               (the member's self), so a hello it answers carries one id,
               not a snapshot of the view the member would drop. *)
            {
              Algorithm.knowledge = Algorithm.initial_knowledge ctx;
              round = (fun ~round:_ ~send:_ -> Member.step m ~now:!now);
              receive = (fun ~src payload -> deliver m ~src ~now:!now payload);
              is_quiescent = Algorithm.never_quiescent;
            });
      }
    in
    let acts =
      {
        Node_core.emit = None;
        xmit =
          (fun ~now:sent_at ~dst frame ->
            Heap.push heap (sent_at +. latency rng) { src = id; dst; frame });
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
          fault = cfg.fault;
          announce = false;
        }
        acts ~labels ~memo ~links_up:true ~now:!now
    in
    Node_core.forget memo ~node:id;
    cores.(id) <- Some core;
    if ever_lived.(id) then begin
      (* A reborn id must void the go-back-N state peers still hold
         about its predecessor (their stale cumulative-ack marks would
         silently eat the fresh incarnation's low sequence numbers):
         greet every live peer, and keep re-greeting — see [heal_links]
         — until each peer's dead link has demonstrably been revived,
         since any single hello can be lost. *)
      for p = 0 to cap - 1 do
        if p <> id && cores.(p) <> None then Node_core.greet core ~now:!now ~dst:p
      done;
      healing.(id) <- true
    end;
    ever_lived.(id) <- true
  in
  let despawn id =
    match cores.(id) with
    | None -> ()
    | Some core ->
      retired_retransmits := !retired_retransmits + (Node_core.final core).Control.retransmits;
      cores.(id) <- None;
      healing.(id) <- false;
      (* every peer writes the departed id off at once, so go-back-N
         stops retransmitting into the void; a later rebirth revives the
         links via its greeting hellos *)
      for p = 0 to cap - 1 do
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
  let deliver hop =
    match cores.(hop.dst) with
    | None -> incr dropped_dead
    | Some core -> Node_core.receive core ~now:!now hop.frame
  in
  {
    send =
      (fun ~src ~dst payload ->
        (* the core encodes the payload once and returns its body size;
           a member only sends while its core is alive *)
        match cores.(src) with
        | Some core -> Node_core.send core ~now:!now ~dst payload
        | None -> 0);
    deliver_due = (fun until -> drain heap now until deliver);
    step =
      (fun id _ ->
        match cores.(id) with
        | Some core ->
          (* the core runs the member's step through its round hook, and
             owns retransmission timeouts and held fault-shim frames *)
          Node_core.flush_faults core ~now:!now;
          Node_core.tick core ~now:!now;
          Node_core.pump core ~now:!now
        | None -> ());
    spawn;
    despawn;
    end_tick = heal_links;
    retransmits =
      (fun () ->
        Array.fold_left
          (fun acc -> function
            | Some core -> acc + (Node_core.final core).Control.retransmits
            | None -> acc)
          !retired_retransmits cores);
  }

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

(* A scheduled membership change. A tick's (change, id) pairs apply in
   [change_order]: its joins, then its leaves, then its crashes, each
   in ascending id order. *)
type change = Join | Leave | Crash

let change_rank = function Join -> 0 | Leave -> 1 | Crash -> 2

let change_order (c, a) (d, b) =
  match Int.compare (change_rank c) (change_rank d) with 0 -> Int.compare a b | o -> o

let run cfg =
  validate cfg;
  let cap = cfg.cap in
  let fault = cfg.fault in
  let lossy = Fault.has_link_faults fault || Fault.partitions fault <> [] in
  (* The periodic digest sync is the backstop for every way an update can
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
  let members = Array.make cap None in
  let now = ref 0.0 in
  let dropped_loss = ref 0 and dropped_dead = ref 0 in
  (* [true] while a member handles a joiner's bootstrap request: the
     full [Reply] it sends then is a bootstrap reply, not the second
     half of a sync repair, though the two are the same payload *)
  let answering_bootstrap = ref false in
  let deliver m ~src ~now payload =
    (answering_bootstrap :=
       match (payload : Payload.t) with
       | Exchange (Payload.Updates u) -> not u.full
       | Exchange _ | Share _ | Reply _ | Probe | Halt | Probe_req _ | Probe_ack _ | Suspicion _
       | Sync _ ->
         false);
    Member.deliver m ~src ~now payload;
    answering_bootstrap := false
  in
  let transport =
    match cfg.backend with
    | None -> direct_transport cfg ~members ~deliver ~now ~dropped_loss ~dropped_dead
    | Some Backend.Mux -> hosted_transport cfg ~deliver ~now ~dropped_dead
    | Some (Backend.Process _) ->
      invalid_arg
        "Service.run: process backends fork one OS process per node; the multiplexed service \
         runs on the direct transport or mux"
  in
  let obs = observer ~seed:cfg.seed ~cap ~bound trace in
  let counts = Array.make cap 0 in
  (* the true membership: the observer hashes it, the churn driver draws
     contacts and departures from it *)
  let live = Pool.create ~cap in
  let retired = Pool.create ~cap in
  let fresh = Pool.create ~cap in
  let churn_rng = Rng.substream ~seed:cfg.seed ~index:0xc511 in
  let spawns = ref 0 in
  let epoch = ref 0 in
  let joins = ref 0 and leaves = ref 0 and crashes = ref 0 in
  let suspicions = ref 0 and retirements = ref 0 in
  let false_suspicions = ref 0 and false_retirements = ref 0 in
  let msgs = ref 0 and bytes = ref 0 in
  let probe_bytes = ref 0 and gossip_bytes = ref 0 and digest_bytes = ref 0 in
  let full_state_bytes = ref 0 and bootstrap_bytes = ref 0 in
  let probes = ref 0 and acks = ref 0 and gossip = ref 0 and update_entries = ref 0 in
  let probe_reqs = ref 0 and probe_acks = ref 0 and suspicion_msgs = ref 0 in
  let full_syncs = ref 0 and sync_repairs = ref 0 and bootstraps = ref 0 in

  (* Counts one sent message and returns the byte counter of its class:
     the failure detector (probes, their acks with piggybacked entries,
     indirect probes, suspicion claims), gossip pushes, sync digests,
     the whole-view batches of a sync whose digests differed, and a
     joiner's bootstrap request and the replies to it. *)
  let count counter class_bytes =
    incr counter;
    class_bytes
  in
  let classify payload =
    match (payload : Payload.t) with
    | Probe -> count probes probe_bytes
    | Probe_req _ -> count probe_reqs probe_bytes
    | Probe_ack _ -> count probe_acks probe_bytes
    | Suspicion _ -> count suspicion_msgs probe_bytes
    | Sync _ -> count full_syncs digest_bytes
    | Exchange (Payload.Updates u) ->
      (* a sync repair pushes the whole view, a bootstrap request only
         the joiner's self-announcement *)
      if u.full then count sync_repairs full_state_bytes else count bootstraps bootstrap_bytes
    | Reply (Payload.Updates u) when not u.full ->
      update_entries := !update_entries + u.count;
      count acks probe_bytes
    | Reply (Payload.Updates _) ->
      if !answering_bootstrap then count bootstraps bootstrap_bytes else full_state_bytes
    | Share (Payload.Updates u) ->
      update_entries := !update_entries + u.count;
      count gossip gossip_bytes
    | Share _ | Exchange _ | Reply _ | Halt ->
      (* one-shot discovery payloads: a member never sends them *)
      gossip_bytes
  in
  let actions_for self =
    {
      Member.send =
        (fun ~dst payload ->
          incr msgs;
          let class_bytes = classify payload in
          let size = transport.send ~src:self ~dst payload in
          class_bytes := !class_bytes + size;
          bytes := !bytes + size);
      on_suspect =
        (fun ~target ->
          incr suspicions;
          if Pool.mem live target then incr false_suspicions;
          Trace.emit trace (Trace.Suspect { node = self; target }));
      on_retire =
        (fun ~target ->
          incr retirements;
          if Pool.mem live target then incr false_retirements;
          Trace.emit trace (Trace.Retire { node = self; target }));
      on_view_change =
        (fun ~target ~alive:_ ->
          if members.(self) <> None then begin
            obs.vhash.(self) <- obs.vhash.(self) lxor obs.zob.(target);
            try_converge obs self
          end);
    }
  in
  let member_rng () =
    incr spawns;
    Rng.substream ~seed:cfg.seed ~index:(0x3e0 + !spawns)
  in
  let converged_sweep () =
    for id = 0 to cap - 1 do
      if members.(id) <> None then try_converge obs id
    done
  in

  (* --- the churn driver ------------------------------------------------ *)
  (* a membership change after genesis: the epoch counter mirrors the lag
     checker's, which starts bumping once the first tick has been
     emitted — always true here *)
  let change_epoch id =
    incr epoch;
    toggle obs id;
    record_snapshot obs ~now:!now !epoch
  in
  let join ~id ~contacts =
    Trace.emit trace (Trace.Join { node = id });
    incr joins;
    change_epoch id;
    Pool.remove fresh id;
    Pool.remove retired id;
    Pool.add live id;
    let m =
      Member.create_joiner ~cap ~self:id ~contacts ~rng:(member_rng ()) ~full_sync
        ~indirect_k:cfg.indirect_k ~lifeguard:cfg.lifeguard (actions_for id)
    in
    members.(id) <- Some m;
    counts.(id) <- 0;
    transport.spawn id m;
    reset_view obs id m;
    converged_sweep ()
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
      members.(id) <- None;
      transport.despawn id;
      Pool.remove live id;
      Pool.add retired id;
      change_epoch id;
      converged_sweep ()
  in

  (* genesis: ids [0 .. n-1] minus scheduled joiners, each knowing all
     the others, as epoch 0 *)
  let joins_late id = Fault.join_round fault ~node:id > 1 in
  let founders = List.filter (fun id -> not (joins_late id)) (List.init cfg.n Fun.id) in
  let founders = Array.of_list founders in
  if Array.length founders < 2 then invalid_arg "Service.run: fewer than two founding members";
  for id = cfg.n to cap - 1 do
    if not (joins_late id) then Pool.add fresh id
  done;
  Array.iter
    (fun id ->
      Trace.emit trace (Trace.Join { node = id });
      toggle obs id;
      Pool.add live id;
      let m =
        Member.create_genesis ~cap ~self:id ~peers:founders ~rng:(member_rng ())
          ~full_sync ~indirect_k:cfg.indirect_k ~lifeguard:cfg.lifeguard (actions_for id)
      in
      members.(id) <- Some m)
    founders;
  record_snapshot obs ~now:!now 0;
  Array.iter (fun id -> Option.iter (reset_view obs id) members.(id)) founders;
  Array.iter (fun id -> Option.iter (transport.spawn id) members.(id)) founders;

  (* the fault plan's joins (and restarts), leaves and crashes, by tick *)
  let schedule = Hashtbl.create 8 in
  let at change (node, round) =
    if node < cap then
      Hashtbl.replace schedule round
        ((change, node) :: Option.value (Hashtbl.find_opt schedule round) ~default:[])
  in
  List.iter (fun (node, round) -> if round > 1 then at Join (node, round)) (Fault.joining_nodes fault);
  List.iter (at Join) (Fault.restarting_nodes fault);
  List.iter (at Leave) (Fault.leaving_nodes fault);
  List.iter (at Crash) (Fault.crashed_nodes fault);

  (* up to three distinct live contacts for a joiner: a single contact
     can churn out mid-bootstrap, stranding the joiner on a dead address
     with no live peer in its view to re-aim at *)
  let random_contacts ~avoid =
    let want = 3 in
    let picked = ref [] and n_picked = ref 0 and attempts = ref (8 * want) in
    while !n_picked < want && !attempts > 0 do
      decr attempts;
      match Pool.draw live churn_rng with
      | Some c when c <> avoid && not (Intvec.mem_list c !picked) ->
        picked := c :: !picked;
        incr n_picked
      | Some _ | None -> ()
    done;
    if !picked = [] then None else Some (Array.of_list (List.rev !picked))
  in
  let try_join id =
    if members.(id) = None then
      match random_contacts ~avoid:id with
      | Some contacts -> join ~id ~contacts
      | None -> ()
  in
  let apply_scheduled tick =
    List.iter
      (function
        | Join, id -> try_join id
        | Leave, id -> depart ~id ~graceful:true
        | Crash, id -> depart ~id ~graceful:false)
      (List.sort change_order (Option.value (Hashtbl.find_opt schedule tick) ~default:[]))
  in
  let apply_churn tick =
    match cfg.churn with
    | Some c when tick <= c.until ->
      if Rng.bernoulli churn_rng ~p:(c.rate /. 2.0) then begin
        (* fresh ids first, then the retired pool (restarts) *)
        match Pool.draw fresh churn_rng with
        | Some id -> try_join id
        | None -> Option.iter try_join (Pool.draw retired churn_rng)
      end;
      let churn_out ~graceful =
        if Rng.bernoulli churn_rng ~p:(c.rate /. 4.0) && Pool.size live > c.min_live then
          Option.iter (fun id -> depart ~id ~graceful) (Pool.draw live churn_rng)
      in
      churn_out ~graceful:true;
      churn_out ~graceful:false
    | Some _ | None -> ()
  in

  (* --- main loop ------------------------------------------------------- *)
  (* The lag checker needs only the time from a [Tick]: it acts on the
     first one of each tick (moving its clock and judging the open
     epochs) and ignores the rest. With no outside sink, [trace] is the
     checker alone, so only the first live member's [Tick] is built; an
     outside sink still sees every member's. *)
  let member_ticks = not (Trace.is_null cfg.trace) in
  for tick = 1 to cfg.ticks do
    let tick_time = float_of_int tick in
    transport.deliver_due tick_time;
    now := tick_time;
    let ticked = ref false in
    for id = 0 to cap - 1 do
      match members.(id) with
      | None -> ()
      | Some m ->
        if member_ticks || not !ticked then begin
          ticked := true;
          counts.(id) <- counts.(id) + 1;
          Trace.emit trace (Trace.Tick { node = id; time = tick_time; count = counts.(id) })
        end;
        transport.step id m
    done;
    transport.end_tick ();
    apply_scheduled tick;
    apply_churn tick;
    prune_snapshots obs ~now:tick_time
  done;
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
    probe_bytes = !probe_bytes;
    gossip_bytes = !gossip_bytes;
    digest_bytes = !digest_bytes;
    full_state_bytes = !full_state_bytes;
    bootstrap_bytes = !bootstrap_bytes;
    probes = !probes;
    acks = !acks;
    gossip = !gossip;
    update_entries = !update_entries;
    full_syncs = !full_syncs;
    sync_repairs = !sync_repairs;
    bootstraps = !bootstraps;
    dropped_loss = !dropped_loss;
    dropped_dead = !dropped_dead;
    probe_reqs = !probe_reqs;
    probe_acks = !probe_acks;
    suspicion_msgs = !suspicion_msgs;
    false_suspicions = !false_suspicions;
    false_retirements = !false_retirements;
    retransmits = transport.retransmits ();
    snapshots_peak = obs.snapshots_peak;
    lag_table_peak = Trace.Lag.table_peak lag;
  }

let stats_to_json s =
  Printf.sprintf
    "{\"ticks\":%d,\"cap\":%d,\"founders\":%d,\"final_live\":%d,\"joins\":%d,\"leaves\":%d,\"crashes\":%d,\"suspicions\":%d,\"retirements\":%d,\"epochs\":%d,\"epochs_closed\":%d,\"max_lag\":%.12g,\"msgs\":%d,\"bytes\":%d,\"probe_bytes\":%d,\"gossip_bytes\":%d,\"digest_bytes\":%d,\"full_state_bytes\":%d,\"bootstrap_bytes\":%d,\"probes\":%d,\"acks\":%d,\"gossip\":%d,\"update_entries\":%d,\"full_syncs\":%d,\"sync_repairs\":%d,\"bootstraps\":%d,\"dropped_loss\":%d,\"dropped_dead\":%d,\"probe_reqs\":%d,\"probe_acks\":%d,\"suspicion_msgs\":%d,\"false_suspicions\":%d,\"false_retirements\":%d,\"retransmits\":%d,\"snapshots_peak\":%d,\"lag_table_peak\":%d}"
    s.ticks_run s.cap s.founders s.final_live s.joins s.leaves s.crashes s.suspicions
    s.retirements s.epochs s.epochs_closed s.max_lag s.msgs s.bytes s.probe_bytes s.gossip_bytes
    s.digest_bytes s.full_state_bytes s.bootstrap_bytes s.probes s.acks s.gossip s.update_entries
    s.full_syncs s.sync_repairs s.bootstraps s.dropped_loss s.dropped_dead s.probe_reqs
    s.probe_acks s.suspicion_msgs s.false_suspicions s.false_retirements s.retransmits
    s.snapshots_peak s.lag_table_peak
