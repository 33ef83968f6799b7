open Repro_util

type 'msg handlers = {
  round_begin : node:int -> round:int -> send:(dst:int -> 'msg -> unit) -> unit;
  deliver : node:int -> src:int -> round:int -> 'msg -> unit;
}

type config = {
  max_rounds : int;
  fault : Fault.t;
  engine_seed : int;
  trace : Trace.sink;
  jobs : int;
}

let default_config =
  { max_rounds = 10_000; fault = Fault.none; engine_seed = 0; trace = Trace.null; jobs = 1 }

type outcome = { completed : bool; rounds : int; metrics : Metrics.t; alive : bool array }

(* Deliveries are walked one destination block at a time: a shard's
   nodes split into blocks of [delivery_block], counted from the shard's
   first node. Within a block every receiver's state stays in cache
   while one sender's payload fans out to the block's nodes. The size
   is measured (EXPERIMENTS.md "Delivery by destination block"): hm at
   n = 17,408 slows steadily from 2^6 to 2^12 nodes per block, and
   2^3 to 2^5 were no faster than 2^6. One block for every node would
   be the send order plus the cost of the index. *)
let block_bits = 6
let delivery_block = 1 lsl block_bits

(* the delivery index: 4-byte global slot numbers in a [Bytes] block the
   GC does not scan *)
external get_slot : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set_slot : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

(* One round loop at every job count. The nodes are split into [jobs]
   contiguous shards, run by a persistent domain team (at [jobs = 1] the
   team is just the calling domain), and every round has three phases:

   - send (per shard): shard s runs [round_begin] for its alive nodes
     [s*chunk, (s+1)*chunk), pushing raw messages into its own outbox —
     no accounting, no tracing, no shared writes. The outboxes in shard
     order hold the canonical send order: node order.

   - accounting and resolution (coordinator): walk the outboxes in that
     order emitting Send events and metrics; release the delayed
     messages now due into a small side buffer; then decide each
     message's fate (liveness, then {!Fault.fate}, then delay) in the
     canonical order on the engine's loss stream, emitting Drop events,
     or Deliver events followed by [on_deliver]. A message that is
     dropped or held back by a delay is cancelled in its outbox. Last,
     a counting sort on destination block indexes the surviving slots:
     slots are numbered side buffer first, then the outboxes in shard
     order, and the sort is stable, so within a block the index keeps
     that canonical order. Messages stay where they were pushed; the
     index holds 4 bytes per survivor.

   - delivery (per shard): shard s walks its own blocks' run of the
     index and applies [handlers.deliver] to each slot it names. Each
     node receives in canonical order, released messages first;
     deliveries to different nodes commute because a deliver handler
     touches only its own node's state (payloads are immutable
     snapshots; see {!Repro_util.Cset.freeze}).

   Every trace event, metric and RNG draw happens on the coordinator in
   the canonical order, so a run is byte-identical at any [jobs]. The
   team barrier between phases orders each phase's writes before the
   next phase's reads. *)
let run ~n ~config ~handlers ~measure ?(measure_bytes = fun _ -> 0) ~stop
    ?(on_round_end = fun ~round:_ -> ()) ?(on_restart = fun ~node:_ -> ())
    ?(on_deliver = fun ~src:_ ~dst:_ _ -> ()) () =
  if n < 0 then invalid_arg "Sim.run: negative node count";
  if config.max_rounds < 0 then invalid_arg "Sim.run: negative round budget";
  let alive = Array.make n true in
  let metrics = Metrics.create () in
  let loss_rng = Rng.substream ~seed:config.engine_seed ~index:0x10ad in
  let fault = config.fault in
  let has_delays = Fault.has_delays fault in
  let windows = Fault.windows () in
  (* messages held by delayed links, (release_round, src, dst, payload)
     newest first; they outlive the outboxes, which are cleared per round *)
  let pending = ref [] in
  let schedule pairs ~default =
    let at = Array.make n default in
    List.iter (fun (node, round) -> if node < n then at.(node) <- round) pairs;
    at
  in
  let crash_at = schedule (Fault.crashed_nodes fault) ~default:max_int in
  let restart_at = schedule (Fault.restarting_nodes fault) ~default:max_int in
  let join_at = schedule (Fault.joining_nodes fault) ~default:1 in
  Array.iteri (fun v round -> if round > 1 then alive.(v) <- false) join_at;
  let is_alive v = v >= 0 && v < n && alive.(v) in
  let completed = ref (stop ~round:0 ~alive:is_alive) in
  let round = ref 0 in
  (* the round as the fault plan's clock, boxed once per round *)
  let now = ref 0.0 in
  (* tracing is observational only: no RNG draw, metric or delivery
     depends on it, and with the null sink no event is even constructed *)
  let trace = config.trace in
  let tracing = not (Trace.is_null trace) in
  (* join and crash-stop transitions happen at the start of the round; a
     crash scheduled at or before a node's join round wins *)
  let transitions r =
    for v = 0 to n - 1 do
      if join_at.(v) = r && crash_at.(v) > r then begin
        alive.(v) <- true;
        if tracing then Trace.emit trace (Trace.Join { node = v })
      end;
      if crash_at.(v) = r then begin
        alive.(v) <- false;
        if tracing then Trace.emit trace (Trace.Crash { node = v })
      end;
      (* a restart revives the node with its initial state; the restart
         round is constrained to come strictly after the crash round *)
      if restart_at.(v) = r then begin
        alive.(v) <- true;
        if tracing then Trace.emit trace (Trace.Join { node = v });
        on_restart ~node:v
      end
    done
  in
  let team = Pool.Team.create ~members:(min (max 1 config.jobs) (max 1 n)) in
  (* the team may cap its size: one shard per member *)
  let jobs = Pool.Team.members team in
  let chunk = max 1 ((n + jobs - 1) / jobs) in
  let outboxes : 'msg Outbox.t array = Array.init jobs (fun _ -> Outbox.create ()) in
  (* delayed messages released this round; they deliver first *)
  let released : 'msg Outbox.t = Outbox.create () in
  (* every buffer in slot order; [bases.(k)] is the round's number for
     [boxes.(k)]'s slot 0, and the last base is the round's slot count *)
  let boxes = Array.append [| released |] outboxes in
  let bases = Array.make (jobs + 2) 0 in
  let per_shard = (chunk + delivery_block - 1) lsr block_bits in
  let block_of dst =
    let s = dst / chunk in
    (s * per_shard) + ((dst - (s * chunk)) lsr block_bits)
  in
  (* survivors per block, then each block's start in [index] and, once
     the slots are placed, its end *)
  let bounds = Array.make (jobs * per_shard) 0 in
  let index = ref Bytes.empty in
  (* one send closure per node for the whole run, pushing into its
     shard's outbox — building them inside the round loop would put n
     closures per round on the minor heap *)
  let senders =
    Array.init n (fun v ->
        let outbox = outboxes.(v / chunk) in
        fun ~dst payload ->
          if dst < 0 || dst >= n then invalid_arg "Sim.send: destination out of range";
          Outbox.push outbox ~src:v ~dst payload)
  in
  (* The coordinator's per-message closures are hoisted out of the round
     loop (they read the current round through refs), so a steady-state
     round allocates nothing. *)
  let account src dst payload =
    let pointers = measure payload and bytes = measure_bytes payload in
    Metrics.record_send metrics ~pointers ~bytes;
    if tracing then Trace.emit trace (Trace.Send { src; dst; pointers; bytes })
  in
  let drop src dst reason =
    Metrics.record_drop metrics;
    if tracing then Trace.emit trace (Trace.Drop { src; dst; reason })
  in
  let drop_dead src dst =
    drop src dst (if crash_at.(dst) <= !round then Trace.Dead_dst else Trace.Unjoined_dst)
  in
  (* a survivor's Deliver event, metric and hook come at resolution, in
     the canonical order; its handler runs in the delivery phase *)
  let delivered src dst payload =
    Metrics.record_delivery metrics;
    if tracing then Trace.emit trace (Trace.Deliver { src; dst });
    on_deliver ~src ~dst payload
  in
  (* released messages already passed the link's fate at send time;
     only liveness is re-checked *)
  let release_due r =
    let due, held = List.partition (fun (rel, _, _, _) -> rel <= r) !pending in
    pending := held;
    List.iter
      (fun (_, src, dst, payload) ->
        if not alive.(dst) then drop_dead src dst
        else begin
          delivered src dst payload;
          Outbox.push released ~src ~dst payload
        end)
      (List.rev due)
  in
  (* [true] keeps the message for this round's delivery phase *)
  let resolve src dst payload =
    if not alive.(dst) then begin
      drop_dead src dst;
      false
    end
    else
      let lk = Fault.link_between fault ~src ~dst in
      match Fault.fate fault windows loss_rng ~src ~dst ~time:!now lk with
      | Some reason ->
        drop src dst reason;
        false
      | None ->
        if lk.Fault.delay > 0 then begin
          pending := (!round + lk.Fault.delay, src, dst, payload) :: !pending;
          false
        end
        else begin
          delivered src dst payload;
          true
        end
  in
  let send_phase s =
    let lo = s * chunk in
    for v = lo to min n (lo + chunk) - 1 do
      if alive.(v) then handlers.round_begin ~node:v ~round:!round ~send:senders.(v)
    done
  in
  let index_survivors () =
    Array.fill bounds 0 (Array.length bounds) 0;
    let slots = ref 0 in
    for k = 0 to jobs do
      let box = boxes.(k) in
      bases.(k) <- !slots;
      slots := !slots + Outbox.length box;
      for i = 0 to Outbox.length box - 1 do
        let dst = Outbox.dst box i in
        if dst >= 0 then begin
          let b = block_of dst in
          bounds.(b) <- bounds.(b) + 1
        end
      done
    done;
    bases.(jobs + 1) <- !slots;
    if !slots > Int32.to_int Int32.max_int then failwith "Sim.run: over 2^31 messages in a round";
    let survivors = ref 0 in
    for b = 0 to Array.length bounds - 1 do
      let c = bounds.(b) in
      bounds.(b) <- !survivors;
      survivors := !survivors + c
    done;
    if Bytes.length !index < 4 * !survivors then
      index := Bytes.create (4 * max !survivors (Bytes.length !index / 2));
    let index = !index in
    for k = 0 to jobs do
      let box = boxes.(k) in
      for i = 0 to Outbox.length box - 1 do
        let dst = Outbox.dst box i in
        if dst >= 0 then begin
          let b = block_of dst in
          let at = bounds.(b) in
          set_slot index (4 * at) (Int32.of_int (bases.(k) + i));
          bounds.(b) <- at + 1
        end
      done
    done
  in
  let deliver_phase s =
    let first = s * per_shard in
    let lo = if first = 0 then 0 else bounds.(first - 1) in
    let hi = bounds.(first + per_shard - 1) in
    let index = !index in
    (* the buffer of the slot last delivered; a block restarts at the
       side buffer *)
    let k = ref 0 in
    for j = lo to hi - 1 do
      let slot = Int32.to_int (get_slot index (4 * j)) in
      if slot < bases.(!k) then k := 0;
      while slot >= bases.(!k + 1) do
        incr k
      done;
      let box = boxes.(!k) and i = slot - bases.(!k) in
      handlers.deliver ~node:(Outbox.dst box i) ~src:(Outbox.src box i) ~round:!round
        (Outbox.msg box i)
    done
  in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () ->
      while (not !completed) && !round < config.max_rounds do
        incr round;
        let r = !round in
        now := float_of_int r;
        if tracing then Trace.emit trace (Trace.Round_begin { round = r });
        Metrics.begin_round metrics;
        transitions r;
        (* all sends are computed from start-of-round state *)
        Array.iter Outbox.clear outboxes;
        Pool.Team.run team send_phase;
        Array.iter (fun outbox -> Outbox.iter outbox account) outboxes;
        Outbox.clear released;
        if has_delays then release_due r;
        Array.iter (fun outbox -> Outbox.filter outbox resolve) outboxes;
        index_survivors ();
        Pool.Team.run team deliver_phase;
        on_round_end ~round:r;
        if stop ~round:r ~alive:is_alive then completed := true
      done);
  if tracing then begin
    Trace.emit trace (if !completed then Trace.Complete else Trace.Give_up);
    Trace.flush trace
  end;
  { completed = !completed; rounds = !round; metrics; alive }
