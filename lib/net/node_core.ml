open Repro_engine
open Repro_discovery

let hello_interval = 50
let done_interval = 5

type config = {
  node : int;
  n : int;
  algo : Algorithm.t;
  seed : int;
  neighbors : int array;
  tick_period : float;
  rto : float;
  fault : Fault.t;
  announce : bool;
  fleet_halt : bool;
}

type actions = {
  emit : (now:float -> Trace.event -> unit) option;
  xmit : now:float -> dst:int -> bytes -> unit;
  notify_complete : now:float -> tick:int -> unit;
  wake : dst:int -> unit;
}

type status = Up | Down | Dead

(* Outgoing link to one peer. Data frames live in the send ring from
   the moment they are sent until the peer's cumulative ack covers
   them: [held] frames from slot [head] (capacity a power of two),
   oldest first, each the buffer [Wire.encode] made with envelope room
   and the tick [stamps] it was sent at. Transmission seals a frame's
   header in place, so sequence numbers and piggybacked acks are always
   current. Frames are transmitted oldest first and all together, so
   the ones already transmitted since the last reset are the front
   [txed], and those whose buffer has been lent to the transport (and
   may no more be written) the front [lent]. [base_seq] is the sequence
   number of the front frame. *)
(* all-float, so the field is stored unboxed: setting it allocates nothing *)
type deadline = { mutable at : float }

type link = {
  mutable status : status;
  mutable frames : bytes array;
  mutable stamps : int array;
  mutable head : int;
  mutable held : int;
  mutable txed : int;
  mutable lent : int;
  mutable base_seq : int;
  rto : deadline;
  mutable recv_cum : int;  (** highest contiguous data seq received from this peer *)
  mutable recv_early : int list;  (** seqs above [recv_cum + 1] already delivered (gap pending) *)
  mutable ack_owed : bool;
  mutable hello_owed : bool;
  mutable done_owed : bool;
  mutable peer_done : bool;  (** peer has signalled complete knowledge *)
}

let new_link status =
  {
    status;
    frames = [||];
    stamps = [||];
    head = 0;
    held = 0;
    txed = 0;
    lent = 0;
    base_seq = 1;
    rto = { at = infinity };
    recv_cum = 0;
    recv_early = [];
    ack_owed = false;
    hello_owed = false;
    done_owed = false;
    peer_done = false;
  }

(* ring slot of the [i]-th frame from the front *)
let slot link i = (link.head + i) land (Array.length link.frames - 1)

let push_frame link frame ~stamp =
  let cap = Array.length link.frames in
  if link.held = cap then begin
    let ncap = max 4 (2 * cap) in
    let frames = Array.make ncap Bytes.empty and stamps = Array.make ncap 0 in
    for i = 0 to link.held - 1 do
      let s = slot link i in
      frames.(i) <- link.frames.(s);
      stamps.(i) <- link.stamps.(s)
    done;
    link.frames <- frames;
    link.stamps <- stamps;
    link.head <- 0
  end;
  let s = slot link link.held in
  link.frames.(s) <- frame;
  link.stamps.(s) <- stamp;
  link.held <- link.held + 1

let pop_frame link =
  link.frames.(link.head) <- Bytes.empty;
  link.head <- slot link 1;
  link.held <- link.held - 1;
  if link.txed > 0 then link.txed <- link.txed - 1;
  if link.lent > 0 then link.lent <- link.lent - 1

(* What an untouched link reads as, per initial status. Read-only: only
   the non-creating accessors ever return these, and they never write. *)
let untouched_up = new_link Up
let untouched_down = new_link Down

(* Links are created on first use, so a core costs O(peers it talks to),
   not O(n): [peers] holds the touched ids ascending, [links.(i)] the
   link to [peers.(i)], both valid below [nlinks]. Walking them in index
   order is the ascending-id order a dense table would give. *)
type t = {
  cfg : config;
  acts : actions;
  inst : Algorithm.instance;
  untouched : link;
  mutable peers : int array;
  mutable links : link array;
  mutable nlinks : int;
  fn : Faultnet.t option;
  byz : int list;  (** ids this node fabricates into every data payload *)
  tracing : bool;  (** [acts.emit] is live: trace events are built only then *)
  auditing : bool;
  mutable tick_count : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable pointers : int;
  mutable bytes : int;
  mutable decode_errors : int;
  mutable retransmits : int;
  mutable corrupt_frames : int;
  mutable complete_tick : int option;
  mutable complete_announced : bool;
  mutable done_known : int;  (** peers currently marked [peer_done] *)
  mutable last_activity : float;
}

let tick_count t = t.tick_count
let instance t = t.inst
let is_complete t = t.complete_announced
let last_activity t = t.last_activity
let fleet_done t = t.complete_announced && t.done_known = t.cfg.n - 1

(* index of the first touched id >= [dst] *)
let lower_bound t dst =
  let lo = ref 0 and hi = ref t.nlinks in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.peers.(mid) < dst then lo := mid + 1 else hi := mid
  done;
  !lo

(* The link to [dst] for reading: an untouched link is not created. *)
let peek t dst =
  let i = lower_bound t dst in
  if i < t.nlinks && t.peers.(i) = dst then t.links.(i) else t.untouched

(* The link to [dst] for writing, created on first use. *)
let touch t dst =
  let i = lower_bound t dst in
  if i < t.nlinks && t.peers.(i) = dst then t.links.(i)
  else begin
    if dst < 0 || dst >= t.cfg.n then invalid_arg "Node_core: peer out of range";
    if t.nlinks = Array.length t.peers then begin
      let cap = max 4 (2 * t.nlinks) in
      let peers = Array.make cap 0 and links = Array.make cap t.untouched in
      Array.blit t.peers 0 peers 0 t.nlinks;
      Array.blit t.links 0 links 0 t.nlinks;
      t.peers <- peers;
      t.links <- links
    end;
    Array.blit t.peers i t.peers (i + 1) (t.nlinks - i);
    Array.blit t.links i t.links (i + 1) (t.nlinks - i);
    let l = new_link t.untouched.status in
    t.peers.(i) <- dst;
    t.links.(i) <- l;
    t.nlinks <- t.nlinks + 1;
    l
  end

let link_status t ~dst = (peek t dst).status

let wants_link t ~dst =
  let link = peek t dst in
  link.held > 0 || link.ack_owed || link.hello_owed || link.done_owed

let note_bad_frame t reason =
  if String.equal reason Envelope.crc_mismatch then t.corrupt_frames <- t.corrupt_frames + 1
  else t.decode_errors <- t.decode_errors + 1

let emit t ~now ev = match t.acts.emit with Some f -> f ~now ev | None -> ()

(* Every encoded frame to a peer passes through the fault shim when one
   is active; the shim's verdict says what goes on the wire now. *)
let queue_frame t ~now ~dst frame =
  match t.fn with
  | None -> t.acts.xmit ~now ~dst frame
  | Some fn -> (
    match Faultnet.send fn ~now ~dst frame with
    | Faultnet.Gone -> ()
    | Faultnet.Pass -> t.acts.xmit ~now ~dst frame
    | Faultnet.Queue frames -> List.iter (fun f -> t.acts.xmit ~now ~dst f) frames)

(* (Re)transmit data frames on an up link: all of them when [resend]
   (fresh connection or retransmission timeout), otherwise only frames
   never yet put on the wire. Acks ride along for free. A frame whose
   buffer was lent before is copied, and the copy sealed. *)
let transmit_data t ~now dst ~resend =
  let link = touch t dst in
  match link.status with
  | Up ->
    let first = if resend then 0 else link.txed in
    if first < link.held then begin
      for i = first to link.held - 1 do
        if i < link.txed then t.retransmits <- t.retransmits + 1;
        let s = slot link i in
        let frame = if i < link.lent then Bytes.copy link.frames.(s) else link.frames.(s) in
        Envelope.seal frame Envelope.Data ~src:t.cfg.node ~stamp:link.stamps.(s)
          ~seq:(link.base_seq + i) ~ack:link.recv_cum ~comp:t.complete_announced;
        queue_frame t ~now ~dst frame
      done;
      link.txed <- link.held;
      link.lent <- link.held;
      link.ack_owed <- false;
      link.rto.at <- now +. t.cfg.rto
    end
  | Down | Dead -> ()

(* A bare frame is its header alone, sealed once. *)
let send_bare t ~now ~dst kind ~ack =
  let link = touch t dst in
  match link.status with
  | Up ->
    let frame = Bytes.create Envelope.header_size in
    Envelope.seal frame kind ~src:t.cfg.node ~stamp:t.tick_count ~seq:0 ~ack
      ~comp:t.complete_announced;
    queue_frame t ~now ~dst frame
  | Down | Dead -> ()

(* Termination gossip: a bare frame saying "my knowledge is complete".
   It doubles as a cumulative ack (it carries one for free). *)
let send_done t ~now ~dst =
  let link = touch t dst in
  match link.status with
  | Up ->
    send_bare t ~now ~dst Envelope.Done ~ack:link.recv_cum;
    link.done_owed <- false;
    link.ack_owed <- false
  | Down ->
    link.done_owed <- true;
    t.acts.wake ~dst
  | Dead -> ()

let drop_frame t ~now dst =
  t.dropped <- t.dropped + 1;
  if t.tracing then emit t ~now (Trace.Drop { src = t.cfg.node; dst; reason = Trace.Dead_dst })

(* The runtime has given up reaching [dst]: everything queued for it is
   accounted as dropped and the link stops accepting traffic. *)
let link_dead t ~now ~dst =
  let link = touch t dst in
  while link.held > 0 do
    drop_frame t ~now dst;
    pop_frame link
  done;
  link.ack_owed <- false;
  link.hello_owed <- false;
  link.done_owed <- false;
  link.status <- Dead

let link_down t ~dst =
  match (peek t dst).status with Up -> (touch t dst).status <- Down | Down | Dead -> ()

(* The transport (re)established the path to [dst]: greet if owed, then
   assume anything unacked died in transit and resend the lot. *)
let link_up t ~now ~dst =
  let link = touch t dst in
  link.status <- Up;
  if link.hello_owed then begin
    send_bare t ~now ~dst Envelope.Hello ~ack:0;
    link.hello_owed <- false
  end;
  transmit_data t ~now dst ~resend:true;
  if link.done_owed then send_done t ~now ~dst;
  if link.ack_owed then begin
    send_bare t ~now ~dst Envelope.Ack ~ack:link.recv_cum;
    link.ack_owed <- false
  end

(* deliver a payload locally (self-sends skip the network entirely) *)
let deliver t ~now ~src payload =
  t.delivered <- t.delivered + 1;
  t.last_activity <- now;
  if t.tracing then begin
    emit t ~now (Trace.Deliver { src; dst = t.cfg.node });
    if t.auditing then
      match Adversary.payload_ids payload with
      | Some ids -> emit t ~now (Trace.Content { src; dst = t.cfg.node; ids })
      | None -> ()
  end;
  t.inst.Algorithm.receive ~src payload

let announce_if_complete t ~now =
  if (not t.complete_announced) && Knowledge.is_complete t.inst.Algorithm.knowledge then begin
    t.complete_announced <- true;
    t.complete_tick <- Some t.tick_count;
    t.acts.notify_complete ~now ~tick:t.tick_count
  end

(* Returns the message's body size, what the send costs on the wire. *)
let send_payload t ~now ~dst payload =
  if dst < 0 || dst >= t.cfg.n then invalid_arg "Node_core.send: destination out of range";
  let payload =
    match t.byz with [] -> payload | ids -> Adversary.inject ~universe:t.cfg.n payload ids
  in
  let pointers = Payload.measure payload in
  let frame = Wire.encode Wire.Adaptive ~universe:t.cfg.n ~room:Envelope.header_size payload in
  (* the body alone is what a message costs, as in the simulators *)
  let bytes = Bytes.length frame - Envelope.header_size in
  t.sent <- t.sent + 1;
  t.pointers <- t.pointers + pointers;
  t.bytes <- t.bytes + bytes;
  if t.tracing then emit t ~now (Trace.Send { src = t.cfg.node; dst; pointers; bytes });
  if dst = t.cfg.node then deliver t ~now ~src:t.cfg.node payload
  else begin
    let link = touch t dst in
    match link.status with
    | Dead -> drop_frame t ~now dst
    | Up ->
      push_frame link frame ~stamp:t.tick_count;
      transmit_data t ~now dst ~resend:false
    | Down ->
      push_frame link frame ~stamp:t.tick_count;
      t.acts.wake ~dst
  end;
  bytes

(* One unsolicited hello to [dst]: announce this (possibly fresh)
   incarnation so the peer voids any go-back-N state it still holds
   from a predecessor of this node id. Revives a link this side had
   written off — the peer evidently matters again. *)
let greet t ~now ~dst =
  if dst <> t.cfg.node then begin
    let link = touch t dst in
    (match link.status with
    | Dead ->
      link.status <- Down;
      t.acts.wake ~dst
    | Up | Down -> ());
    match link.status with
    | Up ->
      send_bare t ~now ~dst Envelope.Hello ~ack:0;
      link.hello_owed <- false
    | Down ->
      link.hello_owed <- true;
      t.acts.wake ~dst
    | Dead -> ()
  end

let send = send_payload

let request_hellos t ~now =
  Array.iter
    (fun dst ->
      if dst <> t.cfg.node then begin
        let link = touch t dst in
        match link.status with
        | Up ->
          send_bare t ~now ~dst Envelope.Hello ~ack:0;
          link.hello_owed <- false
        | Down ->
          link.hello_owed <- true;
          t.acts.wake ~dst
        | Dead -> ()
      end)
    t.cfg.neighbors

let tick t ~now =
  if not (t.cfg.fleet_halt && fleet_done t) then begin
    t.tick_count <- t.tick_count + 1;
    if t.tracing then
      emit t ~now (Trace.Tick { node = t.cfg.node; time = now; count = t.tick_count });
    (* a restarted node keeps announcing itself until its knowledge is
       whole again, in case an earlier hello (or its reply) was lost *)
    if t.cfg.announce && (not t.complete_announced) && t.tick_count mod hello_interval = 0 then
      request_hellos t ~now;
    t.inst.Algorithm.round ~round:t.tick_count
      ~send:(fun ~dst payload -> ignore (send_payload t ~now ~dst payload));
    announce_if_complete t ~now;
    (* termination gossip: a complete node periodically probes the peers
       it has not yet heard completion from, until the whole fleet is
       known complete (and this node may stop ticking) *)
    if
      t.cfg.fleet_halt && t.complete_announced
      && (not (fleet_done t))
      && t.tick_count mod done_interval = 0
    then
      for dst = 0 to t.cfg.n - 1 do
        if dst <> t.cfg.node && not (peek t dst).peer_done then send_done t ~now ~dst
      done
  end

(* Pop everything the peer's cumulative ack covers. *)
let apply_ack t ~now ~src ack =
  let link = touch t src in
  let acked = ack - link.base_seq + 1 in
  let covered = if acked < link.held then acked else link.held in
  for _ = 1 to covered do
    pop_frame link
  done;
  if covered > 0 then link.base_seq <- link.base_seq + covered;
  if link.held = 0 then link.rto.at <- infinity
  else if covered > 0 then link.rto.at <- now +. t.cfg.rto

let clear_peer_done t link =
  if link.peer_done then begin
    link.peer_done <- false;
    t.done_known <- t.done_known - 1
  end

(* [src] has evidence of complete knowledge. First news from a peer that
   arrived as an explicit Done probe gets one Done reply (if we are
   complete ourselves), so both sides learn of each other even when
   neither has data traffic left; re-probing covers lost replies. *)
let mark_peer_done t ~now ~src ~probe =
  let link = touch t src in
  if not link.peer_done then begin
    link.peer_done <- true;
    t.done_known <- t.done_known + 1;
    if probe && t.cfg.fleet_halt && t.complete_announced then send_done t ~now ~dst:src
  end

(* A hello announces a fresh incarnation of [src]: whatever sequence
   state we shared with the previous one is void. Reset both directions,
   revive the link if we had written the peer off, and hand the newcomer
   our whole identifier set so it can rebuild its knowledge. *)
let handle_hello t ~now ~src =
  let link = touch t src in
  (match link.status with
  | Dead ->
    link.status <- Down;
    t.acts.wake ~dst:src
  | Up | Down -> ());
  link.base_seq <- 1;
  link.txed <- 0;
  link.rto.at <- (if link.held = 0 then infinity else 0.0);
  link.recv_cum <- 0;
  link.recv_early <- [];
  link.ack_owed <- false;
  (* the fresh incarnation starts from scratch: its predecessor's
     completion claim no longer stands *)
  clear_peer_done t link;
  ignore
    (send_payload t ~now ~dst:src
       (Payload.Share (Payload.Bits (Knowledge.snapshot t.inst.Algorithm.knowledge))))

(* A fresh data seq is delivered on arrival; [recv_cum] advances only
   contiguously, absorbing early seqs the arrival made contiguous. The
   in-order arrival, the common one, leaves an empty list as it was. *)
let note_fresh link seq =
  if seq = link.recv_cum + 1 then begin
    link.recv_cum <- seq;
    match link.recv_early with
    | [] -> ()
    | early ->
      while List.mem (link.recv_cum + 1) early do
        link.recv_cum <- link.recv_cum + 1
      done;
      link.recv_early <- List.filter (fun s -> s > link.recv_cum) early
  end
  else link.recv_early <- seq :: link.recv_early

let handle_frame t ~now buf ~off =
  let src = Envelope.src buf ~off in
  if src < 0 || src >= t.cfg.n || src = t.cfg.node then t.decode_errors <- t.decode_errors + 1
  else begin
    let link = touch t src in
    let kind = Envelope.kind buf ~off in
    (match kind with
    | Envelope.Hello -> ()  (* a hello resets peer state below; its comp flag is moot *)
    | Envelope.Data | Envelope.Ack | Envelope.Done ->
      if Envelope.comp buf ~off then
        mark_peer_done t ~now ~src
          ~probe:(match kind with Envelope.Done -> true | _ -> false));
    match kind with
    | Envelope.Ack | Envelope.Done -> apply_ack t ~now ~src (Envelope.ack buf ~off)
    | Envelope.Hello -> handle_hello t ~now ~src
    | Envelope.Data ->
      apply_ack t ~now ~src (Envelope.ack buf ~off);
      link.ack_owed <- true;
      (* Deliver-on-arrival with dedup: the discovery channel model is
         non-FIFO (the async oracle draws an independent latency per
         message), so a frame that overtakes its predecessor is handed
         to the algorithm immediately — holding it for in-order delivery
         would make the live runtimes observably more ordered than the
         semantics they certify against. [recv_cum] still only advances
         contiguously: it is the cumulative ack mark, and the sender's
         go-back-N retransmission fills the gaps, deduplicated here. *)
      let seq = Envelope.seq buf ~off in
      if seq > link.recv_cum && not (List.mem seq link.recv_early) then begin
        note_fresh link seq;
        match
          Wire.decode ~universe:t.cfg.n buf ~off:(off + Envelope.header_size)
            ~len:(Envelope.body_length buf ~off)
        with
        | Error _ -> t.decode_errors <- t.decode_errors + 1
        | Ok payload ->
          deliver t ~now ~src payload;
          announce_if_complete t ~now
      end
  end

let receive t ~now frame =
  let verdict = Envelope.decode frame ~off:0 ~len:(Bytes.length frame) in
  if verdict > 0 then handle_frame t ~now frame ~off:0
  else if verdict = Envelope.need_more then t.decode_errors <- t.decode_errors + 1
  else note_bad_frame t (Envelope.reason frame ~off:0 verdict)

(* Retransmission timeouts and owed bare frames, over every up link.
   An untouched link owes nothing, so only the touched ones are walked —
   ascending by id, as frame order requires. *)
let pump t ~now =
  for i = 0 to t.nlinks - 1 do
    let dst = t.peers.(i) and link = t.links.(i) in
    match link.status with
    | Up ->
      if link.held > 0 && now >= link.rto.at then
        transmit_data t ~now dst ~resend:true;
      if link.hello_owed then begin
        send_bare t ~now ~dst Envelope.Hello ~ack:0;
        link.hello_owed <- false
      end;
      if link.done_owed then send_done t ~now ~dst;
      if link.ack_owed then begin
        send_bare t ~now ~dst Envelope.Ack ~ack:link.recv_cum;
        link.ack_owed <- false
      end
    | Down | Dead -> ()
  done

(* release frames the fault shim held back for delay/reorder *)
let flush_faults t ~now =
  match t.fn with
  | Some fn when Faultnet.pending fn ->
    Faultnet.flush_due fn ~now ~queue:(fun ~dst frame ->
        match link_status t ~dst with
        | Up -> t.acts.xmit ~now ~dst frame
        | Down | Dead -> ())
  | _ -> ()

let next_rto_deadline t =
  let deadline = ref infinity in
  for i = 0 to t.nlinks - 1 do
    let link = t.links.(i) in
    match link.status with
    | Up when link.held > 0 -> deadline := Float.min !deadline link.rto.at
    | _ -> ()
  done;
  !deadline

let final t =
  {
    Control.ticks = t.tick_count;
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    pointers = t.pointers;
    bytes = t.bytes;
    complete_tick = t.complete_tick;
    decode_errors = t.decode_errors;
    retransmits = t.retransmits;
    corrupt_frames = t.corrupt_frames;
  }

let create (cfg : config) (acts : actions) ~labels ~links_up ~now =
  if cfg.n <= 0 then invalid_arg "Node_core.create: n must be positive";
  if cfg.node < 0 || cfg.node >= cfg.n then invalid_arg "Node_core.create: node out of range";
  if cfg.tick_period <= 0.0 then invalid_arg "Node_core.create: tick period must be positive";
  if cfg.rto <= 0.0 then invalid_arg "Node_core.create: rto must be positive";
  if Array.length labels <> cfg.n then invalid_arg "Node_core.create: labels must have length n";
  let t =
    {
      cfg;
      acts;
      inst =
        Exec.instantiate ~seed:cfg.seed ~labels cfg.algo ~node:cfg.node ~neighbors:cfg.neighbors;
      untouched = (if links_up then untouched_up else untouched_down);
      peers = [||];
      links = [||];
      nlinks = 0;
      fn =
        (if Faultnet.active cfg.fault then
           Some
             (Faultnet.create ~plan:cfg.fault ~seed:cfg.seed ~node:cfg.node ~epoch:0.0
                ~tick_period:cfg.tick_period)
         else None);
      byz = Fault.fabricated_ids cfg.fault ~node:cfg.node;
      tracing = Option.is_some acts.emit;
      auditing = Fault.audit cfg.fault;
      tick_count = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      pointers = 0;
      bytes = 0;
      decode_errors = 0;
      retransmits = 0;
      corrupt_frames = 0;
      complete_tick = None;
      complete_announced = false;
      done_known = 0;
      last_activity = now;
    }
  in
  if t.tracing then begin
    emit t ~now (Trace.Join { node = cfg.node });
    (* a re-created (restarted) core re-emits its genesis, resetting its
       provenance to initial knowledge *)
    if t.auditing then
      emit t ~now (Adversary.genesis_event ~node:cfg.node t.inst.Algorithm.knowledge)
  end;
  announce_if_complete t ~now;
  if cfg.announce then request_hellos t ~now;
  t

type link_view = {
  view_status : status;
  view_base_seq : int;
  view_inflight : int;
  view_recv_cum : int;
  view_recv_early : int list;
  view_peer_done : bool;
}

let link_view t ~dst =
  let l = peek t dst in
  {
    view_status = l.status;
    view_base_seq = l.base_seq;
    view_inflight = l.held;
    view_recv_cum = l.recv_cum;
    view_recv_early = List.sort compare l.recv_early;
    view_peer_done = l.peer_done;
  }
