open Repro_util
open Repro_discovery

(* Timing constants, in virtual ticks. A probe round-trip is ~1.3 ticks
   under the virtual-clock runtime's latency model and up to ~2 ticks
   over the hosted mux backend (replies queue until the next
   activation), so [suspect_after] tolerates a full RTT slack before
   escalating, the indirect window fits a relayed round-trip, and a
   confirmed death takes at most
   (suspect_after + indirect_after + suspicion_max) * lhm ticks end to
   end — 48 at the worst local-health multiplier, still inside the
   minimum convergence-lag bound of 64. *)
let probe_interval = 4.0
let suspect_after = 3.0
let indirect_after = 4.0
let full_sync_interval = 64.0
let leave_fanout = 3

(* Suspicion window: starts at [suspicion_max] and shrinks toward
   [suspicion_min] as independent confirmations arrive (see
   [suspicion_timeout]). With confirmations capped at
   [suspicion_confirmation_cap] the fully corroborated window equals
   the old fixed one's floor. *)
let suspicion_min = 3.0
let suspicion_max = 9.0
let suspicion_confirmation_cap = 3
let suspicion_fanout = 3

(* Local health (lifeguard): a saturating counter of recent evidence
   that *our own* probes are failing broadly. Every timeout or wrong
   verdict bumps it, every answered probe decays it; the multiplier it
   induces widens all our liveness timeouts, so a node on the minority
   side of a partition slows its convictions instead of spraying down
   verdicts. *)
let health_max = 4

(* An intermediary remembers who asked it to probe whom for this many
   ticks; relays older than that are dropped unanswered. *)
let relay_ttl = 6.0

type actions = {
  send : dst:int -> Payload.t -> unit;
  on_suspect : target:int -> unit;
  on_retire : target:int -> unit;
  on_view_change : target:int -> alive:bool -> unit;
}

type probe_state =
  | Direct of { deadline : float }
  | Indirect of { deadline : float; nonce : int }
  | Suspected of {
      started : float;
      nonce : int;
      version : int;  (* the incarnation under suspicion *)
      mutable deadline : float;
      mutable confirmers : int list;  (* distinct peers corroborating *)
    }

type relay = { requester : int; nonce : int; expiry : float }

type t = {
  self : int;
  rng : Rng.t;
  view : View.t;
  mutable incarnation : int;
  (* Append-only update log, structure-of-arrays: node, version, status
     and the entry's remaining transmission budget. *)
  log_nodes : Intvec.t;
  log_versions : Intvec.t;
  log_statuses : Intvec.t;
  log_budgets : Intvec.t;
  cursors : Bytes.t;  (* 32-bit log prefix already pushed, per target id *)
  probes : (int, probe_state) Hashtbl.t;
  relays : (int, relay list) Hashtbl.t;  (* target -> pending vouches *)
  indirect_k : int;
  lifeguard : bool;
  mutable health : int;
  mutable next_probe : float;
  mutable bootstrap : (int array * int * Repro_net.Node.Backoff.t * float) option;
      (* contacts, rotation index, backoff, due *)
  mutable next_full_sync : float;
  full_sync : bool;
  actions : actions;
}

let self t = t.self
let view t = t.view
let incarnation t = t.incarnation
let health t = t.health

(* The local-health multiplier: 1x when healthy, up to 3x when every
   recent probe failed. *)
let lhm t = 1.0 +. (0.5 *. float_of_int t.health)

let penalize t = if t.lifeguard then t.health <- min health_max (t.health + 1)
let improve t = if t.lifeguard then t.health <- max 0 (t.health - 1)

(* Lifeguard-style timeout scaling: the window starts wide and shrinks
   logarithmically with independent confirmations, floored at
   [suspicion_min]. Both bounds stretch under a bad local health. *)
let suspicion_timeout t ~confirmations =
  let m = lhm t in
  let max_to = suspicion_max *. m and min_to = suspicion_min *. m in
  let c = float_of_int (min confirmations suspicion_confirmation_cap) in
  let k = float_of_int suspicion_confirmation_cap in
  max min_to (max_to -. ((max_to -. min_to) *. log (c +. 1.0) /. log (k +. 1.0)))

(* Each entry is pushed O(log live) times fleet-wide per member — the
   classic rumor-mongering budget that makes total dissemination cost
   O(n log n) per change instead of O(n^2). *)
let budget_for t =
  let live = max 2 (View.live_count t.view) in
  let lg = int_of_float (ceil (log (float_of_int live) /. log 2.0)) in
  3 * max 1 lg

let log_append t ~node ~version ~status =
  Intvec.push t.log_nodes node;
  Intvec.push t.log_versions version;
  Intvec.push t.log_statuses status;
  Intvec.push t.log_budgets (budget_for t)

let make_member ~cap ~self ~rng ~full_sync ~indirect_k ~lifeguard actions =
  if cap <= 0 then invalid_arg "Member.create: cap must be positive";
  if self < 0 || self >= cap then invalid_arg "Member.create: self out of range";
  if indirect_k < 0 then invalid_arg "Member.create: negative indirect_k";
  {
    self;
    rng;
    view = View.create ~cap ~owner:self;
    incarnation = 1;
    log_nodes = Intvec.create ();
    log_versions = Intvec.create ();
    log_statuses = Intvec.create ();
    log_budgets = Intvec.create ();
    cursors = Bytes.make (4 * cap) '\000';
    probes = Hashtbl.create 4;
    relays = Hashtbl.create 4;
    indirect_k;
    lifeguard;
    health = 0;
    next_probe = 0.0;
    bootstrap = None;
    next_full_sync = full_sync_interval;
    full_sync;
    actions;
  }

let create_genesis ~cap ~self ~peers ~rng ~full_sync ~indirect_k ~lifeguard actions =
  let t = make_member ~cap ~self ~rng ~full_sync ~indirect_k ~lifeguard actions in
  Array.iter
    (fun peer ->
      if peer <> self then
        ignore (View.apply t.view ~node:peer ~version:1 ~status:Payload.status_alive))
    peers;
  t

let create_joiner ~cap ~self ~contacts ~rng ~full_sync ~indirect_k ~lifeguard actions =
  if Array.length contacts = 0 then invalid_arg "Member.create_joiner: no contacts";
  Array.iter
    (fun contact ->
      if contact < 0 || contact >= cap || contact = self then
        invalid_arg "Member.create_joiner: bad contact")
    contacts;
  let t = make_member ~cap ~self ~rng ~full_sync ~indirect_k ~lifeguard actions in
  log_append t ~node:self ~version:1 ~status:Payload.status_alive;
  let backoff = Repro_net.Node.Backoff.create ~rng ~base:2.0 ~cap:16.0 in
  t.bootstrap <- Some (contacts, 0, backoff, 0.0);
  t

(* Drop a liveness hypothesis about [target] because it proved alive.
   A refuted *suspicion* (not a mere pending probe) means we were about
   to convict a live node: that is local-health evidence of our own
   unreliability, not the target's. *)
let cancel_probe t ~target ~refuted =
  match Hashtbl.find_opt t.probes target with
  | None -> ()
  | Some (Direct _ | Indirect _) ->
    Hashtbl.remove t.probes target;
    if refuted then improve t
  | Some (Suspected _) ->
    Hashtbl.remove t.probes target;
    ignore (View.unsuspect t.view target);
    if refuted then penalize t

(* Merge one remote observation. [relog] gates re-broadcast: gossip and
   join announcements spread further, bootstrap replies do not (the
   joiner must not re-announce the whole fleet). *)
let observe t ~node ~version ~status ~relog =
  if node = t.self && status <> Payload.status_alive && version >= t.incarnation then begin
    (* someone thinks we are gone: refute with a higher incarnation *)
    t.incarnation <- version + 1;
    ignore (View.apply t.view ~node:t.self ~version:t.incarnation ~status:Payload.status_alive);
    log_append t ~node:t.self ~version:t.incarnation ~status:Payload.status_alive
  end
  else begin
    (* a fresher alive incarnation outranks any in-flight suspicion of
       an older one: cancel it instead of letting it convict later. The
       table is empty for nearly every entry of a full-state batch, so
       that case skips the hash. *)
    if Hashtbl.length t.probes > 0 then begin
      match Hashtbl.find_opt t.probes node with
      | Some (Suspected s) when status = Payload.status_alive && version > s.version ->
        cancel_probe t ~target:node ~refuted:true
      | Some _ | None -> ()
    end;
    match View.apply t.view ~node ~version ~status with
    | View.Stale -> ()
    | View.Updated -> if relog then log_append t ~node ~version ~status
    | View.Changed alive ->
      if relog then log_append t ~node ~version ~status;
      t.actions.on_view_change ~target:node ~alive
  end

(* Scratch for the batches a member sends, domain-local because
   parallel sweeps step members concurrently. For [pending_entries],
   [stamp.(node) = gen] marks a node already seen in the current call,
   [last.(node)] is its latest budgeted log index, and [ids] collects
   the distinct nodes in first-seen order. [batch] holds the outgoing
   gossip or full-state batch itself, lent to [actions.send], which
   consumes it before returning: a full-state batch of a few hundred
   entries is above the minor heap's size limit, so a fresh array per
   batch would go straight to the major heap. *)
type send_scratch = {
  mutable gen : int;
  mutable stamp : int array;
  mutable last : int array;
  mutable ids : int array;
  mutable batch : int array;
}

let send_scratch : send_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { gen = 0; stamp = [||]; last = [||]; ids = [||]; batch = [||] })

(* The scratch, grown to a universe of [cap] ids: a batch holds at most
   one entry per id. *)
let scratch_for cap =
  let sc = Domain.DLS.get send_scratch in
  if Array.length sc.stamp < cap then begin
    sc.stamp <- Array.make cap 0;
    sc.last <- Array.make cap 0;
    sc.ids <- Array.make cap 0;
    sc.batch <- Array.make (2 * cap) 0
  end;
  sc

(* The first [count] entries of the scratch's batch, lent to the send. *)
let lent_batch ~full count =
  Payload.Updates { full; count; entries = (Domain.DLS.get send_scratch).batch }

(* Writes the canonical batch of log entries in [from, len) that still
   have transmission budget into the scratch's batch and returns its
   entry count: latest observation per node, ascending by node.
   Decrements the budget of every entry it includes. *)
let pending_entries t ~from =
  let len = Intvec.length t.log_nodes in
  if from >= len then 0
  else begin
    let sc = scratch_for (View.universe t.view) in
    sc.gen <- sc.gen + 1;
    let gen = sc.gen in
    let m = ref 0 in
    for i = from to len - 1 do
      let budget = Intvec.get t.log_budgets i in
      if budget > 0 then begin
        Intvec.set t.log_budgets i (budget - 1);
        let node = Intvec.get t.log_nodes i in
        if sc.stamp.(node) <> gen then begin
          sc.stamp.(node) <- gen;
          sc.ids.(!m) <- node;
          incr m
        end;
        (* later entries for the same node supersede earlier ones *)
        sc.last.(node) <- i
      end
    done;
    Intvec.sort_prefix sc.ids !m;
    for k = 0 to !m - 1 do
      let node = sc.ids.(k) in
      let i = sc.last.(node) in
      Payload.set_update sc.batch k ~node ~version:(Intvec.get t.log_versions i)
        ~status:(Intvec.get t.log_statuses i)
    done;
    !m
  end

(* The gossip cursors: one native-endian int32 per id of the universe,
   the length of the log prefix that id is known to cover, 0 until the
   first push. The primitives read and write the slot unboxed, so
   neither direction allocates. The slots are 32-bit, not words,
   because every member holds one for every id from its creation. *)
external get_int32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set_int32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let max_cursor = 0x7FFF_FFFF

let advance_cursor t target =
  let pos = Intvec.length t.log_nodes in
  if pos > max_cursor then failwith "Member: update log longer than a 31-bit cursor";
  set_int32 t.cursors (4 * target) (Int32.of_int pos)

let cursor t target = Int32.to_int (get_int32 t.cursors (4 * target))

(* Every known node at its current (version, exported status) — the
   full-state payload for bootstrap replies and for both halves of a
   sync repair, lent from the scratch's batch. Its triples are the ones
   [View.digest] covers. The known nodes are those with a status, so
   one ascending scan of the statuses fills the batch in canonical
   order, with no closure call per node. *)
let full_entries t =
  let cap = View.universe t.view in
  let entries = (scratch_for cap).batch in
  let k = ref 0 in
  for node = 0 to cap - 1 do
    let status = View.exported_status t.view node in
    if status <> View.unknown then begin
      Payload.set_update entries !k ~node ~version:(View.version t.view node) ~status;
      incr k
    end
  done;
  Payload.Updates { full = true; count = !k; entries }

let gossip t =
  let target = View.random_live t.view t.rng in
  if target >= 0 then begin
    let count = pending_entries t ~from:(cursor t target) in
    advance_cursor t target;
    if count > 0 then t.actions.send ~dst:target (Payload.Share (lent_batch ~full:false count))
  end

let send_bootstrap t ~now ~dst contacts idx backoff =
  (* [full = false]: the payload is the joiner's lone self-announcement,
     not a full state — which also lets the runtime's traffic classifier
     tell bootstrap requests from the whole-view pushes of sync repairs *)
  let entries = Array.make 2 0 in
  Payload.set_update entries 0 ~node:t.self ~version:t.incarnation ~status:Payload.status_alive;
  t.actions.send ~dst (Payload.Exchange (Payload.Updates { full = false; count = 1; entries }));
  t.bootstrap <- Some (contacts, idx, backoff, now +. Repro_net.Node.Backoff.next backoff)

let fresh_nonce t = Rng.int t.rng 0x3FFFFFFF

(* Escalate an unanswered direct probe: ask up to [indirect_k] random
   live intermediaries to probe the target on our behalf, correlated by
   a nonce — one lost link no longer convicts a healthy node. Falls
   through to suspicion when indirect probing is off or no intermediary
   exists. Returns [true] if an indirect round was opened. *)
let start_indirect t ~target ~now =
  let mids = View.random_live_sample t.view t.rng ~k:t.indirect_k ~exclude:target in
  if Array.length mids = 0 then false
  else begin
    let nonce = fresh_nonce t in
    Hashtbl.replace t.probes target (Indirect { deadline = now +. (indirect_after *. lhm t); nonce });
    Array.iter (fun mid -> t.actions.send ~dst:mid (Payload.Probe_req { target; nonce })) mids;
    (* keep trying directly too: the direct path may only have been
       unlucky, and its answer is accepted at any time *)
    t.actions.send ~dst:target Payload.Probe;
    true
  end

(* Open the suspicion sub-protocol on [target]: mark it suspect
   locally, start the (wide) refutation window and tell a few live
   peers — each will corroborate only from its own probe evidence, and
   each independent confirmation shrinks the window. *)
let start_suspicion t ~target ~now =
  let version = View.version t.view target in
  let deadline = now +. suspicion_timeout t ~confirmations:0 in
  (* keep the indirect round's nonce: an ack that raced the window's
     expiry is still valid evidence and may acquit the suspicion *)
  let nonce =
    match Hashtbl.find_opt t.probes target with
    | Some (Indirect i) -> i.nonce
    | Some (Direct _ | Suspected _) | None -> fresh_nonce t
  in
  Hashtbl.replace t.probes target
    (Suspected { started = now; nonce; version; deadline; confirmers = [] });
  if View.suspect t.view target then t.actions.on_suspect ~target;
  let peers = View.random_live_sample t.view t.rng ~k:suspicion_fanout ~exclude:target in
  Array.iter (fun peer -> t.actions.send ~dst:peer (Payload.Suspicion { target; version })) peers;
  t.actions.send ~dst:target Payload.Probe

let probe_timeouts t ~now =
  (* the common tick has nothing in flight: skip the sweep's refs,
     closure and lists *)
  if Hashtbl.length t.probes > 0 then begin
    let escalate = ref [] and deaths = ref [] and reprobes = ref [] in
    Hashtbl.iter
      (fun target state ->
        match state with
        | Direct { deadline } when now > deadline -> escalate := (target, `To_indirect) :: !escalate
        | Indirect { deadline; _ } when now > deadline ->
          escalate := (target, `To_suspected) :: !escalate
        | Suspected s when now > s.deadline -> deaths := target :: !deaths
        | Suspected _ | Indirect _ -> reprobes := target :: !reprobes
        | Direct _ -> ())
      t.probes;
    (* keep probing through the indirect and suspicion windows:
       confirming a death then requires every probe of the window to go
       unanswered, so a single lost ack cannot produce a false verdict *)
    List.iter (fun target -> t.actions.send ~dst:target Payload.Probe) !reprobes;
    List.iter
      (fun (target, transition) ->
        (* an expired window is local-health evidence either way *)
        penalize t;
        match transition with
        | `To_indirect ->
          if not (start_indirect t ~target ~now) then start_suspicion t ~target ~now
        | `To_suspected -> start_suspicion t ~target ~now)
      !escalate;
    List.iter
      (fun target ->
        match Hashtbl.find_opt t.probes target with
        | Some (Suspected s) ->
          Hashtbl.remove t.probes target;
          (* convict at the incarnation we suspected: if the node refuted
             meanwhile with a higher one, the verdict is stale on the
             lattice and changes nothing *)
          observe t ~node:target ~version:s.version ~status:Payload.status_down ~relog:true;
          t.actions.on_retire ~target
        | Some _ | None -> ())
      !deaths
  end

let maybe_probe t ~now =
  if now >= t.next_probe then begin
    t.next_probe <- now +. probe_interval;
    let target = View.random_live t.view t.rng in
    if target >= 0 && not (Hashtbl.length t.probes > 0 && Hashtbl.mem t.probes target) then begin
      Hashtbl.replace t.probes target (Direct { deadline = now +. (suspect_after *. lhm t) });
      t.actions.send ~dst:target Payload.Probe
    end
  end

(* The periodic anti-entropy sync is digest first. The initiator sends
   only its view digest. A peer whose digest is equal holds the same
   exported view, and the exchange ends there: one small message, which
   is every sync of a converged fleet. A peer whose digest differs
   starts the old push-pull with the roles turned: it pushes its whole
   view as an [Exchange], and the initiator answers with its own whole
   view as a full [Reply]. Both sides end with the join of the two
   views, as before. Push-pull, not push: a push-only repair would let
   a member serve the fleet while staying stale itself — it would heal
   only when someone else's sync happened to land on it, which at fleet
   size n is an expected n/2 intervals away.

   The gossip cursor keeps its meaning: [cursors] maps a peer to the
   log prefix that peer is known to cover. A digest carries no entries,
   so sending one moves no cursor. Equal digests show that the peer
   holds every fact of our view, hence every fact of our log, so the
   receiver of an equal digest moves its cursor for the initiator. On a
   mismatch each side moves its cursor for the other when it sends or
   receives the whole-view push, exactly where the old exchange moved
   them.

   The relog rule keeps its meaning too: entries learned from an
   [Exchange] are relogged and spread further; entries learned from a
   full [Reply] are not, so a joiner never re-announces the whole
   fleet. In a mismatched pair the side that receives the push relogs
   what it learns, as before; that side is now the initiator. *)
let maybe_full_sync t ~now =
  if t.full_sync && now >= t.next_full_sync then begin
    t.next_full_sync <- now +. full_sync_interval;
    let target = View.random_live t.view t.rng in
    if target >= 0 then t.actions.send ~dst:target (Payload.Sync { digest = View.digest t.view })
  end

(* Drop relay entries whose requester stopped waiting long ago. *)
let prune_relays t ~now =
  if Hashtbl.length t.relays > 0 then begin
    let stale = ref [] in
    Hashtbl.iter
      (fun target pending ->
        if List.for_all (fun r -> now > r.expiry) pending then stale := target :: !stale
        else
          Hashtbl.replace t.relays target (List.filter (fun r -> now <= r.expiry) pending))
      t.relays;
    List.iter (Hashtbl.remove t.relays) !stale
  end

let step t ~now =
  (match t.bootstrap with
  | Some (contacts, idx, backoff, due) when now >= due ->
    (* re-aim at any live peer learned since; failing that, rotate the
       contact list — so one contact churning out mid-bootstrap cannot
       strand the joiner on a dead address forever *)
    let live = View.random_live t.view t.rng in
    let dst = if live >= 0 then live else contacts.(idx mod Array.length contacts) in
    send_bootstrap t ~now ~dst contacts (idx + 1) backoff
  | Some _ | None -> ());
  (match t.bootstrap with
  | Some _ -> ()
  | None ->
    probe_timeouts t ~now;
    maybe_probe t ~now;
    maybe_full_sync t ~now;
    prune_relays t ~now);
  gossip t

let apply_updates t ~relog ~count entries =
  for i = 0 to count - 1 do
    observe t ~node:(Payload.update_node entries i) ~version:(Payload.update_version entries i)
      ~status:(Payload.update_status entries i) ~relog
  done

let share_entry t ~dst ~node ~version ~status =
  let entries = Array.make 2 0 in
  Payload.set_update entries 0 ~node ~version ~status;
  t.actions.send ~dst (Payload.Share (Payload.Updates { full = false; count = 1; entries }))

(* Answer every pending indirect-probe vouch for [target]: it just
   proved alive to us, so ack the requesters that asked us to check. *)
let fire_relays t ~target ~now =
  match Hashtbl.find_opt t.relays target with
  | None -> ()
  | Some pending ->
    Hashtbl.remove t.relays target;
    List.iter
      (fun r ->
        if now <= r.expiry then
          t.actions.send ~dst:r.requester (Payload.Probe_ack { target; nonce = r.nonce }))
      pending

let add_relay t ~target ~requester ~nonce ~now =
  let pending = Option.value (Hashtbl.find_opt t.relays target) ~default:[] in
  Hashtbl.replace t.relays target ({ requester; nonce; expiry = now +. relay_ttl } :: pending)

let deliver t ~src ~now payload =
  (* any message is proof of life: an answered probe improves local
     health, a refuted suspicion degrades it (we nearly convicted a
     live node) *)
  if Hashtbl.length t.probes > 0 then begin
    match Hashtbl.find_opt t.probes src with
    | Some (Direct _ | Indirect _) ->
      Hashtbl.remove t.probes src;
      improve t
    | Some (Suspected _) ->
      Hashtbl.remove t.probes src;
      penalize t
    | None -> ()
  end;
  ignore (View.unsuspect t.view src);
  if Hashtbl.length t.relays > 0 then fire_relays t ~target:src ~now;
  (* a message from a node we hold down means our verdict is wrong (or
     stale): send the verdict back so the accused can refute it with a
     higher incarnation — the self-healing path for false positives *)
  if View.status t.view src = Payload.status_down then
    share_entry t ~dst:src ~node:src ~version:(View.version t.view src)
      ~status:Payload.status_down;
  match (payload : Payload.t) with
  | Probe ->
    (* the reply is the ack; piggyback whatever the prober has not seen *)
    let count = pending_entries t ~from:(cursor t src) in
    advance_cursor t src;
    t.actions.send ~dst:src (Payload.Reply (lent_batch ~full:false count))
  | Probe_req { target; nonce } ->
    if target = t.self then
      (* we are the accused and evidently alive: vouch for ourselves *)
      t.actions.send ~dst:src (Payload.Probe_ack { target; nonce })
    else if View.status t.view target = Payload.status_down then
      (* already convicted here: share the verdict instead of probing *)
      share_entry t ~dst:src ~node:target ~version:(View.version t.view target)
        ~status:Payload.status_down
    else if target >= 0 then begin
      add_relay t ~target ~requester:src ~nonce ~now;
      t.actions.send ~dst:target Payload.Probe
    end
  | Probe_ack { target; nonce } ->
    (* correlate by nonce: a stale ack from a previous round must not
       acquit the current hypothesis *)
    (match Hashtbl.find_opt t.probes target with
    | Some (Indirect i) when i.nonce = nonce ->
      improve t;
      cancel_probe t ~target ~refuted:false
    | Some (Suspected s) when s.nonce = nonce ->
      (* the vouch raced the window's expiry: acquit the suspicion *)
      cancel_probe t ~target ~refuted:true
    | Some _ | None -> ())
  | Suspicion { target; version } ->
    if target = t.self then
      (* observe handles self-accusations: bump our incarnation *)
      observe t ~node:t.self ~version ~status:Payload.status_suspect ~relog:true
    else begin
      match Hashtbl.find_opt t.probes target with
      | Some (Suspected s) when version = s.version && not (Intvec.mem_list src s.confirmers) ->
        (* an independent corroboration: shrink the refutation window *)
        s.confirmers <- src :: s.confirmers;
        s.deadline <-
          s.started +. suspicion_timeout t ~confirmations:(List.length s.confirmers)
      | Some _ -> ()
      | None ->
        if View.status t.view target = Payload.status_down then
          share_entry t ~dst:src ~node:target ~version:(View.version t.view target)
            ~status:Payload.status_down
        else if version < View.version t.view target && View.is_live t.view target then
          (* stale accusation: quash it with the newer alive incarnation *)
          share_entry t ~dst:src ~node:target ~version:(View.version t.view target)
            ~status:Payload.status_alive
        else if View.is_live t.view target && not (View.owner t.view = target) then begin
          (* corroborate only from our own evidence: probe the accused
             now and let the normal pipeline raise (and gossip) our own
             suspicion if it stays silent *)
          Hashtbl.replace t.probes target (Direct { deadline = now +. (suspect_after *. lhm t) });
          t.actions.send ~dst:target Payload.Probe
        end
    end
  | Sync { digest } ->
    (* equal digests end the sync; a mismatch opens the push-pull *)
    advance_cursor t src;
    if digest <> View.digest t.view then
      t.actions.send ~dst:src (Payload.Exchange (full_entries t))
  | Exchange (Payload.Updates u) ->
    (* push-pull state exchange (a joiner's bootstrap, or a peer's push
       after our sync digest did not match its own): learn what the
       sender knows — spreading any news — and answer with our whole
       view *)
    apply_updates t ~relog:true ~count:u.count u.entries;
    advance_cursor t src;
    t.actions.send ~dst:src (Payload.Reply (full_entries t))
  | Reply (Payload.Updates u) when u.full ->
    apply_updates t ~relog:false ~count:u.count u.entries;
    (match t.bootstrap with
    | Some _ ->
      t.bootstrap <- None;
      t.next_full_sync <- now +. full_sync_interval
    | None -> ())
  | Share (Payload.Updates u) | Reply (Payload.Updates u) ->
    apply_updates t ~relog:true ~count:u.count u.entries
  | Share _ | Exchange _ | Reply _ | Halt ->
    (* one-shot discovery payloads are not part of the service protocol *)
    ()

let leave t =
  let entries = Array.make 2 0 in
  Payload.set_update entries 0 ~node:t.self ~version:t.incarnation ~status:Payload.status_down;
  log_append t ~node:t.self ~version:t.incarnation ~status:Payload.status_down;
  let payload = Payload.Share (Payload.Updates { full = false; count = 1; entries }) in
  Array.iter
    (fun target -> t.actions.send ~dst:target payload)
    (View.random_live_sample t.view t.rng ~k:leave_fanout ~exclude:t.self)
