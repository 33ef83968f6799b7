open Repro_util

type broadcast = All | Cap of int | Off

type upward = Delta | Full

type state = {
  knowledge : Knowledge.t;
  pending_replies : Intvec.t;  (* exchange senders owed a reply *)
  mutable acked_upto : int;  (* knowledge mark acknowledged by the target *)
  mutable prev_sent : int;  (* mark carried by the report one round ago *)
  mutable last_sent : int;  (* mark carried by the latest report *)
  mutable report_target : int;  (* current head candidate, -1 before the first report *)
  owed : Cset.t;  (* known identifiers not yet in smaller-ranked custody *)
  mutable last_custody : Knowledge.snap option;
      (* physical identity of the last snapshot absorbed into custody. A
         head's reply and broadcast of one version are the same cached
         snapshot, so cluster members see every view twice per round —
         the second absorption is skipped. *)
  suspects : Cset.t;  (* nodes suspected crashed (silent head candidates) *)
  mutable silence : int;  (* rounds since the current target last answered *)
  mutable halted : bool;  (* local termination decision reached *)
  mutable quiet_rounds : int;  (* consecutive uninformative rounds (heads) *)
  mutable last_card : int;  (* knowledge size at the previous round *)
  mutable saw_new_info : bool;  (* a non-empty report arrived this round *)
}

(* A head candidate that stays silent for this many report rounds is
   suspected crashed and skipped when choosing where to report. A healthy
   target answers every report within two rounds, so only loss or crashes
   trigger this; a suspected node that speaks again is rehabilitated. *)
let patience = 5

(* the steady-state report (empty delta), shared by every node and round *)
let exchange_empty = Payload.Exchange Payload.empty_delta

(* A head whose knowledge has been stable and whose reporters have all
   been sending empty deltas for this many consecutive rounds decides the
   protocol is finished, broadcasts [Halt], and quiesces. This is a
   heuristic (an identifier could still be in flight up a long report
   chain), so experiment T11 measures both the termination lag and the
   safety of the decision empirically. *)
let halt_patience = 5

(* Soundness of the delta reports rests on a custody argument: every
   identifier a node learns is either echoed upward in its next report or
   is already held by a node of strictly smaller rank (its report target,
   which taught it the identifier). Two rules keep the custody chain
   descending all the way to the global minimum:

   - introduction: when a node abandons head m1 for a smaller-ranked m2,
     it tells m1 about m2. An abandoned head therefore always learns of a
     smaller rank, stops being a head, and forwards its entire backlog
     (heads never advance their report mark, so their first report after
     retiring carries everything they ever aggregated);

   - no-echo filtering: identifiers taught by the current head are
     already in smaller-ranked custody, and echoing them would make the
     upward traffic quadratic, so reports carry only the [owed] ones.

   [owed] is custody by exception: of the identifiers a node knows, the
   few it still owes upward, rather than a second n-universe set of the
   many it does not. It starts as the initial knowledge; an identifier
   learned outside custody (a report, an introduction, a reporter's own
   id) joins it before the merge; one taught by the current target, or
   contained in an absorbed snapshot, leaves it.

   Under message loss the custody argument needs delivery, not just
   sending, so reports are retransmitted until acknowledged: each report
   carries everything unacknowledged, and the window only advances when a
   [Reply] (never a broadcast [Share] — a head broadcasts to every node
   it has merely heard of, which proves nothing about report receipt)
   arrives from the current target. A reply received in round r answers
   the report sent in round r-1, hence the two-deep mark queue. *)
let make_with ~broadcast ~upward (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st =
    {
      knowledge;
      pending_replies = Intvec.create ();
      acked_upto = 0;
      prev_sent = 0;
      last_sent = 0;
      report_target = -1;
      owed = Cset.copy (Knowledge.contents knowledge);
      last_custody = None;
      suspects = Cset.create ctx.n;
      silence = 0;
      halted = false;
      quiet_rounds = 0;
      last_card = 0;
      saw_new_info = false;
    }
  in
  let self = ctx.node in
  (* O(1) frozen view of the live knowledge; at most two per round (the
     reply to reporters and the head broadcast), so no laziness needed *)
  let snap () = Payload.Bits (Knowledge.snapshot st.knowledge) in
  (* Steady-state heads re-send the same full view every round (the
     broadcast and the reply to reporters): cache the whole message per
     knowledge version so an unchanged view costs zero allocation. *)
  let share_msg = ref exchange_empty in
  let share_version = ref (-1) in
  let reply_msg = ref exchange_empty in
  let reply_version = ref (-1) in
  let share_snap () =
    let v = Knowledge.version st.knowledge in
    if !share_version <> v then begin
      share_msg := Payload.Share (snap ());
      share_version := v
    end;
    !share_msg
  in
  let reply_snap () =
    let v = Knowledge.version st.knowledge in
    if !reply_version <> v then begin
      reply_msg := Payload.Reply (snap ());
      reply_version := v
    end;
    !reply_msg
  in
  let round ~round:_ ~send =
    if st.halted then begin
      (* Quiescent: answer any straggling reporter with the full view
         (it may be a late joiner whose identifier everyone already knew
         but whose own knowledge is stale) followed by Halt, so it both
         completes and stops. Flow still decays to zero: each straggler
         report costs exactly two replies. *)
      if not (Intvec.is_empty st.pending_replies) then begin
        let reply = reply_snap () in
        Intvec.iter
          (fun dst ->
            send ~dst reply;
            send ~dst Payload.Halt)
          st.pending_replies;
        Intvec.clear st.pending_replies
      end
    end
    else begin
    (* Answer last round's reporters with the current full view (one
       shared snapshot): this is the downward half of the exchange. *)
    if not (Intvec.is_empty st.pending_replies) then begin
      let reply = reply_snap () in
      Intvec.iter (fun dst -> send ~dst reply) st.pending_replies;
      Intvec.clear st.pending_replies
    end;
    let head =
      if Cset.is_empty st.suspects then Knowledge.min_known st.knowledge
      else Knowledge.min_known_excluding st.knowledge ~suspects:st.suspects
    in
    (* local termination detection (heads only): nothing new learned and
       only empty reports for several consecutive rounds *)
    if head = self then begin
      if Knowledge.cardinal st.knowledge = st.last_card && not st.saw_new_info then
        st.quiet_rounds <- st.quiet_rounds + 1
      else st.quiet_rounds <- 0
    end
    else st.quiet_rounds <- 0;
    st.last_card <- Knowledge.cardinal st.knowledge;
    st.saw_new_info <- false;
    if head = self && st.quiet_rounds >= halt_patience then begin
      st.halted <- true;
      Knowledge.iter_known st.knowledge (fun dst -> if dst <> self then send ~dst Payload.Halt)
    end
    else if head <> self then begin
      if st.report_target <> head then begin
        if st.report_target >= 0 then
          send ~dst:st.report_target (Payload.Share (Payload.Ids [| head |]));
        st.report_target <- head;
        st.silence <- 0;
        (* marks refer to the old target's reply stream *)
        st.prev_sent <- st.acked_upto;
        st.last_sent <- st.acked_upto
      end
      else begin
        st.silence <- st.silence + 1;
        if st.silence > patience then begin
          ignore (Cset.add st.suspects head);
          st.silence <- 0
        end
      end;
      (* Report to the head candidate. An empty report still goes out —
         it doubles as the pull request for the head's reply. *)
      let msg =
        match upward with
        | Delta ->
          (* The unacknowledged window, minus identifiers already in
             smaller-ranked custody. The common steady-state cases are
             allocation-free: an empty window reuses the shared empty
             report, and a window with nothing filtered out goes as a
             zero-copy slice of the learn order. *)
          let acked = st.acked_upto in
          st.prev_sent <- st.last_sent;
          st.last_sent <- Knowledge.mark st.knowledge;
          if st.last_sent = acked then exchange_empty
          else begin
            let recent = Knowledge.since_slice st.knowledge ~mark:acked in
            let total = Intvec.slice_length recent in
            let keep = ref 0 in
            for i = 0 to total - 1 do
              if Cset.mem st.owed (Intvec.slice_get recent i) then incr keep
            done;
            if !keep = 0 then exchange_empty
            else if !keep = total then Payload.Exchange (Payload.Delta recent)
            else begin
              let fresh = Array.make !keep 0 in
              let j = ref 0 in
              for i = 0 to total - 1 do
                let v = Intvec.slice_get recent i in
                if Cset.mem st.owed v then begin
                  fresh.(!j) <- v;
                  incr j
                end
              done;
              Payload.Exchange (Payload.Ids fresh)
            end
          end
        | Full -> Payload.Exchange (snap ())
      in
      send ~dst:head msg
    end
    else begin
      (* Head: broadcast the full view to the cluster and to every foreign
         node this head has heard of — the growing-fan-out exchange. The
         view goes out every round, even when unchanged: a broadcast
         lost on its way to a foreign head is otherwise never repeated,
         and that head keeps heading a cluster it should have left. *)
      match broadcast with
      | Off -> ()
      | All ->
        if Knowledge.cardinal st.knowledge > 1 then begin
          let msg = share_snap () in
          Knowledge.iter_known st.knowledge (fun dst -> if dst <> self then send ~dst msg)
        end
      | Cap k ->
        let targets = Knowledge.random_known_among st.knowledge ctx.rng ~k in
        if Array.length targets > 0 then begin
          let msg = share_snap () in
          Array.iter (fun dst -> send ~dst msg) targets
        end
    end
    end
  in
  (* The ids of [d] not known yet are learned outside custody, so they
     are owed upward: call before the merge. A snapshot in a [Reply] or
     [Share] is absorbed into custody right after its merge instead;
     only the [Full] ablation's snapshot reports enumerate here. *)
  let owe v = if not (Knowledge.knows st.knowledge v) then ignore (Cset.add st.owed v) in
  let settle v = ignore (Cset.remove st.owed v) in
  let owe_fresh (d : Payload.data) =
    match d with
    | Payload.Bits b -> Cset.iter owe b.set
    | Payload.Ids ids -> Array.iter owe ids
    | Payload.Delta s -> Intvec.slice_iter owe s
    | Payload.Updates u ->
      for i = 0 to u.count - 1 do
        owe (Payload.update_node u.entries i)
      done
  in
  (* A full snapshot's contents stay in the sharer's custody — the
     sharer either reports them down-rank itself or, if it is a head,
     hands over its backlog when it retires. Only the sharer's own
     existence must keep flowing upward, so it is owed again when the
     snapshot came from a foreign node. Small explicit lists
     (introductions) are head identifiers that must propagate and stay
     owed. *)
  let absorb_custody (b : Knowledge.snap) =
    match st.last_custody with
    | Some p when p == b -> ()
    | _ ->
      ignore (Cset.diff_into ~dst:st.owed ~src:b.set);
      st.last_custody <- Some b
  in
  let note_custody ~src d =
    match (d : Payload.data) with
    | Payload.Bits b ->
      absorb_custody b;
      if src <> st.report_target then begin
        ignore (Cset.add st.owed src);
        (* Bulk-merged ids do not enter the learn order, but the
           sharer's own existence is now in our custody and must flow
           upward: make it an explicit learn. *)
        Knowledge.note_explicit st.knowledge src
      end
    | Payload.Ids _ | Payload.Delta _ | Payload.Updates _ -> ()
  in
  (* Quiescence is reversible: a message that teaches anything new, or
     contact from a node we have never heard of (a late joiner), wakes a
     halted node so the system re-converges and re-halts — without this,
     churn arriving after the Halt wave would be stranded. *)
  let wake () =
    if st.halted then begin
      st.halted <- false;
      st.quiet_rounds <- 0
    end
  in
  let receive ~src payload =
    if Cset.mem st.suspects src then ignore (Cset.remove st.suspects src);
    if src = st.report_target then st.silence <- 0;
    match (payload : Payload.t) with
    | Exchange d ->
      if Payload.data_size d > 0 then st.saw_new_info <- true;
      if not (Knowledge.knows st.knowledge src) then wake ();
      owe_fresh d;
      if Payload.merge_data st.knowledge d > 0 then wake ();
      if Knowledge.add st.knowledge src then ignore (Cset.add st.owed src);
      Intvec.push st.pending_replies src
    | Reply d when src = st.report_target -> (
      if Payload.merge_data st.knowledge d > 0 then wake ();
      (if st.prev_sent > st.acked_upto then st.acked_upto <- st.prev_sent);
      match d with
      | Payload.Bits b -> absorb_custody b
      | Payload.Ids ids -> Array.iter settle ids
      | Payload.Delta s -> Intvec.slice_iter settle s
      | Payload.Updates u ->
        for i = 0 to u.count - 1 do
          settle (Payload.update_node u.entries i)
        done)
    | Reply d | Share d ->
      (match d with Payload.Bits _ -> () | _ -> owe_fresh d);
      if Payload.merge_data st.knowledge d > 0 then wake ();
      note_custody ~src d
    | Probe ->
      if not (Knowledge.knows st.knowledge src) then wake ();
      if Knowledge.add st.knowledge src then ignore (Cset.add st.owed src);
      Intvec.push st.pending_replies src
    | Halt -> st.halted <- true
    | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = (fun () -> st.halted) }

let variant_name ~broadcast ~upward =
  let b =
    match broadcast with All -> "" | Cap k -> Printf.sprintf ":cap:%d" k | Off -> ":nobroadcast"
  in
  let u =
    match upward with Delta -> "" | Full -> ( match broadcast with All -> ":full" | _ -> "/full")
  in
  "hm" ^ b ^ u

let with_variant ?(broadcast = All) ?(upward = Delta) () =
  (match broadcast with
  | Cap k when k < 1 -> invalid_arg "Hm_gossip.with_variant: cap must be >= 1"
  | _ -> ());
  {
    Algorithm.name = variant_name ~broadcast ~upward;
    description = "Haeupler-Malkhi sub-logarithmic discovery (ablation variant)";
    make = make_with ~broadcast ~upward;
  }

let algorithm =
  {
    Algorithm.name = "hm";
    description =
      "Haeupler-Malkhi sub-logarithmic discovery: rank-based cluster convergecast with head \
       broadcast";
    make = make_with ~broadcast:All ~upward:Delta;
  }
