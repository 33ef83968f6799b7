open Repro_util

type state = { knowledge : Knowledge.t; pending_replies : Intvec.t }

let make (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge; pending_replies = Intvec.create () } in
  let self = ctx.node in
  let round ~round:_ ~send =
    let snap = Payload.Bits (Knowledge.snapshot st.knowledge) in
    if not (Intvec.is_empty st.pending_replies) then begin
      let reply = Payload.Reply snap in
      Intvec.iter (fun dst -> send ~dst reply) st.pending_replies;
      Intvec.clear st.pending_replies
    end;
    let leader = Knowledge.min_known_raw st.knowledge in
    if leader <> self then send ~dst:leader (Payload.Exchange snap)
    else if Knowledge.cardinal st.knowledge > 1 then begin
      (* This node is a root (local minimum of its knowledge). Roots never
         have a smaller node to report to, so they do the spreading work
         instead: broadcast to everything they know. This both merges
         "min islands" that are only weakly connected (a root that learns
         of a foreign node introduces itself, letting knowledge of a
         smaller root flow back) and performs the final dissemination once
         the global minimum knows everyone. *)
      let msg = Payload.Share snap in
      Knowledge.iter_known st.knowledge (fun dst -> if dst <> self then send ~dst msg)
    end
  in
  let receive ~src payload =
    match (payload : Payload.t) with
    | Exchange d ->
      ignore (Payload.merge_data st.knowledge d);
      Intvec.push st.pending_replies src
    | Share d | Reply d -> ignore (Payload.merge_data st.knowledge d)
    | Probe -> Intvec.push st.pending_replies src
    | Halt | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = Algorithm.never_quiescent }

let algorithm =
  {
    Algorithm.name = "min_pointer";
    description =
      "deterministic KPV-style convergecast: knowledge flows to the minimum known label, roots \
       broadcast";
    make;
  }
