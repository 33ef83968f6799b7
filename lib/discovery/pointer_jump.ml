open Repro_util

type state = { knowledge : Knowledge.t; pending_replies : Intvec.t }

let make (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge; pending_replies = Intvec.create () } in
  let round ~round:_ ~send =
    (* answer last round's probes first; one shared reply message *)
    if not (Intvec.is_empty st.pending_replies) then begin
      let reply = Payload.Reply (Payload.Bits (Knowledge.snapshot st.knowledge)) in
      Intvec.iter (fun dst -> send ~dst reply) st.pending_replies;
      Intvec.clear st.pending_replies
    end;
    match Knowledge.random_known st.knowledge ctx.rng with
    | Some dst -> send ~dst Payload.Probe
    | None -> ()
  in
  let receive ~src payload =
    match (payload : Payload.t) with
    | Probe ->
      (* The probed node answers but does not incorporate the prober:
         HLL99's rule is Γ(v) ← Γ(v) ∪ Γ(u), one-directional — this is
         what makes RPJ degenerate (Θ(n)) on directed cycles. *)
      Intvec.push st.pending_replies src
    | Share d | Exchange d | Reply d -> ignore (Payload.merge_data st.knowledge d)
    | Halt | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = Algorithm.never_quiescent }

let algorithm =
  {
    Algorithm.name = "pointer_jump";
    description = "HLL99 random pointer jump: pull full knowledge from one random known node";
    make;
  }
