type state = { knowledge : Knowledge.t }

let make (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge } in
  let round ~round:_ ~send =
    match Knowledge.random_known st.knowledge ctx.rng with
    | Some dst -> send ~dst (Payload.Share (Payload.Bits (Knowledge.snapshot st.knowledge)))
    | None -> ()
  in
  let receive ~src:_ payload =
    match (payload : Payload.t) with
    | Share d | Exchange d | Reply d -> ignore (Payload.merge_data st.knowledge d)
    | Probe | Halt | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = Algorithm.never_quiescent }

let algorithm =
  {
    Algorithm.name = "name_dropper";
    description = "HLL99 Name-Dropper: push full knowledge to one random known node";
    make;
  }
