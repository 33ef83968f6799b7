
type state = { knowledge : Knowledge.t; neighbors : int array; mutable sent_upto : int }

let make (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge; neighbors = ctx.neighbors; sent_upto = 0 } in
  let round ~round:_ ~send =
    (* Send only fresh knowledge; silence once there is nothing new.
       [sent_upto] starts at 0 so the first round floods the full initial
       knowledge (self + neighbors). The mark comparison makes the
       steady-state round allocation-free, and the delta itself is a
       zero-copy slice of the learn order, shared across all neighbors. *)
    let m = Knowledge.mark st.knowledge in
    if m > st.sent_upto then begin
      let msg =
        Payload.Share (Payload.Delta (Knowledge.since_slice st.knowledge ~mark:st.sent_upto))
      in
      st.sent_upto <- m;
      Array.iter (fun dst -> send ~dst msg) st.neighbors
    end
  in
  let receive ~src:_ payload =
    match (payload : Payload.t) with
    | Share d | Exchange d | Reply d -> ignore (Payload.merge_data st.knowledge d)
    | Probe | Halt | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = Algorithm.never_quiescent }

let algorithm =
  {
    Algorithm.name = "flooding";
    description = "HLL99 flooding: forward new knowledge along initial edges";
    make;
  }
