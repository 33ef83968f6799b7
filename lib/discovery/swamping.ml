type state = { knowledge : Knowledge.t }

let make (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge } in
  let self = ctx.node in
  (* One message per knowledge state, shared across the whole fan-out
     and across rounds: the snapshot is an O(1) frozen view of the live
     set, and re-wrapping it is skipped while the knowledge version is
     stable — a steady-state broadcast round allocates nothing at all. *)
  let msg = ref (Payload.Share Payload.empty_delta) in
  let msg_version = ref (-1) in
  let round ~round:_ ~send =
    if Knowledge.cardinal st.knowledge > 1 then begin
      let v = Knowledge.version st.knowledge in
      if !msg_version <> v then begin
        msg := Payload.Share (Payload.Bits (Knowledge.snapshot st.knowledge));
        msg_version := v
      end;
      let msg = !msg in
      Knowledge.iter_known st.knowledge (fun dst -> if dst <> self then send ~dst msg)
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
    Algorithm.name = "swamping";
    description = "HLL99 swamping: full knowledge to all current neighbors (graph squaring)";
    make;
  }
