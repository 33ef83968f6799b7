open Repro_util

type state = {
  knowledge : Knowledge.t;
  pending_replies : Intvec.t;  (* exchange/probe senders owed a reply *)
  mutable pushed_upto : int;  (* high-water mark for delta pushes *)
}

let partners (params : Params.t) (ctx : Algorithm.ctx) st =
  match params.partner with
  | Params.Uniform_known -> Knowledge.random_known_among st.knowledge ctx.rng ~k:params.fanout
  | Params.Initial_neighbor ->
    if Array.length ctx.neighbors = 0 then [||]
    else
      Array.init (min params.fanout (Array.length ctx.neighbors)) (fun _ ->
          Rng.pick ctx.rng ctx.neighbors)

let make_with params (ctx : Algorithm.ctx) =
  let knowledge = Algorithm.initial_knowledge ctx in
  let st = { knowledge; pending_replies = Intvec.create (); pushed_upto = 0 } in
  let push_data () =
    if params.Params.delta then begin
      let mark = st.pushed_upto in
      st.pushed_upto <- Knowledge.mark st.knowledge;
      if st.pushed_upto = mark then Payload.empty_delta
      else Payload.Delta (Knowledge.since_slice st.knowledge ~mark)
    end
    else Payload.Bits (Knowledge.snapshot st.knowledge)
  in
  let round ~round:_ ~send =
    (* Replies first: full knowledge, one shared reply message. Replies
       do not themselves trigger replies. *)
    if not (Intvec.is_empty st.pending_replies) then begin
      let reply = Payload.Reply (Payload.Bits (Knowledge.snapshot st.knowledge)) in
      Intvec.iter (fun dst -> send ~dst reply) st.pending_replies;
      Intvec.clear st.pending_replies
    end;
    let targets = partners params ctx st in
    if Array.length targets > 0 then begin
      match params.Params.mode with
      | Params.Push ->
        let msg = Payload.Share (push_data ()) in
        Array.iter (fun dst -> send ~dst msg) targets
      | Params.Pull -> Array.iter (fun dst -> send ~dst Payload.Probe) targets
      | Params.Push_pull ->
        let msg = Payload.Exchange (push_data ()) in
        Array.iter (fun dst -> send ~dst msg) targets
    end
  in
  let receive ~src payload =
    match (payload : Payload.t) with
    | Share d | Reply d -> ignore (Payload.merge_data st.knowledge d)
    | Exchange d ->
      ignore (Payload.merge_data st.knowledge d);
      ignore (Knowledge.add st.knowledge src);
      Intvec.push st.pending_replies src
    | Probe ->
      ignore (Knowledge.add st.knowledge src);
      Intvec.push st.pending_replies src
    | Halt | Probe_req _ | Probe_ack _ | Suspicion _ | Sync _ -> ()
  in
  { Algorithm.knowledge; round; receive; is_quiescent = Algorithm.never_quiescent }

let with_params params =
  match Params.validate params with
  | Error msg -> invalid_arg ("Rand_gossip.with_params: " ^ msg)
  | Ok params ->
    {
      Algorithm.name = Printf.sprintf "rand:%s" (Params.describe params);
      description = "flat direct-addressing gossip (ablation variant)";
      make = make_with params;
    }

let algorithm =
  {
    Algorithm.name = "rand_gossip";
    description =
      "flat push-pull gossip with direct addressing (log-n comparison point)";
    make = make_with Params.default;
  }
