open Repro_graph
open Repro_engine

type completion = Exec.completion = Strong | Survivors_strong | Leader | Quiescent

type result = {
  algorithm : string;
  n : int;
  seed : int;
  completed : bool;
  rounds : int;
  messages : int;
  pointers : int;
  bytes : int;
  delivered : int;
  dropped : int;
  max_round_messages : int;
  mean_knowledge_series : float array;
  metrics : Metrics.t;
  alive : bool array;
}

type spec = {
  seed : int;
  fault : Fault.t;
  completion : completion;
  max_rounds : int option;
  track_growth : bool;
  encoding : Wire.encoding;
  trace : Trace.sink;
  jobs : int;
}

let default_spec =
  {
    seed = 0;
    fault = Fault.none;
    completion = Strong;
    max_rounds = None;
    track_growth = false;
    encoding = Wire.Adaptive;
    trace = Trace.null;
    jobs = 1;
  }

let exec_spec spec (algo : Algorithm.t) topology =
  let { seed; fault; completion; max_rounds; track_growth; encoding; trace; jobs } = spec in
  let n = Topology.n topology in
  let max_rounds = match max_rounds with Some m -> m | None -> (4 * n) + 64 in
  let labels, instances = Exec.instances ~seed algo topology in
  let handlers = Adversary.wrap ~fault ~n (Exec.handlers instances) in
  let on_deliver, genesis = Adversary.audit ~fault ~trace instances in
  (* Completion predicates quantify over alive nodes, so they could fire
     while scheduled joiners are still offline; gate them on the last
     join having happened. *)
  let last_join = Exec.last_join_round fault in
  let stop ~round ~alive =
    round >= last_join && Exec.satisfied completion ~labels ~instances ~alive
  in
  let growth = ref [] in
  let on_round_end ~round:_ =
    if track_growth then begin
      let total = ref 0 in
      Array.iter
        (fun inst -> total := !total + Knowledge.cardinal inst.Algorithm.knowledge)
        instances;
      growth := (float_of_int !total /. float_of_int (max 1 n)) :: !growth
    end
  in
  let config = { Sim.max_rounds; fault; engine_seed = seed; trace; jobs } in
  let measure_bytes = Wire.sizer encoding ~universe:n in
  let on_restart ~node =
    Exec.restart_instance ~seed ~labels algo topology instances ~node;
    (* a restart resets the node's provenance to its initial knowledge *)
    genesis ~node
  in
  let outcome =
    Sim.run ~n ~config ~handlers ~measure:Payload.measure ~measure_bytes ~stop ~on_round_end
      ~on_restart ?on_deliver ()
  in
  {
    algorithm = algo.Algorithm.name;
    n;
    seed;
    completed = outcome.Sim.completed;
    rounds = outcome.Sim.rounds;
    messages = Metrics.messages_sent outcome.Sim.metrics;
    pointers = Metrics.pointers_sent outcome.Sim.metrics;
    bytes = Metrics.bytes_sent outcome.Sim.metrics;
    delivered = Metrics.messages_delivered outcome.Sim.metrics;
    dropped = Metrics.messages_dropped outcome.Sim.metrics;
    max_round_messages = Metrics.max_messages_in_round outcome.Sim.metrics;
    mean_knowledge_series = Array.of_list (List.rev !growth);
    metrics = outcome.Sim.metrics;
    alive = outcome.Sim.alive;
  }
