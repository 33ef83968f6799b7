(* Leader election as a by-product of resource discovery.

   Run with:  dune exec examples/leader_election.exe

   Discovery in its weak form — one node knows everyone and everyone
   knows it — is exactly leader election with a complete membership view
   at the leader, the primitive a cluster manager needs before it can
   assign work. hm's cluster structure elects the minimum random rank.

   This example drives the engine directly (rather than through
   Run.exec) to show the lower-level API: instantiating per-node
   algorithm state, wiring handlers, and inspecting node states after
   the run. It then verifies that all nodes agree on the elected leader
   and that the leader's membership view is complete. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery

let n = 512
let seed = 3

let () =
  let rng = Rng.substream ~seed ~index:1000 in
  let topology = Generate.clustered ~rng ~n ~clusters:8 ~intra_k:3 in
  Printf.printf "electing a coordinator among %d machines (8 datacenter pods)\n\n" n;

  (* per-node state: the label permutation is the shared random ranks *)
  let labels = Rng.permutation (Rng.substream ~seed ~index:0) n in
  let instances =
    Array.init n (fun node ->
        let ctx =
          {
            Algorithm.n;
            node;
            neighbors = Topology.out_neighbors topology node;
            labels;
            rng = Rng.substream ~seed ~index:(node + 1);
          }
        in
        Hm_gossip.algorithm.Algorithm.make ctx)
  in
  let handlers =
    {
      Sim.round_begin = (fun ~node ~round ~send -> instances.(node).Algorithm.round ~round ~send);
      deliver = (fun ~node ~src ~round:_ p -> instances.(node).Algorithm.receive ~src p);
    }
  in
  (* stop as soon as every node agrees on a complete-knowledge leader *)
  let leader_of v = Knowledge.min_known instances.(v).Algorithm.knowledge in
  let stop ~round:_ ~alive:_ =
    let candidate = leader_of 0 in
    Knowledge.is_complete instances.(candidate).Algorithm.knowledge
    && Array.for_all (fun i -> Knowledge.min_known i.Algorithm.knowledge = candidate)
         (Array.sub instances 0 n)
  in
  let outcome =
    Sim.run ~n ~config:Sim.default_config ~handlers ~measure:Payload.measure ~stop ()
  in

  let leader = leader_of 0 in
  Printf.printf "elected leader: node %d (rank %d) after %d rounds\n" leader labels.(leader)
    outcome.Sim.rounds;
  Printf.printf "leader's membership view: %d/%d machines\n"
    (Knowledge.cardinal instances.(leader).Algorithm.knowledge)
    n;
  let agreed =
    Array.for_all (fun i -> Knowledge.min_known i.Algorithm.knowledge = leader) instances
  in
  Printf.printf "all %d machines agree on the leader: %b\n" n agreed;
  Printf.printf "messages: %d (%.1f per machine)\n"
    (Metrics.messages_sent outcome.Sim.metrics)
    (float_of_int (Metrics.messages_sent outcome.Sim.metrics) /. float_of_int n);

  (* sanity: the elected node is the global minimum rank *)
  let true_min = ref 0 in
  Array.iteri (fun v l -> if l < labels.(!true_min) then true_min := v) labels;
  assert (leader = !true_min);
  print_endline "(the elected node is indeed the global minimum rank)"
