(* Exhaustive verification on small universes: every weakly-connected
   directed knowledge graph on 3 and 4 nodes (there are 4,096 edge
   subsets on 4 nodes alone), every push-capable algorithm, two seeds —
   a miniature model checker for completion. Small worlds are where
   structural corner cases (islands, one-way sinks, asymmetric pockets)
   actually live; the custody bug fixed during development shows up on a
   1,024-node path but has 4-node analogues. *)

open Repro_graph
open Repro_discovery

let all_digraphs n =
  let pairs =
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u <> v then Some (u, v) else None) (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let m = List.length pairs in
  List.init (1 lsl m) (fun mask ->
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pairs)

let connected_topologies n =
  List.filter_map
    (fun edges ->
      let t = Topology.create ~n ~edges in
      if Analyze.is_weakly_connected t then Some t else None)
    (all_digraphs n)

let algorithms =
  [
    Swamping.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
    Rand_gossip.algorithm;
    Hm_gossip.algorithm;
  ]

(* The model checker doubles as a stress test for the trace invariants:
   every one of the thousands of runs below executes under the online
   checker. *)
let checked_exec spec algo topo =
  let inv = Repro_engine.Trace.Invariants.create () in
  let r =
    Run.exec_spec { spec with Run.trace = Repro_engine.Trace.Invariants.sink inv } algo topo
  in
  Repro_engine.Trace.Invariants.final_check inv r.Run.metrics;
  r

let exhaustive n () =
  let topologies = connected_topologies n in
  Alcotest.(check bool)
    (Printf.sprintf "many connected digraphs on %d nodes" n)
    true
    (List.length topologies > (1 lsl (n * (n - 1))) / 4);
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iteri
        (fun i topology ->
          List.iter
            (fun seed ->
              let r =
                checked_exec
                  { Run.default_spec with Run.seed; max_rounds = Some 300 }
                  algo topology
              in
              if not r.Run.completed then
                Alcotest.failf "%s failed on %d-node digraph #%d seed=%d (edges: %s)"
                  algo.Algorithm.name n i seed
                  (String.concat ","
                     (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) (Topology.edges topology))))
            [ 1; 2 ])
        topologies)
    algorithms

(* Flooding pushes knowledge along initial out-edges only, and an
   identifier u starts out held by u and by every in-neighbour of u (they
   know u). So flooding completes exactly when, for every pair (u, w),
   node w is out-reachable from some initial holder of u — a precise
   characterisation we can check exhaustively. *)
let flooding_characterisation () =
  let flooding_can_complete t =
    let n = Topology.n t in
    let reach = Array.make n [||] in
    for s = 0 to n - 1 do
      let seen = Array.make n false in
      let rec go v =
        if not seen.(v) then begin
          seen.(v) <- true;
          Array.iter go (Topology.out_neighbors t v)
        end
      in
      go s;
      reach.(s) <- Array.copy seen
    done;
    let holders u =
      u :: List.filter (fun v -> Array.mem u (Topology.out_neighbors t v)) (List.init n Fun.id)
    in
    List.for_all
      (fun u ->
        List.for_all
          (fun w -> List.exists (fun h -> reach.(h).(w)) (holders u))
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  List.iteri
    (fun i topology ->
      let r =
        checked_exec
          { Run.default_spec with Run.seed = 1; max_rounds = Some 100 }
          Flooding.algorithm topology
      in
      let expected = flooding_can_complete topology in
      if r.Run.completed <> expected then
        Alcotest.failf "flooding on 3-node digraph #%d: completed=%b but reachability says %b" i
          r.Run.completed expected)
    (connected_topologies 3)

let () =
  Alcotest.run "exhaustive"
    [
      ( "completion on all small digraphs",
        [
          Alcotest.test_case "3-node universe" `Quick (exhaustive 3);
          Alcotest.test_case "4-node universe" `Slow (exhaustive 4);
        ] );
      ( "flooding characterisation",
        [ Alcotest.test_case "completes iff holder-reachability holds" `Quick flooding_characterisation ]
      );
    ]
