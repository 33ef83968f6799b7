open Repro_util
open Repro_graph

(* A deterministic family at size [n], as the programs build it. *)
let family f n = Generate.of_seed f ~n ~seed:0

let test_connectivity () =
  let connected = Topology.create ~n:4 ~edges:[ (0, 1); (2, 1); (3, 2) ] in
  Alcotest.(check bool) "weakly connected (directions ignored)" true
    (Analyze.is_weakly_connected connected);
  let split = Topology.create ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected" false (Analyze.is_weakly_connected split);
  let uf = Unionfind.create 4 in
  List.iter (fun (u, v) -> ignore (Unionfind.union uf u v)) (Topology.edges split);
  Alcotest.(check int) "components" 2 (Unionfind.count uf);
  Alcotest.(check bool) "singleton graph" true
    (Analyze.is_weakly_connected (Topology.create ~n:1 ~edges:[]));
  Alcotest.(check bool) "empty graph" true
    (Analyze.is_weakly_connected (Topology.create ~n:0 ~edges:[]))

let test_bfs () =
  let t = Generate.path 5 in
  Alcotest.(check (array int)) "path distances" [| 2; 1; 0; 1; 2 |]
    (Analyze.undirected_bfs t ~source:2);
  let split = Topology.create ~n:3 ~edges:[ (0, 1) ] in
  Alcotest.(check (array int)) "unreachable is -1" [| 0; 1; -1 |]
    (Analyze.undirected_bfs split ~source:0)

let test_bfs_ignores_direction () =
  let t = family Generate.Directed_path 4 in
  Alcotest.(check (array int)) "bfs from sink walks backwards" [| 3; 2; 1; 0 |]
    (Analyze.undirected_bfs t ~source:3)

let test_diameter_exact () =
  Alcotest.(check int) "path" 9 (Analyze.weak_diameter_exact (Generate.path 10));
  Alcotest.(check int) "cycle" 5 (Analyze.weak_diameter_exact (family Generate.Cycle 10));
  Alcotest.(check int) "star" 2 (Analyze.weak_diameter_exact (family Generate.Star 10));
  Alcotest.(check int) "complete" 1 (Analyze.weak_diameter_exact (Generate.complete 5));
  Alcotest.(check int) "singleton" 0 (Analyze.weak_diameter_exact (Generate.path 1));
  Alcotest.(check int) "disconnected" (-1)
    (Analyze.weak_diameter_exact (Topology.create ~n:3 ~edges:[ (0, 1) ]))

let test_diameter_estimate () =
  let rng = Rng.create ~seed:3 in
  (* double sweep is exact on trees and paths *)
  Alcotest.(check int) "path estimate exact" 99
    (Analyze.weak_diameter_estimate ~rng (Generate.path 100));
  Alcotest.(check int) "tree estimate exact"
    (Analyze.weak_diameter_exact (family Generate.Binary_tree 63))
    (Analyze.weak_diameter_estimate ~rng (family Generate.Binary_tree 63));
  Alcotest.(check int) "disconnected" (-1)
    (Analyze.weak_diameter_estimate ~rng (Topology.create ~n:3 ~edges:[ (0, 1) ]))

let test_estimate_is_lower_bound () =
  let rng = Rng.create ~seed:5 in
  for seed = 1 to 5 do
    let t = Generate.k_out ~rng:(Rng.create ~seed) ~n:80 ~k:2 in
    let exact = Analyze.weak_diameter_exact t in
    let est = Analyze.weak_diameter_estimate ~rng t in
    if est > exact then Alcotest.failf "estimate %d exceeds exact %d" est exact;
    if est <= 0 then Alcotest.failf "estimate not positive"
  done

let test_degree_stats () =
  let t = family Generate.Star 5 in
  let s = Analyze.degree_stats t in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check bool) "max is center" true (s.Stats.max = 4.0);
  Alcotest.(check bool) "min is leaf" true (s.Stats.min = 1.0);
  Alcotest.check_raises "empty graph" (Invalid_argument "Analyze.degree_stats: empty graph")
    (fun () -> ignore (Analyze.degree_stats (Topology.create ~n:0 ~edges:[])))

let prop_bfs_triangle_inequality =
  QCheck2.Test.make ~name:"bfs distances satisfy edge relaxation" ~count:100
    QCheck2.Gen.(
      let* n = int_range 2 40 in
      let* seed = int_range 0 500 in
      return (n, seed))
    (fun (n, seed) ->
      let t = Generate.k_out ~rng:(Rng.create ~seed) ~n ~k:(min 2 (n - 1)) in
      let d = Analyze.undirected_bfs t ~source:0 in
      List.for_all
        (fun (u, v) -> d.(u) >= 0 && d.(v) >= 0 && abs (d.(u) - d.(v)) <= 1)
        (Topology.edges t))

let () =
  Alcotest.run "analyze"
    [
      ( "unit",
        [
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs ignores direction" `Quick test_bfs_ignores_direction;
          Alcotest.test_case "diameter exact" `Quick test_diameter_exact;
          Alcotest.test_case "diameter estimate" `Quick test_diameter_estimate;
          Alcotest.test_case "estimate lower-bounds exact" `Quick test_estimate_is_lower_bound;
          Alcotest.test_case "degree stats" `Quick test_degree_stats;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality ]);
    ]
