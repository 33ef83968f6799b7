open Repro_graph

let mem_edge t u v = Array.mem v (Topology.out_neighbors t u)

let test_create_dedups () =
  let t = Topology.create ~n:4 ~edges:[ (0, 1); (0, 1); (1, 1); (2, 3) ] in
  Alcotest.(check int) "edge count (dupes and self-loops dropped)" 2 (Topology.edge_count t);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (2, 3) ] (Topology.edges t)

let test_neighbors_sorted () =
  let t = Topology.create ~n:5 ~edges:[ (0, 4); (0, 1); (0, 3) ] in
  Alcotest.(check (array int)) "sorted" [| 1; 3; 4 |] (Topology.out_neighbors t 0);
  Alcotest.(check int) "degree" 3 (Topology.out_degree t 0);
  Alcotest.(check (array int)) "empty" [||] (Topology.out_neighbors t 2)

let test_neighbors_fresh () =
  let t = Topology.create ~n:3 ~edges:[ (0, 1) ] in
  let a = Topology.out_neighbors t 0 in
  a.(0) <- 99;
  Alcotest.(check (array int)) "fresh array each call" [| 1 |] (Topology.out_neighbors t 0)

let test_mem_edge () =
  let t = Topology.create ~n:6 ~edges:[ (0, 1); (0, 3); (0, 5); (2, 4) ] in
  Alcotest.(check bool) "present" true (mem_edge t 0 3);
  Alcotest.(check bool) "absent" false (mem_edge t 0 2);
  Alcotest.(check bool) "reverse absent" false (mem_edge t 1 0)

let test_validation () =
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Topology.create: edge endpoint out of range") (fun () ->
      ignore (Topology.create ~n:2 ~edges:[ (0, 2) ]));
  Alcotest.check_raises "negative n" (Invalid_argument "Topology.create: negative size")
    (fun () -> ignore (Topology.create ~n:(-1) ~edges:[]))

let prop_csr_roundtrip =
  QCheck2.Test.make ~name:"edges roundtrip through CSR" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 30 in
      let* edges = list_size (int_range 0 80) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))
    (fun (n, edges) ->
      let expected = List.sort_uniq compare (List.filter (fun (u, v) -> u <> v) edges) in
      let t = Topology.create ~n ~edges in
      Topology.edges t = expected
      && Topology.edge_count t = List.length expected
      && List.for_all (fun (u, v) -> mem_edge t u v) expected)

let () =
  Alcotest.run "topology"
    [
      ( "unit",
        [
          Alcotest.test_case "create dedups" `Quick test_create_dedups;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "neighbors fresh" `Quick test_neighbors_fresh;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_csr_roundtrip ]);
    ]
