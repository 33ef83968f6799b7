(* Tests for the topology generators: structure, connectivity,
   determinism and name parsing. *)

open Repro_util
open Repro_graph

let rng () = Rng.create ~seed:12345

(* A family at size [n], built the way every program builds one. *)
let gen family n = Generate.build family ~rng:(rng ()) ~n

let mem_edge t u v = Array.mem v (Topology.out_neighbors t u)

let test_path () =
  let t = Generate.path 5 in
  Alcotest.(check int) "edges" 8 (Topology.edge_count t);
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  Alcotest.(check int) "diameter" 4 (Analyze.weak_diameter_exact t);
  Alcotest.(check (array int)) "end degree" [| 1 |] (Topology.out_neighbors t 0)

let test_directed_path () =
  let t = gen Generate.Directed_path 4 in
  Alcotest.(check int) "edges" 3 (Topology.edge_count t);
  Alcotest.(check bool) "weakly connected" true (Analyze.is_weakly_connected t);
  Alcotest.(check int) "last node degree" 0 (Topology.out_degree t 3)

let test_cycles () =
  let t = gen Generate.Cycle 6 in
  Alcotest.(check int) "cycle edges" 12 (Topology.edge_count t);
  Alcotest.(check int) "cycle diameter" 3 (Analyze.weak_diameter_exact t);
  let d = gen Generate.Directed_cycle 6 in
  Alcotest.(check int) "dcycle edges" 6 (Topology.edge_count d);
  Alcotest.(check bool) "dcycle connected" true (Analyze.is_weakly_connected d)

let test_stars () =
  let t = gen Generate.Star 10 in
  Alcotest.(check int) "star center degree" 9 (Topology.out_degree t 0);
  Alcotest.(check int) "star diameter" 2 (Analyze.weak_diameter_exact t);
  let i = gen Generate.Inward_star 10 in
  Alcotest.(check int) "instar center out-degree" 0 (Topology.out_degree i 0);
  Alcotest.(check int) "instar leaf out-degree" 1 (Topology.out_degree i 5);
  Alcotest.(check bool) "instar weakly connected" true (Analyze.is_weakly_connected i)

let test_complete () =
  let t = Generate.complete 7 in
  Alcotest.(check int) "edges" 42 (Topology.edge_count t);
  Alcotest.(check int) "diameter" 1 (Analyze.weak_diameter_exact t)

let test_binary_tree () =
  let t = gen Generate.Binary_tree 15 in
  Alcotest.(check int) "edges" 28 (Topology.edge_count t);
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  Alcotest.(check int) "diameter" 6 (Analyze.weak_diameter_exact t)

let test_grid () =
  let t = Generate.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "nodes" 12 (Topology.n t);
  (* 3*3 vertical + 2*4 horizontal undirected edges, stored both ways *)
  Alcotest.(check int) "edges" 34 (Topology.edge_count t);
  Alcotest.(check int) "diameter" 5 (Analyze.weak_diameter_exact t)

let test_hypercube () =
  let t = gen Generate.Hypercube 16 in
  Alcotest.(check int) "nodes" 16 (Topology.n t);
  Alcotest.(check int) "edges" (16 * 4) (Topology.edge_count t);
  Alcotest.(check int) "diameter" 4 (Analyze.weak_diameter_exact t)

let test_lollipop () =
  let t = gen Generate.Lollipop 10 in
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* clique of 5 + path of 5 hanging off it *)
  Alcotest.(check int) "diameter" 6 (Analyze.weak_diameter_exact t)

let test_k_out () =
  let t = Generate.k_out ~rng:(rng ()) ~n:200 ~k:3 in
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* acquaintance is symmetric *)
  List.iter
    (fun (u, v) ->
      if not (mem_edge t v u) then Alcotest.failf "edge %d->%d not symmetric" u v)
    (Topology.edges t);
  (* every node picked k distinct targets, so out-degree >= k *)
  for v = 0 to 199 do
    if Topology.out_degree t v < 3 then Alcotest.failf "node %d degree < k" v
  done

let test_k_out_validation () =
  Alcotest.check_raises "k too large" (Invalid_argument "Generate.k_out: need 1 <= k < n")
    (fun () -> ignore (Generate.k_out ~rng:(rng ()) ~n:3 ~k:3))

let test_erdos_renyi () =
  let t = gen (Generate.Erdos_renyi 0.01) 300 in
  Alcotest.(check bool) "connected (stitched)" true (Analyze.is_weakly_connected t);
  let sparse = gen (Generate.Erdos_renyi 0.0) 50 in
  Alcotest.(check bool) "p=0 still stitched" true (Analyze.is_weakly_connected sparse)

let test_clustered () =
  let t = Generate.clustered ~rng:(rng ()) ~n:120 ~clusters:6 ~intra_k:2 in
  Alcotest.(check int) "nodes" 120 (Topology.n t);
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t)

let test_seeded_directory () =
  let t = Generate.seeded_directory ~rng:(rng ()) ~n:100 ~seeds:8 ~fanout:2 in
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* seed tier is a clique *)
  Alcotest.(check int) "seed degree" 7 (Topology.out_degree t 0);
  (* clients only know seeds *)
  for v = 8 to 99 do
    Array.iter
      (fun u -> if u >= 8 then Alcotest.failf "client %d knows non-seed %d" v u)
      (Topology.out_neighbors t v);
    Alcotest.(check int) "client fanout" 2 (Topology.out_degree t v)
  done

let test_barabasi_albert () =
  let t = gen (Generate.Barabasi_albert 2) 500 in
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* scale-free: the max degree should dwarf the mean *)
  let s = Analyze.degree_stats t in
  Alcotest.(check bool) "hub exists" true (s.Stats.max > 4.0 *. s.Stats.mean);
  List.iter
    (fun (u, v) ->
      if not (mem_edge t v u) then Alcotest.failf "edge %d->%d not symmetric" u v)
    (Topology.edges t);
  Alcotest.check_raises "m >= 1" (Invalid_argument "Generate.barabasi_albert: m must be >= 1")
    (fun () -> ignore (gen (Generate.Barabasi_albert 0) 10))

let test_watts_strogatz () =
  (* beta = 0 is exactly the ring lattice *)
  let lattice = gen (Generate.Watts_strogatz (2, 0.0)) 50 in
  Alcotest.(check int) "lattice edges" 200 (Topology.edge_count lattice);
  Alcotest.(check int) "lattice diameter" 13 (Analyze.weak_diameter_exact lattice);
  (* rewiring shrinks the diameter *)
  let small_world = gen (Generate.Watts_strogatz (2, 0.2)) 200 in
  let ring = gen (Generate.Watts_strogatz (2, 0.0)) 200 in
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected small_world);
  Alcotest.(check bool) "small world" true
    (Analyze.weak_diameter_exact small_world < Analyze.weak_diameter_exact ring);
  Alcotest.check_raises "beta range"
    (Invalid_argument "Generate.watts_strogatz: beta out of range") (fun () ->
      ignore (gen (Generate.Watts_strogatz (1, 1.5)) 10))

let test_random_geometric () =
  let t = gen (Generate.Random_geometric 0.08) 300 in
  Alcotest.(check int) "nodes" 300 (Topology.n t);
  Alcotest.(check bool) "connected (stitched)" true (Analyze.is_weakly_connected t);
  (* a big radius approaches the complete graph *)
  let dense = gen (Generate.Random_geometric 2.0) 40 in
  Alcotest.(check int) "full radius is complete" (40 * 39) (Topology.edge_count dense);
  Alcotest.check_raises "radius positive"
    (Invalid_argument "Generate.random_geometric: radius must be positive") (fun () ->
      ignore (gen (Generate.Random_geometric 0.0) 10))

let test_determinism () =
  let a = Generate.k_out ~rng:(Rng.create ~seed:9) ~n:100 ~k:2 in
  let b = Generate.k_out ~rng:(Rng.create ~seed:9) ~n:100 ~k:2 in
  let c = Generate.k_out ~rng:(Rng.create ~seed:10) ~n:100 ~k:2 in
  Alcotest.(check bool) "same seed same graph" true (Topology.edges a = Topology.edges b);
  Alcotest.(check bool) "different seed different graph" true (Topology.edges a <> Topology.edges c)

let test_sorted_chain () =
  let t = gen Generate.Sorted_chain 6 in
  Alcotest.(check int) "nodes" 6 (Topology.n t);
  (* every node except the minimum points one step DOWN the id order;
     nothing points up — that asymmetry is the worst case *)
  Alcotest.(check int) "edges" 5 (Topology.edge_count t);
  for v = 1 to 5 do
    Alcotest.(check bool) "points down" true (mem_edge t v (v - 1));
    Alcotest.(check bool) "never up" false (mem_edge t (v - 1) v)
  done;
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* degenerate sizes stay well-formed *)
  Alcotest.(check int) "singleton" 0 (Topology.edge_count (gen Generate.Sorted_chain 1))

let test_kniesburges () =
  let w = 3 and n = 12 in
  let t = gen (Generate.Kniesburges w) n in
  Alcotest.(check int) "nodes" n (Topology.n t);
  (* each node points w back (the interleaved sorted lists)... *)
  for v = w to n - 1 do
    Alcotest.(check bool) "list edge" true (mem_edge t v (v - w))
  done;
  (* ...and the w list heads are chained head-to-head *)
  for i = 0 to w - 2 do
    Alcotest.(check bool) "head chain" true (mem_edge t i (i + 1))
  done;
  Alcotest.(check int) "edge count" (n - w + (w - 1)) (Topology.edge_count t);
  Alcotest.(check bool) "connected" true (Analyze.is_weakly_connected t);
  (* w = 1 degenerates to the sorted chain *)
  Alcotest.(check bool)
    "w=1 is the sorted chain" true
    (Topology.edges (gen (Generate.Kniesburges 1) 8)
    = Topology.edges (gen Generate.Sorted_chain 8));
  Alcotest.check_raises "w must be positive"
    (Invalid_argument "Generate.kniesburges: need w >= 1") (fun () ->
      ignore (gen (Generate.Kniesburges 0) 8))

let test_adversarial_families () =
  (* every named worst case is buildable, connected, parseable by name —
     the contract the CLI, exp_adversarial and the chaos matrix rely on *)
  List.iter
    (fun f ->
      let name = Generate.family_name f in
      let t = Generate.build f ~rng:(rng ()) ~n:32 in
      if not (Analyze.is_weakly_connected t) then Alcotest.failf "%s not weakly connected" name;
      match Generate.family_of_string name with
      | Ok f' -> Alcotest.(check string) "name round-trips" name (Generate.family_name f')
      | Error e -> Alcotest.failf "failed to parse %s: %s" name e)
    Generate.adversarial_families;
  (* bare "kniesburges" defaults to the w = 8 instance *)
  match Generate.family_of_string "kniesburges" with
  | Ok f -> Alcotest.(check string) "default width" "kniesburges:8" (Generate.family_name f)
  | Error e -> Alcotest.fail e

let test_family_roundtrip () =
  List.iter
    (fun f ->
      match Generate.family_of_string (Generate.family_name f) with
      | Ok f' ->
        Alcotest.(check string) "roundtrip" (Generate.family_name f) (Generate.family_name f')
      | Error e -> Alcotest.failf "failed to parse %s: %s" (Generate.family_name f) e)
    Generate.all_families

let test_family_parse_errors () =
  List.iter
    (fun s ->
      match Generate.family_of_string s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ "nope"; "kout"; "kout:x"; "er:y"; "clustered:1"; "seeds:1:2:3" ]

let test_build_all_families () =
  List.iter
    (fun f ->
      let t = Generate.build f ~rng:(rng ()) ~n:64 in
      if not (Analyze.is_weakly_connected t) then
        Alcotest.failf "family %s not weakly connected" (Generate.family_name f);
      if Topology.n t > 64 then
        Alcotest.failf "family %s exceeded requested size" (Generate.family_name f))
    Generate.all_families

let prop_kout_connected_and_symmetric =
  QCheck2.Test.make ~name:"k_out graphs are symmetric and connected" ~count:50
    QCheck2.Gen.(
      let* n = int_range 5 150 in
      let* k = int_range 1 (min 4 (n - 1)) in
      let* seed = int_range 0 1000 in
      return (n, k, seed))
    (fun (n, k, seed) ->
      let t = Generate.k_out ~rng:(Rng.create ~seed) ~n ~k in
      Analyze.is_weakly_connected t
      && List.for_all (fun (u, v) -> mem_edge t v u) (Topology.edges t))

let () =
  Alcotest.run "generate"
    [
      ( "deterministic families",
        [
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "directed path" `Quick test_directed_path;
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "stars" `Quick test_stars;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "lollipop" `Quick test_lollipop;
          Alcotest.test_case "sorted chain" `Quick test_sorted_chain;
          Alcotest.test_case "kniesburges" `Quick test_kniesburges;
          Alcotest.test_case "adversarial families" `Quick test_adversarial_families;
        ] );
      ( "random families",
        [
          Alcotest.test_case "k_out" `Quick test_k_out;
          Alcotest.test_case "k_out validation" `Quick test_k_out_validation;
          Alcotest.test_case "erdos_renyi" `Quick test_erdos_renyi;
          Alcotest.test_case "clustered" `Quick test_clustered;
          Alcotest.test_case "seeded directory" `Quick test_seeded_directory;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
          Alcotest.test_case "random geometric" `Quick test_random_geometric;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "families",
        [
          Alcotest.test_case "name roundtrip" `Quick test_family_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_family_parse_errors;
          Alcotest.test_case "build all" `Quick test_build_all_families;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_kout_connected_and_symmetric ]);
    ]
