open Repro_graph

let test_singletons () =
  let uf = Unionfind.create 5 in
  Alcotest.(check int) "count" 5 (Unionfind.count uf);
  for i = 0 to 4 do
    Alcotest.(check int) "own root" i (Unionfind.find uf i)
  done

let test_union () =
  let uf = Unionfind.create 6 in
  Alcotest.(check bool) "merge" true (Unionfind.union uf 0 1);
  Alcotest.(check bool) "redundant merge" false (Unionfind.union uf 1 0);
  Alcotest.(check bool) "same" true (Unionfind.find uf 0 = Unionfind.find uf 1);
  Alcotest.(check bool) "not same" false (Unionfind.find uf 0 = Unionfind.find uf 2);
  ignore (Unionfind.union uf 2 3);
  ignore (Unionfind.union uf 1 3);
  Alcotest.(check bool) "transitively same" true (Unionfind.find uf 0 = Unionfind.find uf 2);
  Alcotest.(check int) "count" 3 (Unionfind.count uf)

let test_components () =
  let uf = Unionfind.create 6 in
  ignore (Unionfind.union uf 0 2);
  ignore (Unionfind.union uf 2 4);
  ignore (Unionfind.union uf 1 5);
  Alcotest.(check (list (list int))) "partition" [ [ 0; 2; 4 ]; [ 1; 5 ]; [ 3 ] ]
    (Unionfind.components uf)

let test_bounds () =
  let uf = Unionfind.create 3 in
  Alcotest.check_raises "out of range" (Invalid_argument "Unionfind: out of range") (fun () ->
      ignore (Unionfind.find uf 3))

let prop_equivalence_relation =
  QCheck2.Test.make ~name:"union-find agrees with naive component labelling" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 40 in
      let* edges = list_size (int_range 0 60) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))
    (fun (n, edges) ->
      let uf = Unionfind.create n in
      List.iter (fun (a, b) -> ignore (Unionfind.union uf a b)) edges;
      (* naive labelling by repeated relaxation *)
      let label = Array.init n (fun i -> i) in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min label.(a) label.(b) in
            if label.(a) <> m || label.(b) <> m then begin
              label.(a) <- m;
              label.(b) <- m;
              changed := true
            end)
          edges
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Unionfind.find uf a = Unionfind.find uf b <> (label.(a) = label.(b)) then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "unionfind"
    [
      ( "unit",
        [
          Alcotest.test_case "singletons" `Quick test_singletons;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_equivalence_relation ]);
    ]
