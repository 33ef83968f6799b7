open Repro_discovery

let names (l : Algorithm.t list) = List.map (fun a -> a.Algorithm.name) l

let test_all () =
  Alcotest.(check (list string)) "catalogue order"
    [ "flooding"; "swamping"; "pointer_jump"; "name_dropper"; "min_pointer"; "rand_gossip"; "hm" ]
    (names Registry.all);
  Alcotest.(check (list string)) "baselines exclude hm"
    [ "flooding"; "swamping"; "pointer_jump"; "name_dropper"; "min_pointer"; "rand_gossip" ]
    (names Registry.baselines);
  Alcotest.(check (list string)) "names()" (names Registry.all) (Registry.names ())

let find_ok name =
  match Registry.find name with
  | Ok a -> a
  | Error e -> Alcotest.failf "find %S failed: %s" name e

let test_find_primary () =
  List.iter
    (fun n -> Alcotest.(check string) "resolves" n (find_ok n).Algorithm.name)
    (Registry.names ())

let test_find_aliases () =
  List.iter
    (fun (alias, expected) ->
      Alcotest.(check string) alias expected (find_ok alias).Algorithm.name)
    [ ("hm_gossip", "hm"); ("haeupler_malkhi", "hm") ]

let test_find_rand_specs () =
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check string) spec expected (find_ok spec).Algorithm.name)
    [
      ("rand:push/f1", "rand:push/f1");
      ("rand:push_pull/f4", "rand:push_pull/f4");
      ("rand:pull/f2/nbr", "rand:pull/f2/nbr");
      ("rand:push/f1/delta", "rand:push/f1/delta");
    ]

let test_find_hm_specs () =
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check string) spec expected (find_ok spec).Algorithm.name)
    [
      ("hm:full", "hm:full");
      ("hm:cap:4", "hm:cap:4");
      ("hm:nobroadcast", "hm:nobroadcast");
      ("hm:cap:2/full", "hm:cap:2/full");
    ]

let test_find_errors () =
  List.iter
    (fun spec ->
      match Registry.find spec with
      | Ok a -> Alcotest.failf "expected failure for %S, got %s" spec a.Algorithm.name
      | Error _ -> ())
    [ "bogus"; "rand:warp/f1"; "rand:push/f0"; "hm:cap:0"; "hm:bogus"; "hm:" ]

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  at 0

let test_near_miss_suggestions () =
  let error name =
    match Registry.find name with
    | Ok a -> Alcotest.failf "expected failure for %S, got %s" name a.Algorithm.name
    | Error e -> e
  in
  List.iter
    (fun (name, expected) ->
      let e = error name in
      if not (contains ~sub:(Printf.sprintf "did you mean %S" expected) e) then
        Alcotest.failf "error for %S does not suggest %S: %s" name expected e)
    [
      ("hmgossip", "hm");  (* mangled module-style name contains the real name *)
      ("floding", "flooding");  (* typo within edit distance 2 *)
      ("rand", "rand_gossip");  (* truncation *)
      ("name_droper", "name_dropper");
    ];
  (* hopeless queries get the catalogue but no bogus suggestion *)
  let e = error "warp" in
  if contains ~sub:"did you mean" e then Alcotest.failf "unexpected suggestion for warp: %s" e;
  if not (contains ~sub:"known:" e) then Alcotest.failf "catalogue missing from error: %s" e

let test_parse_doc () =
  let doc = Registry.parse_doc () in
  List.iter
    (fun sub ->
      if not (contains ~sub doc) then Alcotest.failf "parse_doc missing %S: %s" sub doc)
    (Registry.names () @ [ "rand:"; "hm:cap:" ])

let test_spec_algorithms_run () =
  (* every parseable spec must produce a runnable algorithm *)
  let topo = Repro_graph.Generate.of_seed (Repro_graph.Generate.K_out 3) ~n:48 ~seed:1 in
  List.iter
    (fun spec ->
      let algo = find_ok spec in
      let r =
        Run.exec_spec { Run.default_spec with Run.seed = 1; max_rounds = Some 500 } algo topo
      in
      Alcotest.(check bool) (spec ^ " runs") true (r.Run.rounds > 0))
    [ "rand:push/f2"; "hm:cap:8"; "hm:full" ]

let () =
  Alcotest.run "registry"
    [
      ( "catalogue",
        [
          Alcotest.test_case "all/baselines" `Quick test_all;
          Alcotest.test_case "find primary" `Quick test_find_primary;
          Alcotest.test_case "module-style aliases" `Quick test_find_aliases;
        ] );
      ( "specs",
        [
          Alcotest.test_case "rand specs" `Quick test_find_rand_specs;
          Alcotest.test_case "hm specs" `Quick test_find_hm_specs;
          Alcotest.test_case "errors" `Quick test_find_errors;
          Alcotest.test_case "near-miss suggestions" `Quick test_near_miss_suggestions;
          Alcotest.test_case "parse doc" `Quick test_parse_doc;
          Alcotest.test_case "spec algorithms run" `Quick test_spec_algorithms_run;
        ] );
    ]
