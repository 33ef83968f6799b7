open Repro_util
open Repro_discovery

let mk ?(n = 10) ?(owner = 0) ?labels () =
  let labels = match labels with Some l -> l | None -> Array.init n (fun i -> i) in
  Knowledge.create ~n ~owner ~labels ()

let test_initial () =
  let k = mk ~owner:3 () in
  Alcotest.(check int) "owner" 3 (Knowledge.owner k);
  Alcotest.(check int) "universe" 10 (Knowledge.universe k);
  Alcotest.(check int) "cardinal" 1 (Knowledge.cardinal k);
  Alcotest.(check bool) "knows self" true (Knowledge.knows k 3);
  Alcotest.(check bool) "complete?" false (Knowledge.is_complete k);
  Alcotest.(check int) "min is self" 3 (Knowledge.min_known k);
  Alcotest.(check int) "raw min is self" 3 (Knowledge.min_known_raw k)

let test_validation () =
  Alcotest.check_raises "owner range" (Invalid_argument "Knowledge.create: owner out of range")
    (fun () -> ignore (Knowledge.create ~n:3 ~owner:3 ~labels:[| 0; 1; 2 |] ()));
  Alcotest.check_raises "labels length"
    (Invalid_argument "Knowledge.create: labels length mismatch") (fun () ->
      ignore (Knowledge.create ~n:3 ~owner:0 ~labels:[| 0; 1 |] ()))

let test_add_and_merge () =
  let k = mk () in
  Alcotest.(check bool) "new" true (Knowledge.add k 5);
  Alcotest.(check bool) "dup" false (Knowledge.add k 5);
  Alcotest.(check int) "merge_ids" 2 (Knowledge.merge_ids k [| 5; 6; 7 |]);
  let bits = Cset.of_array 10 [| 6; 8; 9 |] in
  Alcotest.(check int) "merge_bits" 2 (Knowledge.merge_bits k bits);
  Alcotest.(check int) "cardinal" 6 (Knowledge.cardinal k);
  Alcotest.(check (array int)) "contents" [| 0; 5; 6; 7; 8; 9 |]
    (Cset.to_array (Knowledge.contents k));
  (* bulk merges stay out of the learn order: only explicit learns enter *)
  Alcotest.(check (array int)) "learn order" [| 0; 5; 6; 7 |]
    (Intvec.slice_to_array (Knowledge.since_slice k ~mark:0))

let test_completion () =
  let k = mk ~n:3 () in
  ignore (Knowledge.merge_ids k [| 1; 2 |]);
  Alcotest.(check bool) "complete" true (Knowledge.is_complete k)

let test_min_tracking () =
  (* labels reverse the raw order: node 9 has label 0 *)
  let labels = Array.init 10 (fun i -> 9 - i) in
  let k = mk ~owner:5 ~labels () in
  Alcotest.(check int) "min initially self" 5 (Knowledge.min_known k);
  ignore (Knowledge.add k 3);
  (* label of 3 is 6 > label of 5 which is 4: min unchanged *)
  Alcotest.(check int) "min unchanged" 5 (Knowledge.min_known k);
  ignore (Knowledge.add k 8);
  (* label of 8 is 1 < 4 *)
  Alcotest.(check int) "min by label" 8 (Knowledge.min_known k);
  Alcotest.(check int) "min by raw id" 3 (Knowledge.min_known_raw k)

let test_min_excluding () =
  let labels = Array.init 10 (fun i -> 9 - i) in
  let k = mk ~owner:5 ~labels () in
  ignore (Knowledge.merge_ids k [| 8; 9; 3 |]);
  Alcotest.(check int) "unsuspected min" 9 (Knowledge.min_known k);
  let suspects = Cset.of_array 10 [| 9 |] in
  Alcotest.(check int) "skip suspect" 8 (Knowledge.min_known_excluding k ~suspects);
  let all = Cset.of_array 10 [| 9; 8; 3 |] in
  Alcotest.(check int) "fall back to owner" 5 (Knowledge.min_known_excluding k ~suspects:all);
  Alcotest.check_raises "capacity" (Invalid_argument "Knowledge.min_known_excluding: capacity mismatch")
    (fun () -> ignore (Knowledge.min_known_excluding k ~suspects:(Cset.create 3)))

(* Pins the chosen behaviour when the owner itself is suspected: any
   unsuspected known node wins — even one with a larger label than the
   owner's — and the owner is returned only when every known node
   (owner included) is suspected. *)
let test_min_excluding_suspected_owner () =
  let labels = Array.init 10 (fun i -> i) in
  let k = mk ~owner:2 ~labels () in
  ignore (Knowledge.merge_ids k [| 7; 4 |]);
  Alcotest.(check int) "owner wins unsuspected" 2
    (Knowledge.min_known_excluding k ~suspects:(Cset.create 10));
  let owner_suspected = Cset.of_array 10 [| 2 |] in
  Alcotest.(check int) "suspected owner loses to larger label" 4
    (Knowledge.min_known_excluding k ~suspects:owner_suspected);
  let owner_and_4 = Cset.of_array 10 [| 2; 4 |] in
  Alcotest.(check int) "next unsuspected candidate" 7
    (Knowledge.min_known_excluding k ~suspects:owner_and_4);
  let everyone = Cset.of_array 10 [| 2; 4; 7 |] in
  Alcotest.(check int) "owner as last resort" 2
    (Knowledge.min_known_excluding k ~suspects:everyone)

let test_marks_and_since () =
  let k = mk () in
  let since mark = Intvec.slice_to_array (Knowledge.since_slice k ~mark) in
  let m0 = Knowledge.mark k in
  ignore (Knowledge.merge_ids k [| 4; 2 |]);
  (* batches enter the learn order ascending, whatever the array order *)
  Alcotest.(check (array int)) "delta" [| 2; 4 |] (since m0);
  let m1 = Knowledge.mark k in
  Alcotest.(check (array int)) "empty delta" [||] (since m1);
  ignore (Knowledge.add k 7);
  Alcotest.(check (array int)) "next delta" [| 7 |] (since m1);
  Alcotest.(check (array int)) "from zero includes owner" [| 0; 2; 4; 7 |] (since 0);
  (* a snapshot-known id enters the learn order once, when learned
     explicitly *)
  let m2 = Knowledge.mark k in
  ignore (Knowledge.merge_bits k (Cset.of_array 10 [| 3; 8 |]));
  Alcotest.(check (array int)) "bulk merge stays out" [||] (since m2);
  Alcotest.(check bool) "known already" false (Knowledge.add k 8);
  Knowledge.note_explicit k 3;
  Knowledge.note_explicit k 3;
  Alcotest.(check (array int)) "explicit learns enter once" [| 8; 3 |] (since m2)

let test_snapshot_independent () =
  let k = mk () in
  let snap = Knowledge.snapshot k in
  ignore (Knowledge.add k 4);
  Alcotest.(check int) "snapshot frozen" 1 (Cset.cardinal snap.Knowledge.set);
  Alcotest.(check int) "snapshot minima" 0 snap.Knowledge.sbest;
  Alcotest.(check int) "live contents" 2 (Cset.cardinal (Knowledge.contents k));
  let snap2 = Knowledge.snapshot k in
  Alcotest.(check bool) "cache keyed by version" true (snap != snap2);
  Alcotest.(check bool) "stable version shares the snapshot" true
    (snap2 == Knowledge.snapshot k)

let test_random_known () =
  let rng = Rng.create ~seed:1 in
  let k = mk () in
  Alcotest.(check (option int)) "nobody else" None (Knowledge.random_known k rng);
  ignore (Knowledge.merge_ids k [| 4; 7 |]);
  for _ = 1 to 50 do
    match Knowledge.random_known k rng with
    | Some v when v = 4 || v = 7 -> ()
    | Some v -> Alcotest.failf "random_known returned %d" v
    | None -> Alcotest.fail "random_known returned None"
  done

let test_random_known_among () =
  let rng = Rng.create ~seed:2 in
  let k = mk () in
  ignore (Knowledge.merge_ids k [| 1; 2; 3 |]);
  Alcotest.(check int) "clipped to available" 3
    (Array.length (Knowledge.random_known_among k rng ~k:10));
  let pick = Knowledge.random_known_among k rng ~k:2 in
  Alcotest.(check int) "requested count" 2 (Array.length pick);
  Alcotest.(check bool) "distinct" true (pick.(0) <> pick.(1));
  Array.iter
    (fun v -> if v = 0 then Alcotest.fail "owner returned by random_known_among")
    pick;
  Alcotest.(check int) "k=0" 0 (Array.length (Knowledge.random_known_among k rng ~k:0))

let test_random_known_among_exhaustive () =
  (* k = cardinal - 1 — the regime where rejection sampling degraded to
     unbounded retries. Fisher–Yates must return all non-owner nodes,
     each exactly once, with exactly k RNG draws. *)
  let k = mk ~n:20 ~owner:0 () in
  ignore (Knowledge.merge_ids k (Array.init 19 (fun i -> i + 1)));
  let rng = Rng.create ~seed:7 in
  let pick = Knowledge.random_known_among k rng ~k:19 in
  Alcotest.(check int) "all non-owner nodes" 19 (Array.length pick);
  Alcotest.(check (list int)) "a permutation of 1..19"
    (List.init 19 (fun i -> i + 1))
    (List.sort Int.compare (Array.to_list pick));
  (* Draw-count pin: a fresh RNG advanced by exactly k bounded draws of
     the same widths must agree with an independent same-seed sample. *)
  let rng_a = Rng.create ~seed:11 and rng_b = Rng.create ~seed:11 in
  let sample = Knowledge.random_known_among k rng_a ~k:5 in
  for i = 0 to 4 do
    ignore (Rng.int rng_b (19 - i))
  done;
  let next_a = Rng.int rng_a 1000 and next_b = Rng.int rng_b 1000 in
  Alcotest.(check int) "exactly k draws consumed" next_b next_a;
  Alcotest.(check int) "sample size" 5 (Array.length sample);
  (* The rank scratch is restored between calls: two same-seed samples
     from the same knowledge set are identical. *)
  let s1 = Knowledge.random_known_among k (Rng.create ~seed:3) ~k:8 in
  let s2 = Knowledge.random_known_among k (Rng.create ~seed:3) ~k:8 in
  Alcotest.(check (array int)) "deterministic given seed" s1 s2

let test_slices_and_iteration () =
  let k = mk () in
  let m0 = Knowledge.mark k in
  ignore (Knowledge.merge_ids k [| 4; 2; 9 |]);
  let s = Knowledge.since_slice k ~mark:m0 in
  Alcotest.(check (array int)) "slice delta" [| 2; 4; 9 |] (Intvec.slice_to_array s);
  ignore (Knowledge.add k 6);
  Alcotest.(check (array int)) "slice is a fixed window" [| 2; 4; 9 |]
    (Intvec.slice_to_array s);
  Alcotest.check_raises "stale mark" (Invalid_argument "Knowledge.since_slice: invalid mark")
    (fun () -> ignore (Knowledge.since_slice k ~mark:99));
  let other = mk ~owner:1 () in
  Alcotest.(check int) "merge_slice learns" 3 (Knowledge.merge_slice other s);
  Alcotest.(check int) "merge_slice dedups" 0 (Knowledge.merge_slice other s);
  Alcotest.(check (array int)) "merged ascending after owner" [| 1; 2; 4; 9 |]
    (Intvec.slice_to_array (Knowledge.since_slice other ~mark:0));
  let seen = ref [] in
  Knowledge.iter_known k (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "iter_known ascends" [ 0; 2; 4; 6; 9 ] (List.rev !seen);
  (* canonicalisation: an unsorted batch and its sorted permutation
     produce identical learn orders *)
  let a = mk ~owner:0 () and b = mk ~owner:0 () in
  ignore (Knowledge.merge_ids a [| 7; 3; 5; 3 |]);
  ignore (Knowledge.merge_ids b [| 3; 3; 5; 7 |]);
  Alcotest.(check (array int)) "batch order is canonical"
    (Intvec.slice_to_array (Knowledge.since_slice a ~mark:0))
    (Intvec.slice_to_array (Knowledge.since_slice b ~mark:0))

let prop_learn_order_matches_set =
  QCheck2.Test.make ~name:"learn order is a duplicate-free enumeration of the set" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 50 in
      let* owner = int_range 0 (n - 1) in
      let* adds = list_size (int_range 0 100) (int_range 0 (n - 1)) in
      return (n, owner, adds))
    (fun (n, owner, adds) ->
      let k = Knowledge.create ~n ~owner ~labels:(Array.init n (fun i -> i)) () in
      List.iter (fun v -> ignore (Knowledge.add k v)) adds;
      let order = Array.to_list (Intvec.slice_to_array (Knowledge.since_slice k ~mark:0)) in
      let expected = List.sort_uniq compare (owner :: adds) in
      List.sort compare order = expected
      && List.length order = Knowledge.cardinal k
      && List.for_all (Knowledge.knows k) order)

let prop_min_tracking_correct =
  QCheck2.Test.make ~name:"maintained minima match recomputation" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 40 in
      let* owner = int_range 0 (n - 1) in
      let* seed = int_range 0 1000 in
      let ids = list_size (int_range 0 60) (int_range 0 (n - 1)) in
      let* adds = ids in
      let* peer = ids in
      let* raw = ids in
      return (n, owner, seed, adds, peer, raw))
    (fun (n, owner, seed, adds, peer, raw) ->
      let labels = Rng.permutation (Rng.create ~seed) n in
      let k = Knowledge.create ~n ~owner ~labels () in
      List.iter (fun v -> ignore (Knowledge.add k v)) adds;
      (* a peer's snapshot carries its minima; a raw set does not *)
      let p = Knowledge.create ~n ~owner:(n - 1 - owner) ~labels () in
      List.iter (fun v -> ignore (Knowledge.add p v)) peer;
      ignore (Knowledge.merge_snapshot k (Knowledge.snapshot p));
      ignore (Knowledge.merge_snapshot k (Knowledge.external_snapshot (Cset.of_array n (Array.of_list raw))));
      let known = Array.to_list (Cset.to_array (Knowledge.contents k)) in
      let by_label = List.fold_left (fun acc v -> if labels.(v) < labels.(acc) then v else acc) owner known in
      let by_raw = List.fold_left min owner known in
      Knowledge.min_known k = by_label && Knowledge.min_known_raw k = by_raw)

(* The batch merge against the loop it replaces: sort the whole batch,
   then add its ids in ascending order, counting the ones not yet known;
   the version moves by one per batch that learned something. Batches
   are unsorted, repeat ids and mix in ids already known — explicitly,
   or only through a bulk merge, which must stay out of the learn order.
   Universes up to 700 ids, with batches up to 120 ids, cross the
   sorted-array → bitmap promotion of the one container (at
   max 8 (n/512) members, i.e. 8 at these sizes). *)
let model_merge m ids =
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  Array.fold_left
    (fun learned v ->
      if Knowledge.knows m v then learned
      else begin
        ignore (Knowledge.add m v);
        learned + 1
      end)
    0 sorted

let prop_batch_merge_matches_sorted_model =
  QCheck2.Test.make ~name:"batch merges match the sort-then-add model" ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 700 in
      let* owner = int_range 0 (n - 1) in
      let ids = list_size (int_range 0 120) (int_range 0 (n - 1)) in
      let* bulk = ids in
      let* batches = list_size (int_range 1 6) (pair bool ids) in
      return (n, owner, bulk, batches))
    (fun (n, owner, bulk, batches) ->
      let labels = Array.init n (fun i -> (i * 7919) mod n) in
      let k = Knowledge.create ~n ~owner ~labels () in
      let m = Knowledge.create ~n ~owner ~labels () in
      let bulk = Cset.of_array n (Array.of_list bulk) in
      ignore (Knowledge.merge_bits k bulk);
      ignore (Knowledge.merge_bits m bulk);
      List.for_all
        (fun (as_slice, ids) ->
          let ids = Array.of_list ids in
          let v0 = Knowledge.version k in
          let learned =
            if as_slice then
              Knowledge.merge_slice k
                (Intvec.slice (Intvec.of_array ids) ~pos:0 ~len:(Array.length ids))
            else Knowledge.merge_ids k ids
          in
          let expected = model_merge m ids in
          let order t = Intvec.slice_to_array (Knowledge.since_slice t ~mark:0) in
          learned = expected
          && Knowledge.version k = v0 + (if expected > 0 then 1 else 0)
          && Cset.equal (Knowledge.contents k) (Knowledge.contents m)
          && order k = order m
          && Knowledge.min_known k = Knowledge.min_known m
          && Knowledge.min_known_raw k = Knowledge.min_known_raw m)
        batches)

let () =
  Alcotest.run "knowledge"
    [
      ( "unit",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "add/merge" `Quick test_add_and_merge;
          Alcotest.test_case "completion" `Quick test_completion;
          Alcotest.test_case "min tracking" `Quick test_min_tracking;
          Alcotest.test_case "min excluding suspects" `Quick test_min_excluding;
          Alcotest.test_case "min excluding suspected owner" `Quick
            test_min_excluding_suspected_owner;
          Alcotest.test_case "marks and deltas" `Quick test_marks_and_since;
          Alcotest.test_case "snapshot independence" `Quick test_snapshot_independent;
          Alcotest.test_case "random known" `Quick test_random_known;
          Alcotest.test_case "random known among" `Quick test_random_known_among;
          Alcotest.test_case "random known among exhaustive" `Quick
            test_random_known_among_exhaustive;
          Alcotest.test_case "slices and iteration" `Quick test_slices_and_iteration;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_learn_order_matches_set;
            prop_min_tracking_correct;
            prop_batch_merge_matches_sorted_model;
          ] );
    ]
