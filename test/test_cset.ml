(* Unit and property tests for Repro_util.Cset, the adaptive compressed
   set behind large-n knowledge state. Every operation is checked
   against a sorted, duplicate-free int list, with generators biased
   to cross the container representation boundaries: sorted-array →
   bitmap promotion at range/512 members (floored at 8), bitmap → full
   collapse at saturation, and multi-container universes. *)

open Repro_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The model of a set: its sorted, duplicate-free element list. *)
let model_of vs = List.sort_uniq compare vs
let model_union a b = model_of (a @ b)

(* difference of two models in one merge pass, so full 65,536-member
   containers stay cheap to check *)
let rec model_diff a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
    if x < y then x :: model_diff a' b else if x > y then model_diff a b' else model_diff a' b'

(* ---- unit: representation boundaries ---- *)

let test_empty () =
  let t = Cset.create 100 in
  check_int "cardinal" 0 (Cset.cardinal t);
  check_bool "is_empty" true (Cset.is_empty t);
  check_bool "is_full" false (Cset.is_full t);
  check_bool "mem" false (Cset.mem t 0);
  check_int "capacity" 100 (Cset.capacity t)

let test_add_remove_promote () =
  (* range 320 → promotion to bitmap at 8 members (the floor); walk
     across it *)
  let n = 320 in
  let t = Cset.create n in
  let m = ref [] in
  for i = 0 to 29 do
    let v = (i * 37) mod n in
    check_bool "add agrees" (not (List.mem v !m)) (Cset.add t v);
    m := model_of (v :: !m);
    check_int "cardinal agrees" (List.length !m) (Cset.cardinal t)
  done;
  List.iter (fun v -> check_bool "mem agrees" true (Cset.mem t v)) !m;
  check_bool "remove present" true (Cset.remove t 0);
  check_bool "remove absent" false (Cset.remove t 0);
  check_int "cardinal after remove" (List.length !m - 1) (Cset.cardinal t)

let test_full_collapse () =
  let n = 70_000 in
  (* two containers *)
  let t = Cset.create n in
  for v = 0 to n - 1 do
    ignore (Cset.add t v)
  done;
  check_bool "is_full" true (Cset.is_full t);
  check_int "cardinal" n (Cset.cardinal t);
  (* saturated containers collapse to the O(1) full form *)
  if Cset.memory_words t > 64 then
    Alcotest.failf "full set holds %d payload words (expected O(containers))"
      (Cset.memory_words t);
  (* membership and rank still exact after collapse *)
  check_bool "mem low" true (Cset.mem t 0);
  check_bool "mem high" true (Cset.mem t (n - 1));
  check_int "rank mid" 65_536 (Cset.rank t 65_536);
  check_int "choose_nth" 65_537 (Cset.choose_nth t 65_537);
  (* merging a full set into an empty one is a whole-container copy *)
  let d = Cset.create n in
  check_int "union of full" n (Cset.union_into ~dst:d ~src:t);
  check_bool "dst full" true (Cset.is_full d);
  (* a removal expands the ragged tail container (4,464 ids) to a
     bitmap; adding the id back collapses it again *)
  let v = 68_000 in
  let check_model label model =
    Alcotest.(check (array int)) (label ^ " to_array") model (Cset.to_array t);
    Array.iteri
      (fun k u ->
        if k mod 997 = 0 || u >= v - 1 then begin
          check_int (label ^ " rank") k (Cset.rank t u);
          check_int (label ^ " choose_nth") u (Cset.choose_nth t k)
        end)
      model
  in
  check_bool "remove from full" true (Cset.remove t v);
  check_bool "removed" false (Cset.mem t v);
  check_model "with the hole" (Array.of_list (List.filter (( <> ) v) (List.init n Fun.id)));
  check_bool "add back" true (Cset.add t v);
  check_bool "full again" true (Cset.is_full t);
  if Cset.memory_words t > 64 then
    Alcotest.failf "re-filled set holds %d payload words" (Cset.memory_words t);
  check_model "re-filled" (Array.init n Fun.id)

let test_bounds () =
  let t = Cset.create 10 in
  List.iter
    (fun v ->
      Alcotest.check_raises "out of range" (Invalid_argument "Cset: element out of range")
        (fun () -> ignore (Cset.add t v)))
    [ -1; 10; 11 ]

let test_unbounded () =
  let t = Cset.create_unbounded () in
  check_int "empty capacity" 0 (Cset.capacity t);
  check_bool "add far" true (Cset.add t 1_000_000);
  check_bool "add near" true (Cset.add t 3);
  check_bool "duplicate" false (Cset.add t 1_000_000);
  check_bool "mem far" true (Cset.mem t 1_000_000);
  check_bool "mem absent" false (Cset.mem t 999_999);
  check_int "cardinal" 2 (Cset.cardinal t);
  check_int "capacity grows" 1_000_001 (Cset.capacity t)

let test_zero_capacity () =
  let t = Cset.create 0 in
  check_int "cardinal" 0 (Cset.cardinal t);
  check_bool "is_full on empty universe" true (Cset.is_full t);
  Alcotest.check_raises "mem out of range" (Invalid_argument "Cset: element out of range")
    (fun () -> ignore (Cset.mem t 0));
  Alcotest.check_raises "negative capacity" (Invalid_argument "Cset.create: negative capacity")
    (fun () -> ignore (Cset.create (-1)))

let test_container_edges () =
  (* members on both sides of each container edge (span 65,536) *)
  let n = 140_000 in
  let t = Cset.create n in
  let edges = [ 0; 65_535; 65_536; 65_537; 131_071; 131_072; n - 1 ] in
  List.iter (fun v -> check_bool "first add" true (Cset.add t v)) edges;
  List.iter (fun v -> check_bool "duplicate add" false (Cset.add t v)) edges;
  check_int "cardinal" (List.length edges) (Cset.cardinal t);
  Alcotest.(check (list int)) "elements" edges (Cset.elements t);
  check_bool "remove present" true (Cset.remove t 65_536);
  check_bool "remove absent" false (Cset.remove t 65_536);
  check_bool "mem removed" false (Cset.mem t 65_536);
  check_bool "neighbour kept" true (Cset.mem t 65_535);
  check_int "cardinal after remove" (List.length edges - 1) (Cset.cardinal t)

(* Sorted inserts and removals shift the members of an array container
   in place. Fill one container to a member short of promotion in
   descending order (every add lands at the front and moves the whole
   array), move it to the major heap, then remove and re-add members
   in the middle, checking against the model after each step. *)
let test_array_shifts () =
  let n = 65_536 in
  let t = Cset.create n in
  let members = List.init 127 (fun i -> (126 - i) * 513) in
  List.iter (fun v -> check_bool "add" true (Cset.add t v)) members;
  Gc.full_major ();
  let m = ref (model_of members) in
  let agree what = Alcotest.(check (list int)) what !m (Cset.elements t) in
  agree "after descending adds";
  List.iter
    (fun v ->
      check_bool "remove" true (Cset.remove t v);
      m := List.filter (fun x -> x <> v) !m;
      agree (Printf.sprintf "after remove %d" v))
    [ 0; 63 * 513; 126 * 513; 3 * 513 ];
  List.iter
    (fun v ->
      check_bool "add between" true (Cset.add t v);
      m := model_of (v :: !m);
      agree (Printf.sprintf "after add %d" v))
    [ 1; 63 * 513; 65_535; 200 ];
  check_int "cardinal" (List.length !m) (Cset.cardinal t)

let test_union () =
  let a = Cset.of_array 100 [| 1; 2; 3; 40; 64 |] in
  let b = Cset.of_array 100 [| 3; 40; 77; 99 |] in
  check_int "added" 2 (Cset.union_into ~dst:a ~src:b);
  check_int "cardinal" 7 (Cset.cardinal a);
  check_bool "mem 77" true (Cset.mem a 77);
  check_bool "subset" true (Cset.subset b a);
  check_bool "not subset" false (Cset.subset a b);
  Alcotest.check_raises "capacity mismatch" (Invalid_argument "Cset: capacity mismatch")
    (fun () -> ignore (Cset.union_into ~dst:a ~src:(Cset.create 10)))

let test_union_with_callback () =
  let a = Cset.of_array 200_000 [| 5; 150_000 |] in
  let b = Cset.of_array 200_000 [| 150_001; 5; 6; 70_000; 7 |] in
  let seen = ref [] in
  let added = Cset.union_into_with ~dst:a ~src:b (fun v -> seen := v :: !seen) in
  check_int "added" 4 added;
  Alcotest.(check (list int))
    "fresh elements in increasing order" [ 6; 7; 70_000; 150_001 ] (List.rev !seen)

let test_iter_order () =
  let t = Cset.of_array 140_000 [| 99; 0; 131_072; 31; 65_536; 17; 99 |] in
  let sorted = [ 0; 17; 31; 99; 65_536; 131_072 ] in
  Alcotest.(check (list int)) "elements sorted" sorted (Cset.elements t);
  Alcotest.(check (array int)) "to_array" (Array.of_list sorted) (Cset.to_array t);
  let seen = ref [] in
  Cset.iter (fun v -> seen := v :: !seen) t;
  Alcotest.(check (list int)) "iter" sorted (List.rev !seen);
  Alcotest.(check (list int)) "fold" sorted (List.rev (Cset.fold (fun acc v -> v :: acc) [] t));
  Alcotest.(check string) "pp" "{0, 17, 31, 99, 65536, 131072}" (Format.asprintf "%a" Cset.pp t)

let test_choose_nth () =
  let t = Cset.of_array 100_000 [| 10; 20; 30; 95_000 |] in
  check_int "0th" 10 (Cset.choose_nth t 0);
  check_int "2nd" 30 (Cset.choose_nth t 2);
  check_int "3rd" 95_000 (Cset.choose_nth t 3);
  List.iter
    (fun k ->
      Alcotest.check_raises "rank out of range"
        (Invalid_argument "Cset.choose_nth: rank out of range") (fun () ->
          ignore (Cset.choose_nth t k)))
    [ -1; 4 ]

let test_rank_min_elt () =
  let t = Cset.of_array 100_000 [| 10; 20; 70_000 |] in
  check_int "rank below all" 0 (Cset.rank t 10);
  check_int "rank between" 2 (Cset.rank t 21);
  check_int "rank across containers" 3 (Cset.rank t 99_999);
  check_int "min_elt" 10 (Cset.min_elt t);
  Alcotest.check_raises "rank out of range" (Invalid_argument "Cset: element out of range")
    (fun () -> ignore (Cset.rank t 100_000));
  Alcotest.check_raises "min_elt of empty" (Invalid_argument "Cset.min_elt: empty set")
    (fun () -> ignore (Cset.min_elt (Cset.create 10)))

let test_inter_cardinal () =
  let a = Cset.of_array 128 [| 0; 1; 2; 64; 100 |] in
  let b = Cset.of_array 128 [| 1; 64; 127 |] in
  check_int "intersection" 2 (Cset.inter_cardinal a b);
  check_int "with itself" 5 (Cset.inter_cardinal a a)

let test_equal_copy () =
  let a = Cset.of_array 64 [| 1; 33; 63 |] in
  let b = Cset.copy a in
  check_bool "copy equal" true (Cset.equal a b);
  ignore (Cset.add b 2);
  check_bool "copy independent" false (Cset.equal a b);
  check_int "original untouched" 3 (Cset.cardinal a);
  check_bool "different capacities are unequal" false
    (Cset.equal (Cset.create 10) (Cset.create 11))

let test_is_full () =
  List.iter
    (fun n ->
      let t = Cset.create n in
      for v = 0 to n - 1 do
        ignore (Cset.add t v)
      done;
      check_bool "full" true (Cset.is_full t);
      ignore (Cset.remove t (n - 1));
      check_bool "not full" false (Cset.is_full t))
    [ 33; 65_537 ];
  let u = Cset.create_unbounded () in
  ignore (Cset.add u 0);
  check_bool "unbounded never full" false (Cset.is_full u)

let test_unbounded_binary_ops () =
  let u = Cset.create_unbounded () in
  ignore (Cset.add u 3);
  let b = Cset.of_array 4 [| 3 |] in
  let mismatch = Invalid_argument "Cset: capacity mismatch" in
  Alcotest.check_raises "union into unbounded" mismatch (fun () ->
      ignore (Cset.union_into ~dst:u ~src:b));
  Alcotest.check_raises "subset of unbounded" mismatch (fun () -> ignore (Cset.subset b u));
  Alcotest.check_raises "inter with unbounded" mismatch (fun () ->
      ignore (Cset.inter_cardinal b u));
  check_bool "unbounded never equal" false (Cset.equal u u)

(* ---- unit: freeze / copy-on-write ---- *)

let frozen_exn = Invalid_argument "Cset: mutation of a frozen view"

let test_freeze_rejects_mutators () =
  let t = Cset.of_array 100 [| 1; 40; 64 |] in
  let v = Cset.freeze t in
  Alcotest.check_raises "no-op add on view" frozen_exn (fun () -> ignore (Cset.add v 1));
  Alcotest.check_raises "remove on view" frozen_exn (fun () -> ignore (Cset.remove v 1));
  Alcotest.check_raises "union into view" frozen_exn (fun () ->
      ignore (Cset.union_into ~dst:v ~src:t));
  Alcotest.check_raises "union_into_with into view" frozen_exn (fun () ->
      ignore (Cset.union_into_with ~dst:v ~src:t (fun _ -> ())));
  (* reads still work on the view *)
  check_bool "mem" true (Cset.mem v 40);
  check_int "cardinal" 3 (Cset.cardinal v);
  Alcotest.(check (list int)) "elements" [ 1; 40; 64 ] (Cset.elements v)

let test_freeze_idempotent () =
  let t = Cset.of_array 10 [| 2 |] in
  let v = Cset.freeze t in
  (* repeated freezes of the source share storage and stay consistent *)
  let v2 = Cset.freeze t in
  check_bool "second view equal" true (Cset.equal v v2);
  check_bool "copy not frozen" false (Cset.is_frozen (Cset.copy v));
  (* a union that learns nothing leaves the source and its views equal *)
  check_int "subset union adds nothing" 0 (Cset.union_into ~dst:t ~src:(Cset.of_array 10 [| 2 |]));
  check_bool "still equal" true (Cset.equal t v);
  check_bool "source still mutable" true (Cset.add t 3);
  check_bool "views untouched" false (Cset.mem v 3 || Cset.mem v2 3)

let test_freeze_immutable () =
  let t = Cset.of_array 100 [| 1; 40; 64 |] in
  let v = Cset.freeze t in
  check_bool "view frozen" true (Cset.is_frozen v);
  check_bool "source not frozen" false (Cset.is_frozen t);
  check_bool "freeze of frozen is itself" true (Cset.freeze v == v);
  Alcotest.check_raises "add on view" (Invalid_argument "Cset: mutation of a frozen view")
    (fun () -> ignore (Cset.add v 2));
  check_bool "source add invisible in view" true (Cset.add t 7);
  check_bool "view does not see add" false (Cset.mem v 7);
  check_bool "source remove invisible in view" true (Cset.remove t 40);
  check_bool "view still sees removed" true (Cset.mem v 40);
  check_int "view cardinal unchanged" 3 (Cset.cardinal v)

let test_freeze_copy_on_write_union () =
  let t = Cset.of_array 100 [| 3 |] in
  let v = Cset.freeze t in
  ignore (Cset.union_into ~dst:t ~src:(Cset.of_array 100 [| 3; 9 |]));
  check_bool "union visible in source" true (Cset.mem t 9);
  check_bool "union invisible in view" false (Cset.mem v 9);
  let c = Cset.copy v in
  check_bool "copy of frozen is mutable" true (Cset.add c 11);
  check_bool "view untouched by copy's write" false (Cset.mem v 11)

(* The array-into-frozen-bitmap fast path in union_gen: when the
   destination container is a sorted array and the source a frozen
   bitmap, the union either aliases the source payload (dst ⊆ src) or
   copies it once and patches the missing members in. Both branches,
   plus the already-owned-destination case where the writable container
   record is the same one being read (a regression: the patch loop must
   capture the array payload before the record is repurposed). *)
let test_arr_into_frozen_bmp () =
  let n = 65_536 in
  let big = Cset.create n in
  for i = 0 to 4095 do
    ignore (Cset.add big (i * 16))
  done;
  let src = Cset.freeze big in
  (* dst ⊆ src: aliases the bitmap, no copy, still correct *)
  let sub = Cset.of_array n [| 0; 160; 65_520 |] in
  check_int "alias union added" (4096 - 3) (Cset.union_into ~dst:sub ~src);
  check_bool "alias mem" true (Cset.mem sub 32);
  check_int "alias cardinal" 4096 (Cset.cardinal sub);
  (* writing after the alias privatises; the frozen source is untouched *)
  check_bool "post-alias add" true (Cset.add sub 1);
  check_bool "source clean" false (Cset.mem src 1);
  (* dst ⊄ src, dst never frozen: the patch loop runs with the writable
     record aliasing the read container *)
  let mixed = Cset.of_array n [| 0; 7; 160; 33_333 |] in
  let before = Cset.cardinal mixed in
  let added = Cset.union_into ~dst:mixed ~src in
  check_int "patch union cardinal" (before + added) (Cset.cardinal mixed);
  check_int "patch union total" (4096 + 2) (Cset.cardinal mixed);
  check_bool "patched member 7" true (Cset.mem mixed 7);
  check_bool "patched member 33333" true (Cset.mem mixed 33_333);
  check_bool "bitmap member" true (Cset.mem mixed 65_520);
  check_bool "source clean of 7" false (Cset.mem src 7)

(* ---- unit: difference ---- *)

(* [diff_into] against the model for every destination/source container
   pair. A container of the 140,000-id universe (two full spans and a
   ragged 8,928-id tail) takes one of three forms: an array of every
   [stride]-th id among its first 20·stride, a bitmap of every
   [stride]-th id across its span, or a saturated run. The destination
   strides by 3 and the source by 2, so array and bitmap pairs overlap
   in the multiples of 6. The destination fills containers 0 and 1, the
   source containers 0 and 2: container 1 has nothing to remove and
   container 2 nothing to remove from. *)
let diff_n = 140_000

type form = Arr | Bmp | Full

let form_name = function Arr -> "arr" | Bmp -> "bmp" | Full -> "full"

let container_ids form ~stride ci =
  let base = ci * 65_536 in
  let range = min 65_536 (diff_n - base) in
  match form with
  | Arr -> List.init 20 (fun i -> base + (i * stride))
  | Bmp -> List.init ((range + stride - 1) / stride) (fun i -> base + (i * stride))
  | Full -> List.init range (fun i -> base + i)

let test_diff_representation_pairs () =
  let forms = [ Arr; Bmp; Full ] in
  List.iter
    (fun dform ->
      List.iter
        (fun sform ->
          List.iter
            (fun frozen_src ->
              let what =
                Printf.sprintf "%s - %s%s" (form_name dform) (form_name sform)
                  (if frozen_src then " (frozen source)" else "")
              in
              let dm = container_ids dform ~stride:3 0 @ container_ids dform ~stride:3 1 in
              let sm = container_ids sform ~stride:2 0 @ container_ids sform ~stride:2 2 in
              let dst = Cset.of_array diff_n (Array.of_list dm) in
              let src = Cset.of_array diff_n (Array.of_list sm) in
              let src = if frozen_src then Cset.freeze src else src in
              let view = Cset.freeze dst in
              let expect = model_diff dm sm in
              let removed = Cset.diff_into ~dst ~src in
              check_int (what ^ ": removed") (List.length dm - List.length expect) removed;
              check_int (what ^ ": cardinal") (List.length expect) (Cset.cardinal dst);
              if Cset.elements dst <> expect then Alcotest.failf "%s: members differ" what;
              if Cset.elements src <> sm then Alcotest.failf "%s: source changed" what;
              if Cset.elements view <> dm then Alcotest.failf "%s: frozen view changed" what;
              (* the destination stays a working set: refill what was removed *)
              List.iter (fun v -> ignore (Cset.add dst v)) dm;
              if Cset.elements dst <> dm then Alcotest.failf "%s: refill differs" what)
            [ false; true ])
        forms)
    forms

let test_diff_edges () =
  let a = Cset.of_array 100 [| 1; 2; 3; 40; 64 |] in
  check_int "empty source" 0 (Cset.diff_into ~dst:a ~src:(Cset.create 100));
  check_int "empty destination" 0 (Cset.diff_into ~dst:(Cset.create 100) ~src:a);
  check_int "disjoint" 0 (Cset.diff_into ~dst:a ~src:(Cset.of_array 100 [| 0; 4; 99 |]));
  check_int "partial" 2 (Cset.diff_into ~dst:a ~src:(Cset.of_array 100 [| 2; 40; 41 |]));
  Alcotest.(check (list int)) "partial members" [ 1; 3; 64 ] (Cset.elements a);
  (* a destination minus its own frozen view: the owner empties, the
     view keeps every member *)
  let view = Cset.freeze a in
  check_int "minus own view" 3 (Cset.diff_into ~dst:a ~src:view);
  check_bool "owner empty" true (Cset.is_empty a);
  Alcotest.(check (list int)) "view kept" [ 1; 3; 64 ] (Cset.elements view);
  let b = Cset.of_array 100 [| 5; 6 |] in
  check_int "minus itself" 2 (Cset.diff_into ~dst:b ~src:b);
  check_bool "itself empty" true (Cset.is_empty b)

let test_diff_refusals () =
  let t = Cset.of_array 100 [| 1; 40; 64 |] in
  let v = Cset.freeze t in
  Alcotest.check_raises "frozen destination" frozen_exn (fun () ->
      ignore (Cset.diff_into ~dst:v ~src:t));
  Alcotest.check_raises "frozen destination, empty source" frozen_exn (fun () ->
      ignore (Cset.diff_into ~dst:v ~src:(Cset.create 100)));
  let mismatch = Invalid_argument "Cset: capacity mismatch" in
  Alcotest.check_raises "capacity mismatch" mismatch (fun () ->
      ignore (Cset.diff_into ~dst:t ~src:(Cset.create 10)));
  let u = Cset.create_unbounded () in
  ignore (Cset.add u 1);
  Alcotest.check_raises "unbounded source" mismatch (fun () ->
      ignore (Cset.diff_into ~dst:t ~src:u));
  check_int "refusals left the destination alone" 3 (Cset.cardinal t)

(* ---- properties against the sorted-list model ---- *)

(* universes that exercise single small containers, the promotion
   threshold, and multi-container layouts (container span 65,536) *)
let universe_gen =
  QCheck2.Gen.(oneof [ int_range 1 400; int_range 60_000 70_000; return 140_000 ])

let imin (a : int) b = if a < b then a else b

let values_gen n =
  QCheck2.Gen.(
    let dense = list_size (int_range 0 200) (int_range 0 (imin 399 (n - 1))) in
    let spread = list_size (int_range 0 200) (int_range 0 (n - 1)) in
    if n <= 400 then dense else oneof [ dense; spread ])

let pair_gen =
  QCheck2.Gen.(
    let* n = universe_gen in
    let* xs = values_gen n in
    let* ys = values_gen n in
    return (n, xs, ys))

let of_list n vs =
  let c = Cset.create n in
  List.iter (fun v -> ignore (Cset.add c v)) vs;
  (c, model_of vs)

let agrees c m =
  Cset.cardinal c = List.length m && Cset.elements c = m && List.for_all (Cset.mem c) m

let prop_matches_model =
  QCheck2.Test.make ~name:"cset matches the model under add/remove" ~count:200
    QCheck2.Gen.(
      let* n = universe_gen in
      let* xs = values_gen n in
      let* rm = values_gen n in
      return (n, xs, rm))
    (fun (n, xs, rm) ->
      let c, m = of_list n xs in
      let m =
        List.fold_left
          (fun m v ->
            if Cset.remove c v <> List.mem v m then Alcotest.failf "remove %d disagrees" v;
            List.filter (fun x -> x <> v) m)
          m rm
      in
      agrees c m)

let prop_union_matches =
  QCheck2.Test.make ~name:"union_into matches the model" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, m = of_list n xs in
      let sc, sm = of_list n ys in
      let ca = Cset.union_into ~dst:c ~src:sc in
      let um = model_union m sm in
      ca = List.length um - List.length m && agrees c um && Cset.subset sc c)

(* With [freeze_dst], the destination is frozen just before the union:
   an array union that would fit in the destination's payload must not
   merge in place, since the frozen view still reads that payload. *)
let prop_union_frozen_matches =
  QCheck2.Test.make ~name:"union_into from a frozen source matches the model" ~count:200
    QCheck2.Gen.(pair pair_gen bool)
    (fun ((n, xs, ys), freeze_dst) ->
      let c, m = of_list n xs in
      let sc, sm = of_list n ys in
      let dview = if freeze_dst then Some (Cset.freeze c) else None in
      let frozen = Cset.freeze sc in
      let ca = Cset.union_into ~dst:c ~src:frozen in
      let um = model_union m sm in
      (* destination correct, and neither view of the source moved *)
      ca = List.length um - List.length m && agrees c um && agrees frozen sm && agrees sc sm
      && (match dview with Some view -> agrees view m | None -> true)
      &&
      (* writes to the destination never leak into the source *)
      let probe = (Cset.capacity c - 1) mod n in
      let fresh = not (Cset.mem c probe) in
      ignore (Cset.add c probe);
      (not fresh) || not (Cset.mem frozen probe))

let prop_diff_matches =
  QCheck2.Test.make ~name:"diff_into matches the model" ~count:200
    QCheck2.Gen.(triple pair_gen bool bool)
    (fun ((n, xs, ys), freeze_src, freeze_dst) ->
      let c, m = of_list n xs in
      let sc, sm = of_list n ys in
      let src = if freeze_src then Cset.freeze sc else sc in
      let dview = if freeze_dst then Some (Cset.freeze c) else None in
      let removed = Cset.diff_into ~dst:c ~src in
      let dm = model_diff m sm in
      removed = List.length m - List.length dm
      && agrees c dm && agrees src sm
      && (match dview with Some view -> agrees view m | None -> true)
      && Cset.inter_cardinal c src = 0)

let prop_union_with_enumerates_fresh =
  QCheck2.Test.make ~name:"union_into_with yields fresh elements in order" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, m = of_list n xs in
      let sc, _ = of_list n ys in
      let seen = ref [] in
      let added = Cset.union_into_with ~dst:c ~src:sc (fun v -> seen := v :: !seen) in
      let fresh = List.rev !seen in
      added = List.length fresh
      && List.for_all (fun v -> not (List.mem v m)) fresh
      && fresh = List.sort compare fresh
      && Cset.cardinal c = List.length m + added)

let prop_queries_match =
  QCheck2.Test.make ~name:"rank/choose_nth/min_elt/inter match the model" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, m = of_list n xs in
      let sc, sm = of_list n ys in
      Cset.inter_cardinal c sc = List.length (List.filter (fun v -> List.mem v sm) m)
      && Cset.equal c sc = (m = sm)
      && (m = [] || Cset.min_elt c = List.hd m)
      && List.for_all
           (fun v -> Cset.rank c v = List.length (List.filter (fun x -> x < v) m))
           (List.filteri (fun i _ -> i < 16) (List.map (fun v -> v mod n) ys))
      && List.for_all Fun.id (List.mapi (fun i v -> Cset.choose_nth c i = v) m))

let prop_of_array_matches =
  QCheck2.Test.make ~name:"of_array and to_array match the model" ~count:200 pair_gen
    (fun (n, xs, _) ->
      let c = Cset.of_array n (Array.of_list xs) in
      let m = model_of xs in
      agrees c m && Cset.to_array c = Array.of_list m)

let prop_copy_independent =
  QCheck2.Test.make ~name:"a copy and its source never see each other's writes" ~count:200
    pair_gen (fun (n, xs, ys) ->
      let c, m = of_list n xs in
      let d = Cset.copy c in
      List.iter (fun v -> ignore (if Cset.mem d v then Cset.remove d v else Cset.add d v)) ys;
      List.iter (fun v -> ignore (Cset.add c v)) ys;
      let flipped =
        List.fold_left (fun s v -> if List.mem v s then List.filter (( <> ) v) s else v :: s) m ys
      in
      agrees c (model_union m ys) && agrees d (model_of flipped))

let prop_iter_fold_in_order =
  QCheck2.Test.make ~name:"iter and fold visit the members in increasing order" ~count:200
    pair_gen (fun (n, xs, _) ->
      let c, m = of_list n xs in
      let seen = ref [] in
      Cset.iter (fun v -> seen := v :: !seen) c;
      List.rev !seen = m && Cset.fold (fun acc v -> v :: acc) [] c = List.rev m)

(* ---- byte bitmaps against the per-bit [add] model ---- *)

(* The model: the set [add] builds member by member in ascending order,
   and the byte bitmap written bit by bit. The word-at-a-time builder
   must give the same members and the same representation, which
   [memory_words] exposes (payload lengths per container). *)
let by_add n members =
  let t = Cset.create n in
  List.iter (fun v -> ignore (Cset.add t v)) (List.sort_uniq compare members);
  t

let bitmap_of n members =
  let b = Bytes.make ((n + 7) / 8) '\000' in
  List.iter
    (fun v ->
      Bytes.set b (v lsr 3) (Char.chr (Char.code (Bytes.get b (v lsr 3)) lor (1 lsl (v land 7)))))
    members;
  b

let same_as_model ~what model c =
  if Cset.elements c <> Cset.elements model then Alcotest.failf "%s: elements differ" what;
  check_int (what ^ ": cardinal") (Cset.cardinal model) (Cset.cardinal c);
  check_int (what ^ ": memory_words") (Cset.memory_words model) (Cset.memory_words c)

(* the Arr -> Bmp promotion point of a container spanning [range] ids:
   range/512 members, floored at 8 (see cset.ml) *)
let arr_max range = max 8 (range lsr 9)

(* [count] members of the container starting at [base] with span [range] *)
let container_members ~base ~range count =
  List.init count (fun i -> base + (i * range / count))

let check_bitmap_codec ~what n members =
  let model = by_add n members in
  let bytes = bitmap_of n members in
  same_as_model ~what model (Cset.of_bitmap_bytes n bytes 0);
  (* the blitter writes exactly the model's bytes, at an offset, without
     touching its neighbours *)
  let width = (n + 7) / 8 in
  let out = Bytes.make (width + 3) '\170' in
  Cset.blit_bitmap_bytes model out 2;
  if not (Bytes.equal (Bytes.sub out 2 width) bytes) then Alcotest.failf "%s: blit differs" what;
  check_int (what ^ ": guard before") 0xAA (Char.code (Bytes.get out 1));
  check_int (what ^ ": guard after") 0xAA (Char.code (Bytes.get out (width + 2)));
  same_as_model ~what:(what ^ " round trip") model (Cset.of_bitmap_bytes n out 2)

(* Universes whose last container's range is 1, 31, 32, 33 or 63 above a
   multiple of 64: the last bitmap word is partly past the universe, and
   (but for 96 and 65,568) so is the last byte. *)
let ragged_universes = [ 65; 95; 96; 97; 127; 65_537; 65_567; 65_568; 65_569; 65_599 ]

let test_bitmap_boundaries () =
  List.iter
    (fun n ->
      check_bitmap_codec ~what:(Printf.sprintf "empty %d" n) n [];
      check_bitmap_codec ~what:(Printf.sprintf "full %d" n) n (List.init n Fun.id);
      (* every container at, and just past, the array threshold *)
      List.iter
        (fun extra ->
          let members =
            List.concat
              (List.init ((n + 65_535) / 65_536) (fun ci ->
                   let base = ci * 65_536 in
                   let range = min 65_536 (n - base) in
                   container_members ~base ~range (min range (arr_max range + extra))))
          in
          check_bitmap_codec ~what:(Printf.sprintf "arr_max+%d at %d" extra n) n members)
        [ 0; 1 ])
    [ 1; 7; 8; 9; 33; 300; 17_408; 65_536; 70_001; 140_003 ];
  (* the last container ending inside a 64-bit word, 1, 31, 32, 33 and
     63 ids past its last whole one *)
  List.iter
    (fun n ->
      check_bitmap_codec ~what:(Printf.sprintf "empty %d" n) n [];
      check_bitmap_codec ~what:(Printf.sprintf "full %d" n) n (List.init n Fun.id);
      check_bitmap_codec ~what:(Printf.sprintf "all but the last of %d" n) n
        (List.init (n - 1) Fun.id);
      check_bitmap_codec ~what:(Printf.sprintf "every third of %d" n) n
        (List.filter (fun v -> v mod 3 = 0 || v = n - 1) (List.init n Fun.id)))
    ragged_universes

let test_bitmap_ignores_tail_bits () =
  (* bits of the last byte beyond the universe are not members *)
  let n = 13 in
  let b = bitmap_of n [ 0; 12 ] in
  Bytes.set b 1 (Char.chr (Char.code (Bytes.get b 1) lor 0xE0));
  same_as_model ~what:"tail bits" (by_add n [ 0; 12 ]) (Cset.of_bitmap_bytes n b 0);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Cset.of_bitmap_bytes: bitmap exceeds the buffer") (fun () ->
      ignore (Cset.of_bitmap_bytes n b 1))

let bitmap_universe_gen =
  QCheck2.Gen.(
    oneof
      [
        int_range 1 400;
        int_range 65_537 70_000;
        return 131_072;
        return 140_003;
        oneofl ragged_universes;
      ])

(* Members drawn from a seeded stream: a density per container (empty,
   sparse, around the array threshold, dense, saturated), so one case
   mixes container kinds. *)
let bitmap_case_gen =
  QCheck2.Gen.(
    let* n = bitmap_universe_gen in
    let* seed = int_bound 1_000_000 in
    return (n, seed))

let members_of (n, seed) =
  let rng = Rng.create ~seed in
  List.concat
    (List.init ((n + 65_535) / 65_536) (fun ci ->
         let base = ci * 65_536 in
         let range = min 65_536 (n - base) in
         match Rng.int rng 5 with
         | 0 -> []
         | 1 -> List.init (Rng.int rng 40) (fun _ -> base + Rng.int rng range)
         | 2 -> container_members ~base ~range (min range (arr_max range - 1 + Rng.int rng 3))
         | 3 ->
           let p = 1 + Rng.int rng 99 in
           List.filter (fun _ -> Rng.int rng 100 < p) (List.init range (fun i -> base + i))
         | _ -> List.init range (fun i -> base + i)))

let prop_bitmap_codec =
  QCheck2.Test.make ~name:"byte bitmap codec matches the per-bit add model" ~count:60
    bitmap_case_gen (fun case ->
      let n, _ = case in
      check_bitmap_codec ~what:"random" n (members_of case);
      true)

(* The blitter also serves sets whose containers did not get there by
   ascending adds: bitmaps thinned back below the array threshold. *)
let prop_bitmap_blit_after_removals =
  QCheck2.Test.make ~name:"blit after removals writes the member bitmap" ~count:60
    bitmap_case_gen (fun ((n, seed) as case) ->
      let members = List.sort_uniq compare (members_of case) in
      let c = by_add n members in
      let rng = Rng.create ~seed:(seed + 1) in
      let kept = List.filter (fun v -> Rng.int rng 8 <> 0 || not (Cset.remove c v)) members in
      let out = Bytes.create ((n + 7) / 8) in
      Cset.blit_bitmap_bytes c out 0;
      Bytes.equal out (bitmap_of n kept)
      && Cset.elements (Cset.of_bitmap_bytes n out 0) = Cset.elements c)

(* members of the sorted array [ma] below [v], by binary search *)
let model_rank ma v =
  let lo = ref 0 and hi = ref (Array.length ma) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ma.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bitmap pairs at the ragged universes: each id of a side is kept with
   one probability in 15–85%, so containers with room for it are
   bitmaps. The word kernels (OR, AND-NOT, the subset pre-check,
   popcounts, in-word select) run on the partial last word. *)
let prop_ragged_bitmap_pairs =
  QCheck2.Test.make ~name:"bitmap pairs at ragged 64-bit tails match the model" ~count:60
    QCheck2.Gen.(pair (oneofl ragged_universes) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let side () =
        let p = 15 + Rng.int rng 71 in
        List.filter (fun _ -> Rng.int rng 100 < p) (List.init n Fun.id)
      in
      let c, m = of_list n (side ()) in
      let sc, sm = of_list n (side ()) in
      let um = model_union m sm and dm = model_diff m sm in
      let u = Cset.copy c and d = Cset.copy c in
      let added = Cset.union_into ~dst:u ~src:sc in
      let removed = Cset.diff_into ~dst:d ~src:sc in
      let card = List.length m in
      (* every id of the last 70 and 16 more; every rank of the top 70
         and 16 more *)
      let ids = List.init (imin n 70) (fun i -> n - 1 - i) @ List.init 16 (fun _ -> Rng.int rng n) in
      let ks = List.init (imin card 70) (fun i -> card - 1 - i) in
      let ks = if card = 0 then ks else ks @ List.init 16 (fun _ -> Rng.int rng card) in
      let ma = Array.of_list m in
      added = List.length um - card
      && agrees u um
      && removed = card - List.length dm
      && agrees d dm
      && Cset.subset sc c = (model_diff sm m = [])
      && Cset.subset d c && Cset.subset c u && Cset.subset sc u
      && Cset.inter_cardinal c sc = card - List.length dm
      && Cset.inter_cardinal d sc = 0
      && (m = [] || Cset.min_elt c = List.hd m)
      && (dm = [] || Cset.min_elt d = List.hd dm)
      && List.for_all (fun v -> Cset.rank c v = model_rank ma v) ids
      && List.for_all (fun k -> Cset.choose_nth c k = ma.(k)) ks)

let () =
  Alcotest.run "cset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove across promotion" `Quick test_add_remove_promote;
          Alcotest.test_case "saturation collapses to runs" `Quick test_full_collapse;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "unbounded universe" `Quick test_unbounded;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "add/remove at container edges" `Quick test_container_edges;
          Alcotest.test_case "array shifts in place" `Quick test_array_shifts;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "union callback" `Quick test_union_with_callback;
          Alcotest.test_case "iteration order" `Quick test_iter_order;
          Alcotest.test_case "choose_nth" `Quick test_choose_nth;
          Alcotest.test_case "rank and min_elt" `Quick test_rank_min_elt;
          Alcotest.test_case "inter_cardinal" `Quick test_inter_cardinal;
          Alcotest.test_case "equal/copy" `Quick test_equal_copy;
          Alcotest.test_case "is_full" `Quick test_is_full;
          Alcotest.test_case "unbounded refuses binary ops" `Quick test_unbounded_binary_ops;
          Alcotest.test_case "freeze is immutable" `Quick test_freeze_immutable;
          Alcotest.test_case "freeze rejects every mutator" `Quick test_freeze_rejects_mutators;
          Alcotest.test_case "freeze idempotent" `Quick test_freeze_idempotent;
          Alcotest.test_case "freeze copy-on-write union" `Quick test_freeze_copy_on_write_union;
          Alcotest.test_case "array into frozen bitmap" `Quick test_arr_into_frozen_bmp;
          Alcotest.test_case "difference across representation pairs" `Quick
            test_diff_representation_pairs;
          Alcotest.test_case "difference edges" `Quick test_diff_edges;
          Alcotest.test_case "difference refusals" `Quick test_diff_refusals;
          Alcotest.test_case "byte bitmap boundaries" `Quick test_bitmap_boundaries;
          Alcotest.test_case "byte bitmap tail bits" `Quick test_bitmap_ignores_tail_bits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_model;
            prop_union_matches;
            prop_union_frozen_matches;
            prop_diff_matches;
            prop_union_with_enumerates_fresh;
            prop_queries_match;
            prop_of_array_matches;
            prop_copy_independent;
            prop_iter_fold_in_order;
            prop_bitmap_codec;
            prop_bitmap_blit_after_removals;
            prop_ragged_bitmap_pairs;
          ] );
    ]
