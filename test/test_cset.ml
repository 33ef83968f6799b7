(* Unit and property tests for Repro_util.Cset, the adaptive compressed
   set behind large-n knowledge state. Every operation is checked
   against Bitset (itself model-checked in test_bitset.ml), with
   generators biased to cross the container representation boundaries:
   sorted-array → bitmap promotion at range/32 members, bitmap → run
   collapse at saturation, and multi-container universes. *)

open Repro_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- unit: representation boundaries ---- *)

let test_empty () =
  let t = Cset.create 100 in
  check_int "cardinal" 0 (Cset.cardinal t);
  check_bool "is_empty" true (Cset.is_empty t);
  check_bool "is_full" false (Cset.is_full t);
  check_bool "mem" false (Cset.mem t 0);
  check_int "capacity" 100 (Cset.capacity t)

let test_add_remove_promote () =
  (* range 320 → promotion to bitmap at 10 members; walk across it *)
  let n = 320 in
  let t = Cset.create n in
  let b = Bitset.create n in
  for i = 0 to 29 do
    let v = (i * 37) mod n in
    check_bool "add agrees" (Bitset.add b v) (Cset.add t v);
    check_int "cardinal agrees" (Bitset.cardinal b) (Cset.cardinal t)
  done;
  Bitset.iter (fun v -> check_bool "mem agrees" true (Cset.mem t v)) b;
  check_bool "remove present" true (Cset.remove t 0);
  check_bool "remove absent" false (Cset.remove t 0);
  check_int "cardinal after remove" (Bitset.cardinal b - 1) (Cset.cardinal t)

let test_full_collapse () =
  let n = 70_000 in
  (* two containers *)
  let t = Cset.create n in
  for v = 0 to n - 1 do
    ignore (Cset.add t v)
  done;
  check_bool "is_full" true (Cset.is_full t);
  check_int "cardinal" n (Cset.cardinal t);
  (* saturated containers collapse to O(1) run form *)
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
  check_bool "dst full" true (Cset.is_full d)

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

(* ---- unit: freeze / copy-on-write ---- *)

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

(* ---- properties against Bitset ---- *)

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
  let c = Cset.create n and b = Bitset.create n in
  List.iter
    (fun v ->
      ignore (Cset.add c v);
      ignore (Bitset.add b v))
    vs;
  (c, b)

let agrees c b =
  Cset.cardinal c = Bitset.cardinal b
  && Cset.elements c = Bitset.elements b
  &&
  let ok = ref true in
  Bitset.iter (fun v -> if not (Cset.mem c v) then ok := false) b;
  !ok

let prop_matches_model =
  QCheck2.Test.make ~name:"cset matches bitset under add/remove" ~count:200
    QCheck2.Gen.(
      let* n = universe_gen in
      let* xs = values_gen n in
      let* rm = values_gen n in
      return (n, xs, rm))
    (fun (n, xs, rm) ->
      let c, b = of_list n xs in
      List.iter
        (fun v ->
          let cr = Cset.remove c v and br = Bitset.remove b v in
          if cr <> br then Alcotest.failf "remove %d disagrees" v)
        rm;
      agrees c b)

let prop_union_matches =
  QCheck2.Test.make ~name:"union_into matches bitset" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, b = of_list n xs in
      let sc, sb = of_list n ys in
      let ca = Cset.union_into ~dst:c ~src:sc in
      let ba = Bitset.union_into ~dst:b ~src:sb in
      ca = ba && agrees c b && Cset.subset sc c)

(* With [freeze_dst], the destination is frozen just before the union:
   an array union that would fit in the destination's payload must not
   merge in place, since the frozen view still reads that payload. *)
let prop_union_frozen_matches =
  QCheck2.Test.make ~name:"union_into from a frozen source matches bitset" ~count:200
    QCheck2.Gen.(pair pair_gen bool)
    (fun ((n, xs, ys), freeze_dst) ->
      let c, b = of_list n xs in
      let sc, sb = of_list n ys in
      let dview = if freeze_dst then Some (Cset.freeze c, Bitset.copy b) else None in
      let frozen = Cset.freeze sc in
      let ca = Cset.union_into ~dst:c ~src:frozen in
      let ba = Bitset.union_into ~dst:b ~src:sb in
      (* destination correct, and neither view of the source moved *)
      ca = ba && agrees c b && agrees frozen sb && agrees sc sb
      && (match dview with Some (view, old) -> agrees view old | None -> true)
      &&
      (* writes to the destination never leak into the source *)
      let probe = (Cset.capacity c - 1) mod n in
      let fresh = not (Cset.mem c probe) in
      ignore (Cset.add c probe);
      (not fresh) || not (Cset.mem frozen probe))

let prop_union_with_enumerates_fresh =
  QCheck2.Test.make ~name:"union_into_with yields fresh elements in order" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, b = of_list n xs in
      let sc, _ = of_list n ys in
      let seen = ref [] in
      let added = Cset.union_into_with ~dst:c ~src:sc (fun v -> seen := v :: !seen) in
      let fresh = List.rev !seen in
      added = List.length fresh
      && List.for_all (fun v -> not (Bitset.mem b v)) fresh
      && fresh = List.sort compare fresh
      && Cset.cardinal c = Bitset.cardinal b + added)

let prop_queries_match =
  QCheck2.Test.make ~name:"rank/choose_nth/min_elt/inter match bitset" ~count:200 pair_gen
    (fun (n, xs, ys) ->
      let c, b = of_list n xs in
      let sc, sb = of_list n ys in
      Cset.inter_cardinal c sc = Bitset.inter_cardinal b sb
      && Cset.equal c sc = Bitset.equal b sb
      && (Bitset.is_empty b || Cset.min_elt c = Bitset.choose_nth b 0)
      && (let elems = Bitset.elements b in
          List.for_all
            (fun v -> Cset.rank c v = List.length (List.filter (fun x -> x < v) elems))
            (List.filteri (fun i _ -> i < 16) (List.map (fun v -> v mod n) ys)))
      &&
      let elems = Bitset.to_array b in
      Array.for_all (fun x -> x)
        (Array.mapi (fun i v -> Cset.choose_nth c i = v) elems))

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
   range/32 members, floored at 8 (see cset.ml) *)
let arr_max range = max 8 (range lsr 5)

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
    [ 1; 7; 8; 9; 33; 300; 65_536; 70_001; 140_003 ]

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
    oneof [ int_range 1 400; int_range 65_537 70_000; return 131_072; return 140_003 ])

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
          Alcotest.test_case "freeze is immutable" `Quick test_freeze_immutable;
          Alcotest.test_case "freeze copy-on-write union" `Quick test_freeze_copy_on_write_union;
          Alcotest.test_case "array into frozen bitmap" `Quick test_arr_into_frozen_bmp;
          Alcotest.test_case "byte bitmap boundaries" `Quick test_bitmap_boundaries;
          Alcotest.test_case "byte bitmap tail bits" `Quick test_bitmap_ignores_tail_bits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_model;
            prop_union_matches;
            prop_union_frozen_matches;
            prop_union_with_enumerates_fresh;
            prop_queries_match;
            prop_bitmap_codec;
            prop_bitmap_blit_after_removals;
          ] );
    ]
