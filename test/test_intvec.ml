open Repro_util

let test_basic () =
  let v = Intvec.create () in
  Alcotest.(check bool) "empty" true (Intvec.is_empty v);
  Intvec.push v 10;
  Intvec.push v 20;
  Intvec.push v 30;
  Alcotest.(check int) "length" 3 (Intvec.length v);
  Alcotest.(check int) "get 1" 20 (Intvec.get v 1);
  Alcotest.(check int) "last" 30 (Intvec.last v);
  Intvec.set v 1 99;
  Alcotest.(check int) "set" 99 (Intvec.get v 1);
  Alcotest.(check int) "pop" 30 (Intvec.pop v);
  Alcotest.(check int) "length after pop" 2 (Intvec.length v);
  Intvec.clear v;
  Alcotest.(check bool) "cleared" true (Intvec.is_empty v)

let test_growth () =
  let v = Intvec.create ~capacity:1 () in
  for i = 0 to 999 do
    Intvec.push v i
  done;
  Alcotest.(check int) "length" 1000 (Intvec.length v);
  Alcotest.(check (array int)) "contents" (Array.init 1000 (fun i -> i)) (Intvec.to_array v);
  (* reserve keeps the contents and any slice taken before it *)
  let s = Intvec.slice v ~pos:998 ~len:2 in
  Intvec.reserve v 10;
  Intvec.reserve v 5000;
  Intvec.push v 1000;
  Alcotest.(check (array int)) "contents after reserve" (Array.init 1001 (fun i -> i))
    (Intvec.to_array v);
  Alcotest.(check (array int)) "slice across reserve" [| 998; 999 |] (Intvec.slice_to_array s)

let test_bounds () =
  let v = Intvec.of_array [| 1; 2 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Intvec: index out of bounds") (fun () ->
      ignore (Intvec.get v 2));
  Alcotest.check_raises "set oob" (Invalid_argument "Intvec: index out of bounds") (fun () ->
      Intvec.set v (-1) 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Intvec.pop: empty") (fun () ->
      let e = Intvec.create () in
      ignore (Intvec.pop e))

let test_iter_fold () =
  let v = Intvec.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "fold sum" 6 (Intvec.fold ( + ) 0 v);
  let idx_sum = ref 0 in
  Intvec.iteri (fun i x -> idx_sum := !idx_sum + (i * x)) v;
  Alcotest.(check int) "iteri" 8 !idx_sum

let test_of_array_copies () =
  let a = [| 1; 2; 3 |] in
  let v = Intvec.of_array a in
  a.(0) <- 99;
  Alcotest.(check int) "of_array copies" 1 (Intvec.get v 0)

let test_slice () =
  let v = Intvec.of_array [| 5; 6; 7; 8; 9 |] in
  let s = Intvec.slice v ~pos:1 ~len:3 in
  Alcotest.(check int) "length" 3 (Intvec.slice_length s);
  Alcotest.(check int) "get 0" 6 (Intvec.slice_get s 0);
  Alcotest.(check int) "get 2" 8 (Intvec.slice_get s 2);
  Alcotest.(check (array int)) "to_array" [| 6; 7; 8 |] (Intvec.slice_to_array s);
  Alcotest.(check int) "fold" 21 (Intvec.slice_fold ( + ) 0 s);
  let seen = ref [] in
  Intvec.slice_iter (fun x -> seen := x :: !seen) s;
  Alcotest.(check (list int)) "iter order" [ 6; 7; 8 ] (List.rev !seen);
  let empty = Intvec.slice v ~pos:5 ~len:0 in
  Alcotest.(check int) "empty slice" 0 (Intvec.slice_length empty);
  Alcotest.(check (array int)) "empty to_array" [||] (Intvec.slice_to_array empty)

let test_slice_bounds () =
  let v = Intvec.of_array [| 1; 2; 3 |] in
  let bad pos len =
    Alcotest.check_raises "slice oob" (Invalid_argument "Intvec.slice: invalid slice")
      (fun () -> ignore (Intvec.slice v ~pos ~len))
  in
  bad (-1) 1;
  bad 0 4;
  bad 2 2;
  bad 0 (-1);
  let s = Intvec.slice v ~pos:1 ~len:2 in
  Alcotest.check_raises "get below" (Invalid_argument "Intvec.slice_get: index out of bounds")
    (fun () -> ignore (Intvec.slice_get s (-1)));
  Alcotest.check_raises "get above" (Invalid_argument "Intvec.slice_get: index out of bounds")
    (fun () -> ignore (Intvec.slice_get s 2))

let test_slice_survives_growth () =
  (* the documented contract: a slice of an append-only vector stays
     valid even when later pushes force the vector to reallocate *)
  let v = Intvec.create ~capacity:2 () in
  Intvec.push v 10;
  Intvec.push v 11;
  let s = Intvec.slice v ~pos:0 ~len:2 in
  for i = 0 to 99 do
    Intvec.push v i
  done;
  Alcotest.(check (array int)) "slice unchanged after growth" [| 10; 11 |]
    (Intvec.slice_to_array s)

(* overlapping and disjoint blits are the property below *)
let test_int_moves () =
  let a = Array.init 10 Fun.id in
  let c = Intvec.copy_ints a in
  Alcotest.(check (array int)) "copy" a c;
  c.(0) <- 99;
  Alcotest.(check int) "copy copies" 0 a.(0);
  Alcotest.(check (array int)) "empty copy" [||] (Intvec.copy_ints [||]);
  let big = Array.init 1000 (fun i -> i * 3) in
  Alcotest.(check (array int)) "copy past the minor-heap size" big (Intvec.copy_ints big);
  let bad what f = Alcotest.check_raises what (Invalid_argument what) f in
  List.iter
    (fun (spos, dpos, len) ->
      bad "Intvec.blit_ints: invalid range" (fun () -> Intvec.blit_ints a spos c dpos len))
    [ (-1, 0, 1); (0, -1, 1); (0, 0, -1); (6, 0, 5); (0, 6, 5) ]

let prop_push_pop_roundtrip =
  QCheck2.Test.make ~name:"pushes then pops return reversed input" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) int)
    (fun xs ->
      let v = Intvec.create () in
      List.iter (Intvec.push v) xs;
      let popped = List.init (List.length xs) (fun _ -> Intvec.pop v) in
      popped = List.rev xs && Intvec.is_empty v)

(* Inputs shaped like the sort's callers' batches as well as arbitrary
   ones: ascending runs laid end to end (a slice of a learn order, which
   grows by ascending batches), descending, all-equal, heavy duplicates
   and presorted; lengths run past the insertion-sort runs and the
   first scratch size. *)
let gen_sort_input =
  QCheck2.Gen.(
    let* len = oneof [ int_range 0 100; int_range 0 5000 ] in
    let sorted a =
      Array.sort compare a;
      a
    in
    let* a =
      oneof
        [
          array_size (return len) (int_range (-1_000_000) 1_000_000);
          array_size (return len) (int_range (-50) 50);
          map (fun v -> Array.make len v) int;
          map (fun a -> sorted a) (array_size (return len) int);
          map
            (fun a ->
              let a = sorted a in
              Array.init len (fun i -> a.(len - 1 - i)))
            (array_size (return len) int);
          (let* runs = int_range 1 12 in
           let* a = array_size (return len) (int_range 0 (4 * (len + 1))) in
           let* cuts = array_size (return (runs - 1)) (int_range 0 len) in
           let cuts = sorted (Array.append [| 0; len |] cuts) in
           for r = 0 to Array.length cuts - 2 do
             let part = Array.sub a cuts.(r) (cuts.(r + 1) - cuts.(r)) in
             Array.blit (sorted part) 0 a cuts.(r) (Array.length part)
           done;
           return a);
        ]
    in
    let* m = oneof [ return len; int_range 0 len ] in
    return (a, m))

let prop_sort_prefix_matches_array_sort =
  QCheck2.Test.make ~name:"sort_prefix sorts the prefix and leaves the tail" ~count:500
    gen_sort_input
    (fun (a, m) ->
      let sorted = Array.sub a 0 m in
      Array.sort compare sorted;
      let b = Array.copy a in
      Intvec.sort_prefix b m;
      Array.sub b 0 m = sorted
      && Array.sub b m (Array.length a - m) = Array.sub a m (Array.length a - m)
      &&
      let v = Intvec.of_array a in
      Intvec.sort v;
      let all = Array.copy a in
      Array.sort compare all;
      Intvec.to_array v = all)

let prop_blit_ints_matches_array_blit =
  QCheck2.Test.make ~name:"blit_ints moves what Array.blit moves" ~count:300
    QCheck2.Gen.(
      let* n = int_range 0 40 in
      let* spos = int_range 0 n in
      let* dpos = int_range 0 n in
      let* len = int_range 0 (n - max spos dpos) in
      let* same = bool in
      return (n, spos, dpos, len, same))
    (fun (n, spos, dpos, len, same) ->
      let src = Array.init n (fun i -> i * 7) in
      let dst = if same then src else Array.init n (fun i -> -i) in
      let expect_src = Array.copy src and expect_dst = Array.copy dst in
      let expect_dst = if same then expect_src else expect_dst in
      Array.blit expect_src spos expect_dst dpos len;
      Intvec.blit_ints src spos dst dpos len;
      dst = expect_dst && src = expect_src)

let () =
  Alcotest.run "intvec"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "iter/fold" `Quick test_iter_fold;
          Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
          Alcotest.test_case "slice" `Quick test_slice;
          Alcotest.test_case "slice bounds" `Quick test_slice_bounds;
          Alcotest.test_case "slice survives growth" `Quick test_slice_survives_growth;
          Alcotest.test_case "int moves" `Quick test_int_moves;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_push_pop_roundtrip;
            prop_sort_prefix_matches_array_sort;
            prop_blit_ints_matches_array_blit;
          ] );
    ]
