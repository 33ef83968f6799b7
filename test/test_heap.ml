open Repro_util

let test_empty () =
  let h = Heap.create ~dummy:0 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop h));
  Alcotest.check_raises "min_time" (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h))

let test_order_and_ties () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun (t, x) -> Heap.push h t x) [ (2.0, "c"); (1.0, "a"); (2.0, "d"); (1.0, "b") ];
  Alcotest.(check (float 0.0)) "min time" 1.0 (Heap.min_time h);
  let popped = List.init 4 (fun _ -> Heap.pop h) in
  Alcotest.(check (list string)) "time order, ties in push order" [ "a"; "b"; "c"; "d" ] popped;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_growth () =
  let h = Heap.create ~dummy:(-1) in
  for i = 999 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check (list int)) "ascending" (List.init 1000 Fun.id) (List.init 1000 (fun _ -> Heap.pop h))

(* A popped payload is no longer reachable from the heap, not even
   through a slot the sift moved it out of. *)
let test_pop_releases_payload () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 2 in
  (let a = Bytes.make 64 'a' and b = Bytes.make 64 'b' in
   Weak.set w 0 (Some a);
   Weak.set w 1 (Some b);
   Heap.push h 1.0 a;
   Heap.push h 2.0 b;
   Alcotest.(check bytes) "first" a (Heap.pop h);
   Alcotest.(check bytes) "second" b (Heap.pop h));
  Gc.full_major ();
  Alcotest.(check bool) "popped payloads collected" false (Weak.check w 0 || Weak.check w 1);
  Alcotest.(check bool) "heap still alive" true (Heap.is_empty (Sys.opaque_identity h))

type op = Push of int | Pop

let prop_stable_sort_order =
  QCheck2.Test.make ~name:"interleaved pushes and pops follow a stable sort by time" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (frequency [ (3, map (fun t -> Push t) (int_range 0 6)); (2, return Pop) ]))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      (* the model: pending (time, push index) in push order *)
      let pending = ref [] and next = ref 0 in
      let by_time = List.stable_sort (fun (a, _) (b, _) -> compare a b) in
      List.for_all
        (function
          | Push t ->
            Heap.push h (float_of_int t) !next;
            pending := !pending @ [ (t, !next) ];
            incr next;
            true
          | Pop -> (
            match by_time !pending with
            | [] -> Heap.is_empty h
            | (t, x) :: _ ->
              pending := List.filter (fun (_, y) -> y <> x) !pending;
              Heap.min_time h = float_of_int t && Heap.pop h = x))
        ops
      && List.for_all (fun (_, x) -> Heap.pop h = x) (by_time !pending)
      && Heap.is_empty h)

let () =
  Alcotest.run "heap"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "order and ties" `Quick test_order_and_ties;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "pop releases the payload" `Quick test_pop_releases_payload;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_stable_sort_order ]);
    ]
