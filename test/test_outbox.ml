open Repro_engine

let drain box =
  let out = ref [] in
  Outbox.iter box (fun src dst msg -> out := (src, dst, msg) :: !out);
  List.rev !out

let test_basic () =
  let box = Outbox.create () in
  Alcotest.(check bool) "empty" true (Outbox.is_empty box);
  Outbox.push box ~src:0 ~dst:1 "a";
  Outbox.push box ~src:2 ~dst:0 "b";
  Outbox.push box ~src:1 ~dst:2 "c";
  Alcotest.(check int) "length" 3 (Outbox.length box);
  Alcotest.(check (list (triple int int string)))
    "push order preserved"
    [ (0, 1, "a"); (2, 0, "b"); (1, 2, "c") ]
    (drain box)

let test_reuse_across_rounds () =
  (* the engine contract: clear resets the length but keeps the storage,
     so steady-state rounds never grow the buffer *)
  let box = Outbox.create () in
  for round = 1 to 5 do
    Outbox.clear box;
    for i = 0 to 99 do
      Outbox.push box ~src:i ~dst:(i + 1) (round * 1000 + i)
    done;
    Alcotest.(check int) "round length" 100 (Outbox.length box)
  done;
  let cap_after_warmup = Outbox.capacity box in
  for round = 6 to 20 do
    Outbox.clear box;
    for i = 0 to 99 do
      Outbox.push box ~src:i ~dst:(i + 1) (round * 1000 + i)
    done
  done;
  Alcotest.(check int) "capacity stable across rounds" cap_after_warmup (Outbox.capacity box);
  Alcotest.(check (list (triple int int int)))
    "contents are the last round only"
    (List.init 100 (fun i -> (i, i + 1, 20_000 + i)))
    (drain box)

let test_growth () =
  let box = Outbox.create () in
  Alcotest.(check int) "initial capacity" 0 (Outbox.capacity box);
  for i = 0 to 999 do
    Outbox.push box ~src:i ~dst:0 i
  done;
  Alcotest.(check int) "length" 1000 (Outbox.length box);
  Alcotest.(check (list (triple int int int)))
    "order across growth"
    (List.init 1000 (fun i -> (i, 0, i)))
    (drain box)

let test_clear_empty () =
  let box = Outbox.create () in
  Outbox.clear box;
  Alcotest.(check bool) "still empty" true (Outbox.is_empty box);
  Outbox.push box ~src:3 ~dst:4 'x';
  Outbox.clear box;
  Alcotest.(check int) "cleared" 0 (Outbox.length box);
  Alcotest.(check (list (triple int int char))) "iterates nothing" [] (drain box)

let test_packed_ids () =
  (* a slot's source and destination share one word: the extremes of
     both fields must come back unmixed *)
  let box = Outbox.create () in
  let top = Outbox.max_id in
  Alcotest.(check int) "max id" ((1 lsl 31) - 1) top;
  let pairs =
    [ (top, top); (0, top); (top, 0); (top - 1, 1); (1 lsl 30, (1 lsl 30) - 1); (0, 0) ]
  in
  List.iteri (fun i (src, dst) -> Outbox.push box ~src ~dst i) pairs;
  Alcotest.(check (list (triple int int int)))
    "ids round-trip through iter"
    (List.mapi (fun i (src, dst) -> (src, dst, i)) pairs)
    (drain box);
  List.iteri
    (fun i (src, dst) ->
      Alcotest.(check int) "src" src (Outbox.src box i);
      Alcotest.(check int) "dst" dst (Outbox.dst box i);
      Alcotest.(check int) "msg" i (Outbox.msg box i))
    pairs;
  List.iter
    (fun (src, dst) ->
      Alcotest.check_raises "id out of range" (Invalid_argument "Outbox.push: id out of range")
        (fun () -> Outbox.push box ~src ~dst 0))
    [ (top + 1, 0); (0, top + 1); (-1, 0); (0, -1); (min_int, max_int) ];
  Alcotest.(check int) "refused pushes leave no slot" (List.length pairs) (Outbox.length box);
  Alcotest.check_raises "slot past the length" (Invalid_argument "Outbox: slot out of range")
    (fun () -> ignore (Outbox.dst box (List.length pairs)));
  Alcotest.check_raises "negative slot" (Invalid_argument "Outbox: slot out of range") (fun () ->
      ignore (Outbox.src box (-1)))

let test_cancelled_slots () =
  let box = Outbox.create () in
  let top = Outbox.max_id in
  for i = 0 to 9 do
    Outbox.push box ~src:(top - i) ~dst:(i * 1000) i
  done;
  let seen = ref [] in
  Outbox.filter box (fun _ _ msg ->
      seen := msg :: !seen;
      msg mod 3 <> 0);
  Alcotest.(check (list int)) "filter visits every slot in order" (List.init 10 Fun.id)
    (List.rev !seen);
  Alcotest.(check int) "cancelled slots keep their place" 10 (Outbox.length box);
  for i = 0 to 9 do
    let cancelled = i mod 3 = 0 in
    Alcotest.(check int) "dst, -1 when cancelled" (if cancelled then -1 else i * 1000)
      (Outbox.dst box i);
    Alcotest.(check int) "src survives cancellation" (top - i) (Outbox.src box i);
    Alcotest.(check int) "msg survives cancellation" i (Outbox.msg box i)
  done;
  Alcotest.(check (list (triple int int int)))
    "iter skips cancelled slots"
    (List.filter_map
       (fun i -> if i mod 3 = 0 then None else Some (top - i, i * 1000, i))
       (List.init 10 Fun.id))
    (drain box);
  (* a second filter sees only the live slots, and cancels no more *)
  let again = ref 0 in
  Outbox.filter box (fun _ _ _ ->
      incr again;
      true);
  Alcotest.(check int) "second filter sees live slots only" 6 !again;
  (* a slot reused after clear is live again *)
  Outbox.clear box;
  Outbox.push box ~src:1 ~dst:2 99;
  Alcotest.(check int) "reused slot is live" 2 (Outbox.dst box 0)

let () =
  Alcotest.run "outbox"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "reuse across rounds" `Quick test_reuse_across_rounds;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "clear" `Quick test_clear_empty;
          Alcotest.test_case "packed ids at the extremes" `Quick test_packed_ids;
          Alcotest.test_case "cancelled slots" `Quick test_cancelled_slots;
        ] );
    ]
