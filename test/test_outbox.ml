open Repro_engine

let drain box =
  let out = ref [] in
  Outbox.iter box (fun src dst msg -> out := (src, dst, msg) :: !out);
  List.rev !out

let test_basic () =
  let box = Outbox.create () in
  Alcotest.(check int) "empty" 0 (Outbox.length box);
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
  Alcotest.(check int) "still empty" 0 (Outbox.length box);
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

(* Slots past the first segment live in fixed 4,096-slot segments: push
   three full segments and 17 slots more, the last segment's ids at the
   extremes of their range, and read every slot next to a segment
   boundary through each accessor, through [iter] and after a [filter]
   that cancels slots on both sides of each boundary. *)
let seg = 4096
let boundaries = [ seg; 2 * seg; 3 * seg ]

let test_segment_boundaries () =
  let box = Outbox.create () in
  let total = (3 * seg) + 17 and top = Outbox.max_id in
  let in_last i = i >= 3 * seg in
  let src i = if in_last i then if i land 1 = 0 then 0 else top else i in
  let dst i = if in_last i then if i land 1 = 0 then top else 0 else total - i in
  let caps = ref [] in
  for i = 0 to total - 1 do
    Outbox.push box ~src:(src i) ~dst:(dst i) i;
    match !caps with
    | c :: _ when c = Outbox.capacity box -> ()
    | _ -> caps := Outbox.capacity box :: !caps
  done;
  Alcotest.(check (list int))
    "segment 0 doubles, later segments add one block each"
    [ 64; 128; 256; 512; 1024; 2048; seg; 2 * seg; 3 * seg; 4 * seg ]
    (List.rev !caps);
  let near = List.concat_map (fun b -> [ b - 2; b - 1; b; b + 1 ]) boundaries in
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "src of slot %d" i) (src i) (Outbox.src box i);
      Alcotest.(check int) (Printf.sprintf "dst of slot %d" i) (dst i) (Outbox.dst box i);
      Alcotest.(check int) (Printf.sprintf "msg of slot %d" i) i (Outbox.msg box i))
    ((0 :: near) @ [ total - 2; total - 1 ]);
  Alcotest.(check (list (triple int int int)))
    "iter visits every slot in push order"
    (List.init total (fun i -> (src i, dst i, i)))
    (drain box);
  (* cancel the two slots on each side of every boundary *)
  let cancelled i = List.exists (fun b -> i >= b - 2 && i <= b + 1) boundaries in
  let seen = ref [] in
  Outbox.filter box (fun _ _ i ->
      seen := i :: !seen;
      not (cancelled i));
  Alcotest.(check (list int)) "filter visits every slot in order" (List.init total Fun.id)
    (List.rev !seen);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "slot %d cancelled" i) (-1) (Outbox.dst box i);
      Alcotest.(check int) "src survives cancellation" (src i) (Outbox.src box i);
      Alcotest.(check int) "msg survives cancellation" i (Outbox.msg box i))
    near;
  Alcotest.(check (list (triple int int int)))
    "iter skips the cancelled slots"
    (List.filter_map
       (fun i -> if cancelled i then None else Some (src i, dst i, i))
       (List.init total Fun.id))
    (drain box);
  (* a refill past one segment reuses the segments; a cancelled slot is
     live again once pushed over *)
  let cap = Outbox.capacity box in
  Outbox.clear box;
  for i = 0 to seg + 4 do
    Outbox.push box ~src:i ~dst:(seg + 4 - i) (-i)
  done;
  Alcotest.(check int) "capacity after clear and refill" cap (Outbox.capacity box);
  Alcotest.(check int) "refilled boundary slot is live" 3 (Outbox.dst box (seg + 1));
  Alcotest.(check (list (triple int int int)))
    "refill reads back in order"
    (List.init (seg + 5) (fun i -> (i, seg + 4 - i, -i)))
    (drain box)

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
          Alcotest.test_case "segment boundaries" `Quick test_segment_boundaries;
        ] );
    ]
