(* Tests for the deterministic PRNG: reproducibility, bounds, and
   statistical sanity. *)

open Repro_util

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* Known-answer pins: the exact stream is part of every determinism
   claim (goldens, trace certifications, CI baselines), so any change
   to the generator's arithmetic must leave these values unmoved. The
   seed-0 words are the xoshiro256** reference stream for splitmix64
   seed 0. *)
let test_known_answers () =
  let words r k = List.init k (fun _ -> Rng.bits64 r) in
  Alcotest.(check (list int64))
    "create ~seed:0"
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L ]
    (words (Rng.create ~seed:0) 3);
  Alcotest.(check (list int64)) "create ~seed:(-1)" [ 0x8f5520d52a7ead08L ]
    (words (Rng.create ~seed:(-1)) 1);
  let r = Rng.substream ~seed:1 ~index:0x70b0 in
  let d1 = Rng.int r 1024 in
  let d2 = Rng.int r 17_408 in
  let d3 = Rng.int r 1_000_003 in
  Alcotest.(check (list int)) "substream int draws" [ 216; 9050; 688659 ] [ d1; d2; d3 ];
  let parent = Rng.create ~seed:9 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  Alcotest.(check (list int64))
    "split children, then the parent"
    [ 0x54e0325768c669c6L; 0xc979d400f14c44caL; 0x21e90bc830805b17L ]
    (words c1 1 @ words c2 1 @ words parent 1);
  let r = Rng.create ~seed:13 in
  let f1 = Rng.float r 1.0 in
  let f2 = Rng.float r 2.5 in
  Alcotest.(check (list (float 0.0)))
    "float draws" [ 0x1.f038933268cf8p-3; 0x1.f4fe3d0d3056ep+0 ] [ f1; f2 ];
  Alcotest.(check (list int64))
    "substream at the int extremes"
    [ 0xce619da9dfea5cecL; 0x8f5520d52a7ead08L; 0xadec6bead50f3d7aL ]
    (words (Rng.substream ~seed:min_int ~index:max_int) 1
    @ words (Rng.substream ~seed:max_int ~index:min_int) 1
    @ words (Rng.substream ~seed:(-5) ~index:(-7)) 1)

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_substream_stability () =
  let a = Rng.substream ~seed:7 ~index:3 in
  let b = Rng.substream ~seed:7 ~index:3 in
  let c = Rng.substream ~seed:7 ~index:4 in
  Alcotest.(check int64) "same substream" (Rng.bits64 a) (Rng.bits64 b);
  Alcotest.(check bool) "different substream" true (Rng.bits64 a <> Rng.bits64 c)

let test_split_independence () =
  let parent = Rng.create ~seed:9 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "split children differ" true (Rng.bits64 child1 <> Rng.bits64 child2)

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let bound = 1 + Rng.int rng 1000 in
    let v = Rng.int rng bound in
    if v < 0 || v >= bound then Alcotest.failf "Rng.int %d produced %d" bound v
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_small_range () =
  let rng = Rng.create ~seed:11 in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 4) <- true
  done;
  Alcotest.(check bool) "all 4 values hit" true (Array.for_all (fun b -> b) seen)

let test_float_bounds () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of range: %f" v
  done

let test_float_mean () =
  let rng = Rng.create ~seed:17 in
  let sum = ref 0.0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int trials in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "uniform mean drifted: %f" mean

let test_bernoulli () =
  let rng = Rng.create ~seed:19 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0);
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  if Float.abs (rate -. 0.3) > 0.02 then Alcotest.failf "bernoulli rate drifted: %f" rate

let test_permutation () =
  let rng = Rng.create ~seed:23 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_pick () =
  let rng = Rng.create ~seed:29 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    if not (Array.mem v a) then Alcotest.failf "pick produced foreign value %d" v
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let prop_sample_distinct =
  QCheck2.Test.make ~name:"sample_distinct: distinct, in range, avoids" ~count:300
    QCheck2.Gen.(
      let* n = int_range 2 100 in
      let* avoid = int_range (-1) (n - 1) in
      let eligible = if avoid >= 0 then n - 1 else n in
      let* k = int_range 0 eligible in
      let* seed = int_range 0 10_000 in
      return (n, k, avoid, seed))
    (fun (n, k, avoid, seed) ->
      let rng = Rng.create ~seed in
      let out = Rng.sample_distinct rng ~n ~k ~avoid in
      let l = Array.to_list out in
      Array.length out = k
      && List.for_all (fun v -> v >= 0 && v < n && v <> avoid) l
      && List.length (List.sort_uniq compare l) = k)

let test_sample_distinct_unsatisfiable () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Rng.sample_distinct: unsatisfiable request") (fun () ->
      ignore (Rng.sample_distinct rng ~n:3 ~k:3 ~avoid:1))

let () =
  Alcotest.run "rng"
    [
      ( "unit",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "substream stability" `Quick test_substream_stability;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_int_covers_small_range;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "pick" `Quick test_pick;
          Alcotest.test_case "sample_distinct unsatisfiable" `Quick
            test_sample_distinct_unsatisfiable;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_sample_distinct ]);
    ]
