(* Tests for the domain pool: result ordering, exception propagation,
   nested-use refusal, and the sequential fallback. *)

open Repro_util

exception Boom of int

let indices n = Array.init n (fun i -> fun () -> i)

let test_ordering () =
  (* results come back in task order regardless of scheduling *)
  let tasks =
    Array.init 64 (fun i ->
        fun () ->
         (* stagger task costs so domains genuinely interleave *)
         let acc = ref 0 in
         for k = 1 to (i mod 7) * 10_000 do
           acc := !acc + k
         done;
         ignore !acc;
         i * i)
  in
  let expected = Array.init 64 (fun i -> i * i) in
  Alcotest.(check (array int)) "jobs=4 in order" expected (Pool.run ~jobs:4 tasks);
  Alcotest.(check (array int)) "jobs=1 same" expected (Pool.run ~jobs:1 tasks)

let test_jobs_exceed_tasks () =
  Alcotest.(check (array int))
    "more workers than tasks" (Array.init 3 Fun.id)
    (Pool.run ~jobs:16 (indices 3))

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.run ~jobs:4 [||]);
  Alcotest.(check (array int)) "singleton" [| 0 |] (Pool.run ~jobs:4 (indices 1))

let test_exception_propagates () =
  (* the lowest failing index is re-raised, deterministically *)
  let tasks =
    Array.init 16 (fun i -> fun () -> if i mod 5 = 2 then raise (Boom i) else i)
  in
  List.iter
    (fun jobs ->
      match Pool.run ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i -> Alcotest.(check int) (Printf.sprintf "jobs=%d lowest" jobs) 2 i)
    [ 1; 4 ]

let test_nested_refused () =
  (* a parallel region inside a pool task is refused... *)
  (match Pool.run ~jobs:2 [| (fun () -> Pool.run ~jobs:2 (indices 4)); (fun () -> [||]) |] with
  | _ -> Alcotest.fail "nested parallel run unexpectedly succeeded"
  | exception Invalid_argument _ -> ());
  (* ...but a sequential (jobs=1) sub-run anywhere is fine *)
  let nested =
    Pool.run ~jobs:2
      (Array.init 4 (fun i -> fun () -> Array.to_list (Pool.run ~jobs:1 (indices (i + 1)))))
  in
  Alcotest.(check int) "sequential sub-runs allowed" 4 (Array.length nested);
  Array.iteri
    (fun i l -> Alcotest.(check (list int)) "sub-result" (List.init (i + 1) Fun.id) l)
    nested

(* Every team member, the calling domain (member 0) included, is
   refused a nested parallel region during a phase; the caller is
   unmarked again once the phase returns. *)
let test_team_nested_refused () =
  let team = Pool.Team.create ~members:2 in
  let pool_refused = Array.make 2 false and team_refused = Array.make 2 false in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () ->
      Pool.Team.run team (fun me ->
          pool_refused.(me) <-
            (match Pool.run ~jobs:2 (indices 2) with
            | _ -> false
            | exception Invalid_argument _ -> true);
          team_refused.(me) <-
            (match Pool.Team.create ~members:2 with
            | inner ->
              Pool.Team.shutdown inner;
              false
            | exception Invalid_argument _ -> true)));
  Alcotest.(check (array bool)) "Pool.run refused on every member" [| true; true |] pool_refused;
  Alcotest.(check (array bool))
    "Team.create refused on every member" [| true; true |] team_refused;
  Alcotest.(check (array int)) "caller unmarked after the phase" [| 0; 1 |]
    (Pool.run ~jobs:2 (indices 2))

let test_map () =
  Alcotest.(check (list int))
    "map keeps list order" [ 1; 4; 9; 16; 25 ]
    (Pool.map ~jobs:3 (fun x -> x * x) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "map on empty" [] (Pool.map ~jobs:3 Fun.id [])

let test_parallel_matches_sequential () =
  (* a mini workload shaped like the harness: per-task private rng *)
  let work seed =
    let rng = Rng.create ~seed in
    let acc = ref 0 in
    for _ = 1 to 1000 do
      acc := !acc + Rng.int rng 1000
    done;
    !acc
  in
  let seeds = List.init 20 (fun i -> i + 1) in
  Alcotest.(check (list int))
    "jobs=8 equals jobs=1"
    (Pool.map ~jobs:1 work seeds)
    (Pool.map ~jobs:8 work seeds)

let test_default_jobs_env () =
  Unix.putenv "REPRO_JOBS" "3";
  Alcotest.(check int) "REPRO_JOBS honoured" 3 (Pool.default_jobs ());
  Unix.putenv "REPRO_JOBS" "nope";
  (match Pool.default_jobs () with
  | _ -> Alcotest.fail "expected Invalid_argument for bad REPRO_JOBS"
  | exception Invalid_argument _ -> ());
  Unix.putenv "REPRO_JOBS" "1";
  Alcotest.(check int) "restored" 1 (Pool.default_jobs ())

let () =
  Alcotest.run "pool"
    [
      ( "run",
        [
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "nested use refused" `Quick test_nested_refused;
          Alcotest.test_case "team members refused nesting" `Quick test_team_nested_refused;
        ] );
      ( "map",
        [
          Alcotest.test_case "order" `Quick test_map;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "defaults", [ Alcotest.test_case "REPRO_JOBS" `Quick test_default_jobs_env ] );
    ]
