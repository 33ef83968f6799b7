(* bench/main.exe — the microbenchmark harness.

   B2-B9, B11, B14-B17: microbenchmarks of the hot substrate operations
   (B14: one wire round trip of a snapshot; B17: the int sort on a
   learn-order-shaped batch) and of one complete discovery run per key
   algorithm (B15: hm on the asynchronous engine; B16: flooding): time
   per run is Bechamel's OLS estimate on the monotonic clock, and minor
   words per run an exact [Gc.minor_words] count over a fixed number of
   runs after a warm-up run; plus two single-shot subjects — B12 (full
   hm run at 65,536) and B13 (continuous-service soak, per-tick). The
   allocation figure is the one the zero-copy/allocation-free engine
   work is graded on — see EXPERIMENTS.md "Benchmark trajectory";
   test/test_alloc.ml pins the allocation of the guarded subjects.

   Modes:
     bench/main.exe            table output
     bench/main.exe --json     table output, and the same rows as
                               machine-readable JSON (default
                               BENCH_results.json; override with -o)

   Set REPRO_BENCH_QUICK=1 to skip the B12 scale subject. The
   experiment tables come from bin/experiments.exe. *)

open Bechamel
open Toolkit
open Repro_util
open Repro_graph
open Repro_discovery

(* ---------- microbenchmark subjects ---------- *)

(* A subject: its name and one run of it. *)
type subject = { label : string; run : unit -> unit }

let subject label f = { label; run = (fun () -> ignore (Sys.opaque_identity (f ()))) }

(* 1,000 bounded draws at a bound that is not a power of two (the
   hm-compact node count), so every draw takes the rejection path *)
let b2_rng =
  let rng = Rng.create ~seed:2 in
  subject "B2 rng_int_1k" (fun () ->
      let acc = ref 0 in
      for _ = 1 to 1000 do
        acc := !acc + Rng.int rng 17_408
      done;
      !acc)

let cset_pair n seed =
  let rng = Rng.create ~seed in
  let mk () =
    let b = Cset.create n in
    for _ = 1 to n / 2 do
      ignore (Cset.add b (Rng.int rng n))
    done;
    b
  in
  (mk (), mk ())

let b3_knowledge_merge =
  let n = 8192 in
  let labels = Array.init n (fun i -> i) in
  let _, src = cset_pair n 3 in
  subject "B3 knowledge_merge_8192" (fun () ->
      let k = Knowledge.create ~n ~owner:0 ~labels () in
      ignore (Knowledge.merge_bits k src))

let b4_graph_gen =
  subject "B4 kout_graph_4096"
    (let counter = ref 0 in
     fun () ->
       incr counter;
       ignore (Generate.k_out ~rng:(Rng.create ~seed:!counter) ~n:4096 ~k:3))

let full_run name algo =
  subject name
    (let counter = ref 0 in
     fun () ->
       incr counter;
       let seed = !counter in
       let topo = Generate.of_seed (Generate.K_out 3) ~n:1024 ~seed in
       let r = Run.exec_spec { Run.default_spec with Run.seed } algo topo in
       assert r.Run.completed)

let b5 = full_run "B5 full_run_hm_1024" Hm_gossip.algorithm
let b6 = full_run "B6 full_run_name_dropper_1024" Name_dropper.algorithm
let b7 = full_run "B7 full_run_min_pointer_1024" Min_pointer.algorithm
let b8 = full_run "B8 full_run_rand_gossip_1024" Rand_gossip.algorithm

(* Flooding is most of the paper table's time: every round re-sends a
   node's unacknowledged learn-order slice to each neighbour, so the
   run is dominated by sizing and merging those slices. *)
let b16 = full_run "B16 full_run_flooding_1024" Flooding.algorithm

(* The int sort behind message sizing and batch merges, on the shape a
   flooding delta has: 4,096 ids in 8 ascending runs laid end to end.
   Each run copies the input into a work array and sorts it there. *)
let b17_sort_runs =
  let m = 4096 and runs = 8 in
  let input = Array.init m (fun i -> ((i mod (m / runs)) * runs) + (i / (m / runs))) in
  let work = Array.make m 0 in
  subject "B17 sort_prefix_runs_4096" (fun () ->
      Intvec.blit_ints input 0 work 0 m;
      Intvec.sort_prefix work m;
      work.(0))

(* B5's run on the asynchronous engine: the async clock's event heap,
   lazy lifecycle rules and per-message latency draws, under the same
   algorithm and topology. *)
let b15_async =
  subject "B15 async_run_hm_1024"
    (let counter = ref 0 in
     fun () ->
       incr counter;
       let seed = !counter in
       let topo = Generate.of_seed (Generate.K_out 3) ~n:1024 ~seed in
       let r =
         Run_async.exec_spec { Run_async.default_spec with Run_async.seed } Hm_gossip.algorithm
           topo
       in
       assert r.Run_async.completed)

(* One broadcast round of the swamping instance at n = 65536, against a
   single shared receiver whose knowledge is already complete (so the
   merge takes the O(1) saturated fast path and the subject isolates the
   per-send cost: snapshot, payload construction, measurement,
   delivery). This is the subject the zero-copy payload work targets —
   before it, every round pays a full bitset snapshot plus an O(n)
   materialisation of the destination list. *)
let b9_broadcast =
  let n = 65536 in
  let labels = Array.init n (fun i -> i) in
  let full =
    let b = Cset.create n in
    for v = 0 to n - 1 do
      ignore (Cset.add b v)
    done;
    b
  in
  let instance node =
    let ctx =
      {
        Algorithm.n;
        node;
        neighbors = [||];
        labels;
        rng = Rng.create ~seed:(9 + node);
      }
    in
    let inst = Swamping.algorithm.Algorithm.make ctx in
    ignore (Knowledge.merge_bits inst.Algorithm.knowledge full);
    inst
  in
  let sender = instance 0 in
  let receiver = instance 1 in
  let metrics = Repro_engine.Metrics.create () in
  Repro_engine.Metrics.begin_round metrics;
  let send ~dst:_ payload =
    Repro_engine.Metrics.record_send metrics ~pointers:(Payload.measure payload) ~bytes:0;
    receiver.Algorithm.receive ~src:0 payload
  in
  subject "B9 broadcast_round_65536"
    (fun () -> sender.Algorithm.round ~round:1 ~send)

(* [a] minus [b], as a fresh set *)
let cset_minus a b =
  let d = Cset.copy a in
  ignore (Cset.diff_into ~dst:d ~src:b);
  d

(* Binary set operations at the knowledge-state sizes the large-n
   engine work targets: union a fixed half-full source in, or diff it
   out (the custody bookkeeping hm runs on every absorbed snapshot),
   then put the destination back in place with the inverse operation
   on the ids that moved. The destination is one private set for all
   runs, so a run allocates only what the two operations allocate, not
   a fresh copy of the set. The adaptive set pays container dispatch at
   4096, meets its promotion boundary around 65,536 (one container) and
   spans 16 containers at 1M. *)
let cset_subjects op_name op undo moved =
  List.map
    (fun n ->
      let dst0, src = cset_pair n (n lxor 22) in
      let dst = Cset.copy dst0 and back = moved dst0 src in
      subject
        (Printf.sprintf "B11 cset_%s_%d" op_name n)
        (fun () ->
          ignore (op ~dst ~src);
          undo ~dst ~src:back))
    [ 4096; 65536; 1048576 ]

(* The mid-density band hm's merges live in: at n = 17,408 (one
   container) a node's knowledge passes from a few ids to all of them
   in about 7 rounds. [card] members per side: 32 stays a sorted array
   under both the old (range/32 = 544) and the current promotion point,
   256 sits between the two (an Arr∪Arr merge before, a bitmap word
   pass now), and 1,024 is a bitmap under both. *)
let cset_union_band =
  let n = 17408 in
  List.map
    (fun card ->
      let rng = Rng.create ~seed:(card + 17) in
      let mk () =
        let b = Cset.create n in
        while Cset.cardinal b < card do
          ignore (Cset.add b (Rng.int rng n))
        done;
        b
      in
      let dst0 = mk () and src = mk () in
      subject
        (Printf.sprintf "B11 cset_union_%d_card%d" n card)
        (fun () ->
          let dst = Cset.copy dst0 in
          ignore (Cset.union_into ~dst ~src)))
    [ 32; 256; 1024 ]

(* A sorted insert into a long-lived array container one member short
   of promotion (n = 65,536, 127 members): adding the smallest absent
   id shifts every member up a slot, and removing it shifts them back.
   The set lives on the major heap, where a generic [Array.blit] pays
   the write barrier per moved element. *)
let cset_add_sorted =
  let n = 65536 in
  let t = Cset.create n in
  for i = 1 to 127 do
    ignore (Cset.add t (i * 512))
  done;
  Gc.full_major ();
  subject "B11 cset_add_sorted_65536"
    (fun () ->
      ignore (Cset.add t 0);
      ignore (Cset.remove t 0))

(* One wire round trip of a half-full knowledge snapshot at n = 65,536,
   the per-frame cost a snapshot pays on the mux path: Adaptive picks
   the bitmap codec at this density, so the subject is the set-to-bytes
   blit on encode and the bytes-to-set build on decode. *)
let b14_wire_bits =
  let n = 65536 in
  let rng = Rng.create ~seed:14 in
  let set = Cset.create n in
  for v = 0 to n - 1 do
    if Rng.int rng 2 = 0 then ignore (Cset.add set v)
  done;
  let payload = Payload.Share (Payload.Bits (Knowledge.external_snapshot (Cset.freeze set))) in
  subject "B14 wire_bits_roundtrip_65536"
    (fun () ->
      let frame = Wire.encode Wire.Adaptive ~universe:n ~room:0 payload in
      match Wire.decode ~universe:n frame ~off:0 ~len:(Bytes.length frame) with
      | Ok _ -> ()
      | Error msg -> failwith msg)

(* ---------- measurement and reporting ---------- *)

type row = { name : string; ns_per_run : float; minor_words_per_run : float }

let estimate ols =
  match Bechamel.Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> Float.nan

(* Runs per exact allocation count. Bechamel's [minor_allocated]
   estimate reads 0 for subjects that allocate a few dozen words per run
   (its per-run figure drowns in the sampling noise), so the words come
   from [Gc.minor_words] itself: one warm-up run (scratch growth,
   memoised snapshots), then this many runs between two readings. The
   reading is unboxed, so the window adds nothing of its own. *)
let exact_runs = 64

let words_per_run s =
  s.run ();
  let before = Gc.minor_words () in
  for _ = 1 to exact_runs do
    s.run ()
  done;
  (Gc.minor_words () -. before) /. float_of_int exact_runs

let measure_subjects () =
  let subjects =
    [ b2_rng; b3_knowledge_merge; b4_graph_gen; b5; b6; b7; b8; b16; b17_sort_runs; b9_broadcast ]
    @ cset_subjects "union" Cset.union_into Cset.diff_into (fun dst0 src -> cset_minus src dst0)
    @ cset_subjects "diff" Cset.diff_into Cset.union_into (fun dst0 src ->
          cset_minus dst0 (cset_minus dst0 src))
    @ cset_union_band
    @ [ cset_add_sorted; b14_wire_bits; b15_async ]
  in
  let tests =
    Test.make_grouped ~name:"repro"
      (List.map (fun s -> Test.make ~name:s.label (Staged.stage s.run)) subjects)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~stabilize:true () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let times = Bechamel.Analyze.all ols Instance.monotonic_clock raw in
  List.map
    (fun s ->
      let name = "repro/" ^ s.label in
      let ns =
        match Hashtbl.find_opt times name with Some t -> estimate t | None -> Float.nan
      in
      { name; ns_per_run = ns; minor_words_per_run = words_per_run s })
    subjects

(* The scale subject: one complete hm run at n = 65,536 (compact
   knowledge regime, domain-parallel engine at the machine's default job
   count). Far too slow for an OLS loop — measured as a single shot, so
   its row is a wall-clock point, not a per-run estimate. Skipped under
   REPRO_BENCH_QUICK. *)
let scale_subject () =
  if Sys.getenv_opt "REPRO_BENCH_QUICK" <> None then []
  else begin
    let n = 65536 in
    let topo = Generate.of_seed (Generate.K_out 3) ~n ~seed:1 in
    let spec = { Run.default_spec with Run.seed = 1; jobs = Pool.default_jobs () } in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = Run.exec_spec spec Hm_gossip.algorithm topo in
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    assert r.Run.completed;
    [ { name = "repro/B12 full_run_hm_65536"; ns_per_run = dt *. 1e9; minor_words_per_run = dw } ]
  end

(* The soak subject: steady-state cost of the continuous discovery
   service under churn, normalised per virtual tick (not per run) so the
   figure is comparable across soak lengths. Unlike the one-shot hot
   paths this loop is not allocation-free — every tick builds payload
   batches and encoded frames — so test_alloc pins it in words per tick
   rather than at zero. Single-shot like B12: a soak is far too long
   for an OLS loop. *)
let soak_subject () =
  let module Service = Repro_service.Service in
  let ticks = 2000 and n = 64 in
  let cap = n + 16 in
  let cooldown = int_of_float (Service.default_lag_bound ~cap) + 16 in
  let cfg =
    {
      Service.n;
      cap;
      seed = 3;
      ticks;
      churn = Some { Service.rate = 0.05; min_live = n / 2; until = ticks - cooldown };
      fault = Repro_engine.Fault.none;
      lag_bound = None;
      full_sync = None;
      backend = None;
      indirect_k = 2;
      lifeguard = true;
      trace = Repro_engine.Trace.null;
    }
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let stats = Service.run cfg in
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  assert (stats.Service.epochs = stats.Service.epochs_closed);
  let per_tick v = v /. float_of_int ticks in
  [ { name = "repro/B13 soak_service_tick_64";
      ns_per_run = per_tick (dt *. 1e9);
      minor_words_per_run = per_tick dw } ]

let human_time ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let human_words w =
  if Float.is_nan w then "n/a"
  else if w >= 1e6 then Printf.sprintf "%.2f Mw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.2f kw" (w /. 1e3)
  else Printf.sprintf "%.0f w" w

let print_table rows =
  print_endline "## Microbenchmarks (time: OLS per-run estimate; words: exact count per run)\n";
  let table =
    Table.create
      ~columns:
        [ ("benchmark", Table.Left); ("time/run", Table.Right); ("minor words/run", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row table [ r.name; human_time r.ns_per_run; human_words r.minor_words_per_run ])
    rows;
  print_string (Table.render table);
  print_newline ()

(* The CPU model, which is what tells two hosts' numbers apart; the
   OS type where /proc/cpuinfo does not exist. *)
let host () =
  let model =
    try
      In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
               Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
    with Sys_error _ -> None
  in
  Option.value model ~default:Sys.os_type

(* [git describe] of the working tree, [None] outside a git checkout *)
let commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    if Unix.close_process_in ic = Unix.WEXITED 0 then line else None

(* Machine-readable trajectory point: one JSON document per bench run,
   compared across PRs. The header names the host, its core count and
   the commit ([git describe --always --dirty], null outside a git
   checkout), so numbers from different machines or host phases are
   not mistaken for a change. The commit is read before the file is
   opened: opening truncates it, and the default output is a tracked
   file, so a later read would always find the tree dirty. NaN (an
   estimate bechamel could not produce) is encoded as null. *)
let write_json path rows =
  let commit = commit () in
  let oc = open_out path in
  let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"repro-bench/v2\",\n";
  Printf.fprintf oc "  \"host\": %S,\n" (host ());
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"commit\": %s,\n"
    (match commit with Some c -> Printf.sprintf "%S" c | None -> "null");
  output_string oc "  \"units\": { \"ns_per_run\": \"ns\", \"minor_words_per_run\": \"words\" },\n";
  output_string oc "  \"subjects\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s, \"minor_words_per_run\": %s }%s\n"
        r.name (num r.ns_per_run)
        (num r.minor_words_per_run)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d subjects)\n" path (List.length rows)

let () =
  let json = ref false in
  let out = ref "BENCH_results.json" in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "-o" :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: %s [--json] [-o FILE]\nunknown argument %S\n" Sys.argv.(0) arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows =
    List.sort
      (fun a b -> String.compare a.name b.name)
      (measure_subjects () @ scale_subject () @ soak_subject ())
  in
  print_table rows;
  if !json then write_json !out rows
