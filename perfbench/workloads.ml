(* The four workloads. Each builds its inputs from the seed alone
   (topology, fault plan, config) and then calls the library's public
   entry points; with a probe, the same run is observed from outside. *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery
open Repro_net
open Repro_service

(* What one run of a workload produced. Every field but [layer] is a
   pure function of the seed and must not depend on observation. *)
type outcome = {
  messages : int;
  wire_bytes : int;
  rounds : float;  (** rounds (sync), virtual time (mux) or ticks (soak), summed over runs *)
  max_lag : float;  (** worst convergence lag, in rounds or ticks *)
  attempted : int;
  failures : string list;  (** one entry per failed op *)
  labels : string list;  (** one per call into the library, in call order *)
  fingerprint : string;
  layer : (string * float) list;
      (** per-layer counts read from result records: every net and service
          count, zero where the layer does no work *)
}

(* Wraps each call a run makes into the library, so that the caller can
   time it. *)
type timer = { time : 'a. (unit -> 'a) -> 'a }

(* A workload's inputs, built: [run timer None] is the untraced run, [run
   timer (Some probe)] the traced one. *)
type prepared = { generate_s : float; run : timer -> Probe.t option -> outcome }
type t = {
  name : string;
  net : bool;  (** the engine under the algorithm is the mux's wire stack *)
  prepare : seed:int -> prepared;
}

let loss p = Fault.with_loss Fault.none ~p

let kout ~seed ~n = Generate.k_out ~rng:(Rng.substream ~seed ~index:0x70b0) ~n ~k:3

(* [make ()] timed: the part of set-up spent generating topologies. *)
let generating make =
  let t0 = Spans.now () in
  let x = make () in
  (x, Spans.now () -. t0)

(* Untraced: [f Trace.null]. Traced: [f] inside the run span, with a
   fresh invariant checker teed in front of [sink]; a violation found by
   [check] after the run is returned as a failure, one raised during the
   run escapes (and fails the whole workload run). *)
let checked probe ~sink f check =
  match probe with
  | None -> (f Trace.null, [])
  | Some p -> (
    let inv = Trace.Invariants.create () in
    let r = Probe.run p (fun () -> f (Trace.tee (Trace.Invariants.sink inv) sink)) in
    match check inv r with
    | () -> (r, [])
    | exception Trace.Invariants.Violation msg -> (r, [ "invariants: " ^ msg ]))

let instrument probe algo =
  match probe with None -> algo | Some p -> Probe.wrap p algo

(* Seeds of the [count] independent instances a workload runs per seed:
   several instances average out the run-to-run spread of a single
   randomised discovery (hm's round count alone is 7 or 8 at these
   sizes). *)
let instance_seeds ~count ~seed = List.init count (fun i -> (16 * seed) + i)

let final_total finals f =
  List.fold_left (Array.fold_left (fun acc (x : Control.final) -> acc + f x)) 0 finals

(* Per-layer counts of the net layer, summed over the runs' finals; all
   zero on a workload that runs no net layer. *)
let net_layer finals =
  let total = final_total finals and f = float_of_int in
  let retransmits = total (fun x -> x.retransmits) in
  let frames = total (fun x -> x.sent) + retransmits in
  [
    ("net.frames_sent", f frames);
    ("net.retransmits", f retransmits);
    ("net.retransmit_ratio", if frames = 0 then 0.0 else f retransmits /. f frames);
    ("net.corrupt_frames", f (total (fun x -> x.corrupt_frames)));
    ("net.decode_errors", f (total (fun x -> x.decode_errors)));
  ]

(* Per-layer counts of the service, from the runs' stats; all zero on a
   workload that runs no service. *)
let service_layer stats =
  let f = float_of_int in
  let sum get = f (List.fold_left (fun acc s -> acc + get s) 0 stats) in
  let peak get = f (List.fold_left (fun acc s -> max acc (get s)) 0 stats) in
  let gossip = sum (fun s -> s.Service.gossip)
  and entries = sum (fun s -> s.Service.update_entries) in
  [
    ("service.probes", sum (fun s -> s.Service.probes));
    ("service.gossip", gossip);
    ("service.update_entries", entries);
    ("service.full_syncs", sum (fun s -> s.Service.full_syncs));
    ("service.bootstraps", sum (fun s -> s.Service.bootstraps));
    ("service.probe_reqs", sum (fun s -> s.Service.probe_reqs));
    ("service.suspicion_msgs", sum (fun s -> s.Service.suspicion_msgs));
    ("service.false_suspicions", sum (fun s -> s.Service.false_suspicions));
    ("service.snapshots_peak", peak (fun s -> s.Service.snapshots_peak));
    ("service.lag_table_peak", peak (fun s -> s.Service.lag_table_peak));
    ("service.entries_per_gossip", if gossip = 0.0 then 0.0 else entries /. gossip);
  ]

let mean_lag results lag =
  List.fold_left (fun acc r -> acc +. lag r) 0.0 results /. float_of_int (List.length results)

(* One synchronous run per (seed, topology, algorithm); the worst lag of
   a one-shot run is its round count to strong completion. *)
let sync_runs jobs =
  let run timer probe =
    let sink = match probe with None -> Trace.null | Some p -> Probe.round_sink p in
    let results =
      List.map
        (fun (seed, topo, algo) ->
          let algo = instrument probe algo in
          timer.time (fun () ->
              checked probe ~sink
                (fun trace -> Run.exec_spec { Run.default_spec with seed; trace } algo topo)
                (fun inv r -> Trace.Invariants.final_check inv r.Run.metrics)))
        jobs
    in
    let failures =
      List.concat_map
        (fun ((r : Run.result), fs) ->
          if r.completed then fs else (r.algorithm ^ ": not complete under Strong") :: fs)
        results
    in
    let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 results in
    {
      messages = sum (fun r -> r.Run.messages);
      wire_bytes = sum (fun r -> r.Run.bytes);
      rounds = float_of_int (sum (fun r -> r.Run.rounds));
      max_lag = mean_lag results (fun (r, _) -> float_of_int r.Run.rounds);
      attempted = List.length results;
      failures;
      labels = List.map (fun ((r : Run.result), _) -> Printf.sprintf "%s/%d" r.algorithm r.seed) results;
      fingerprint =
        String.concat ";"
          (List.map
             (fun ((r : Run.result), _) ->
               Printf.sprintf "%s:%d:%b:%d:%d:%d:%d" r.algorithm r.seed r.completed r.rounds
                 r.messages r.pointers r.bytes)
             results);
      layer = net_layer [] @ service_layer [];
    }
  in
  run

let hm () = Result.get_ok (Registry.find "hm")

let hm_compact ?(n = 17_408) () =
  {
    name = "hm-compact-17k";
    net = false;
    prepare =
      (fun ~seed ->
        let jobs, generate_s =
          generating (fun () ->
              List.map
                (fun seed -> (seed, kout ~seed ~n, hm ()))
                (instance_seeds ~count:3 ~seed))
        in
        { generate_s; run = sync_runs jobs });
  }

let paper_table ?(n = 1024) () =
  {
    name = "paper-table-1k";
    net = false;
    prepare =
      (fun ~seed ->
        let topo, generate_s = generating (fun () -> kout ~seed ~n) in
        { generate_s; run = sync_runs (List.map (fun a -> (seed, topo, a)) Registry.all) });
  }

(* One mux run: the result, and the correctness failures. *)
let mux_run probe ~fault (seed, topo) =
  let (r, finals), failures =
    checked probe ~sink:Trace.null
      (fun trace ->
        Mux.exec_spec { Run_async.default_spec with seed; fault; trace } (instrument probe (hm ())) topo)
      (fun inv (r, _) -> Trace.Invariants.final_check inv r.Run_async.metrics)
  in
  let sent = Array.fold_left (fun acc (f : Control.final) -> acc + f.sent) 0 finals in
  let failures =
    (if r.completed then [] else [ "mux: not complete under Strong" ])
    @ (if sent = r.messages then []
       else [ Printf.sprintf "mux: finals sent %d <> messages %d" sent r.messages ])
    @ failures
  in
  (r, finals, failures)

(* Six instances: under 5% loss an instance completes after 8 time units,
   or after 9-11 when a lost frame waits for its retransmit; with three,
   these tails spread the run's cost by 0.12 across seeds 1-10. *)
let mux_lossy ?(n = 2048) () =
  {
    name = "mux-hm-lossy-2k";
    net = true;
    prepare =
      (fun ~seed ->
        let inputs, generate_s =
          generating (fun () ->
              List.map (fun seed -> (seed, kout ~seed ~n)) (instance_seeds ~count:6 ~seed))
        in
        let fault = loss 0.05 in
        let run timer probe =
          let runs = List.map (fun i -> timer.time (fun () -> mux_run probe ~fault i)) inputs in
          let sum f = List.fold_left (fun acc (r, _, _) -> acc + f r) 0 runs in
          let finals = List.map (fun (_, finals, _) -> finals) runs in
          let bytes (r : Run_async.result) = Metrics.bytes_sent r.metrics in
          {
            messages = sum (fun r -> r.messages);
            wire_bytes = sum bytes;
            rounds = List.fold_left (fun acc (r, _, _) -> acc +. r.Run_async.time) 0.0 runs;
            max_lag = mean_lag runs (fun (r, _, _) -> r.Run_async.time);
            attempted = List.length runs;
            failures = List.concat_map (fun (_, _, fs) -> fs) runs;
            labels = List.map (fun ((r : Run_async.result), _, _) -> Printf.sprintf "hm/%d" r.seed) runs;
            fingerprint =
              String.concat ";"
                (List.map
                   (fun ((r : Run_async.result), _, _) ->
                     Printf.sprintf "%d:%b:%.17g:%d:%d:%d:%d" r.seed r.completed r.time r.ticks
                       r.messages r.pointers (bytes r))
                   runs)
              ^ Printf.sprintf ";retransmits:%d" (final_total finals (fun x -> x.retransmits));
            layer = net_layer finals @ service_layer [];
          }
        in
        { generate_s; run });
  }

(* Membership churn at [rate] changes per tick as a schedule with a
   fixed number of changes: one per slot of 1/rate ticks up to [until],
   cycling join, leave, join, crash (the random generator's 2:1:1 mix).
   The seed picks each change's tick within its slot, the fresh ids that
   join and the founders that leave or crash. A fixed count keeps the
   soak's work the same from seed to seed. *)
let churn_plan ~seed ~n ~cap ~rate ~until base =
  let rng = Rng.substream ~seed ~index:0xc4a2 in
  let slot = max 1 (int_of_float (Float.round (1.0 /. rate))) in
  let shuffled lo hi =
    let a = Array.init (hi - lo) (fun i -> lo + i) in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let fresh = shuffled n cap and founders = shuffled 0 n in
  let joined = ref 0 and departed = ref 0 in
  List.fold_left
    (fun plan k ->
      let tick = 2 + (k * slot) + Rng.int rng slot in
      match k mod 4 with
      | 0 | 2 ->
        let node = fresh.(!joined) in
        incr joined;
        Fault.with_join plan ~node ~round:tick
      | m ->
        let node = founders.(!departed) in
        incr departed;
        if m = 1 then Fault.with_leave plan ~node ~round:tick
        else Fault.with_crash plan ~node ~round:tick)
    base
    (List.init ((until - 1) / slot) Fun.id)

(* One service run: its stats, or the lag violation that stopped it. *)
let service_run probe config =
  match probe with
  | None -> Service.run config
  | Some p ->
    let trace, finish = Probe.tick_sink p in
    Probe.run p (fun () ->
        let s = Service.run { config with Service.trace } in
        finish ();
        s)

let soak ?(n = 256) ?(ticks = 2000) () =
  {
    name = "soak-churn-256";
    net = false;
    prepare =
      (fun ~seed ->
        let cap = n + max 16 (n / 4) in
        let bound = Service.default_lag_bound ~cap in
        let until = max 1 (ticks - (int_of_float bound + 16)) in
        let config seed =
          {
            Service.n;
            cap;
            seed;
            ticks;
            churn = None;
            fault = churn_plan ~seed ~n ~cap ~rate:0.01 ~until (loss 0.05);
            lag_bound = Some bound;
            full_sync = None;
            backend = None;
            indirect_k = 2;
            lifeguard = true;
            trace = Trace.null;
          }
        in
        let configs = List.map config (instance_seeds ~count:3 ~seed) in
        let run timer probe =
          let runs =
            List.map
              (fun c ->
                timer.time @@ fun () ->
                match service_run probe c with
                | s ->
                  let open_epochs = s.Service.epochs - s.epochs_closed in
                  ( Some s,
                    List.init open_epochs (fun _ -> "epoch not closed within the lag bound")
                    @
                    if s.false_retirements = 0 then []
                    else [ Printf.sprintf "%d false retirements" s.false_retirements ] )
                | exception Trace.Lag.Violation msg -> (None, [ "lag violation: " ^ msg ]))
              configs
          in
          let stats = List.filter_map fst runs in
          let sum get = List.fold_left (fun acc s -> acc + get s) 0 stats in
          {
            messages = sum (fun s -> s.Service.msgs);
            wire_bytes = sum (fun s -> s.Service.bytes);
            rounds = float_of_int (sum (fun s -> s.Service.ticks_run));
            max_lag = mean_lag stats (fun s -> s.Service.max_lag);
            attempted =
              List.fold_left
                (fun acc (s, _) -> acc + match s with Some s -> max 1 s.Service.epochs | None -> 1)
                0 runs;
            failures = List.concat_map snd runs;
            labels = List.map (fun c -> Printf.sprintf "service/%d" c.Service.seed) configs;
            fingerprint =
              String.concat ";"
                (List.map
                   (function Some s, _ -> Service.stats_to_json s | None, _ -> "violation")
                   runs);
            layer = net_layer [] @ service_layer stats;
          }
        in
        { generate_s = 0.0; run });
  }

let all () = [ hm_compact (); paper_table (); mux_lossy (); soak () ]
let find name = List.find_opt (fun w -> String.equal w.name name) (all ())
