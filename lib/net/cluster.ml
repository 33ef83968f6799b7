open Repro_graph
open Repro_engine
open Repro_discovery

type spec = {
  n : int;
  algo : Algorithm.t;
  family : Generate.family;
  seed : int;
  backend : Backend.t;
  tick_period : float;
  timeout : float;
  dir : string option;
  trace : Trace.sink;
  check_invariants : bool;
  fault : Fault.t;
}

let default_spec algo =
  {
    n = 8;
    algo;
    family = Generate.K_out 3;
    seed = 0;
    backend = Backend.Process Backend.Uds;
    tick_period = Node.default_tick_period;
    timeout = 30.0;
    dir = None;
    trace = Trace.null;
    check_invariants = true;
    fault = Fault.none;
  }

type node_outcome = Finished of Control.final | Crashed of string | Unresponsive

type node_report = { id : int; outcome : node_outcome; completed : bool }

type invariant_status = Passed of int | Failed of string | Skipped of string

type result = {
  algorithm : string;
  family : string;
  backend : Backend.t;
  n : int;
  seed : int;
  converged : bool;
  wall_time : float;
  events : int;
  crashed : int list;
  invariants : invariant_status;
  nodes : node_report array;
  totals : Control.final option;  (** aggregate, when every node reported *)
}

(* Crash/restart accounting makes strict event-conservation unreliable
   on the live path (a payload delivered just before its ack was lost to
   a kill is later counted as dropped too), so any plan that can crash a
   process checks under the relaxed rules. *)
let lenient_for (spec : spec) = Fault.crashed_nodes spec.fault <> []

(* --- the mux: every node a live Node_core in this one process ------ *)

(* The mux runs every node as a live Node_core in this one process on a
   virtual clock (trace-identical to the async simulator on fault-free
   runs). It follows the live crash rules, so any plan that can crash a
   node checks under the relaxed rules, like the socket path. *)
let run_mux (spec : spec) =
  if spec.n < 1 then invalid_arg "Cluster.run: n must be positive";
  let topology = Generate.of_seed spec.family ~n:spec.n ~seed:spec.seed in
  let checker =
    if spec.check_invariants then Some (Trace.Invariants.create ~lenient:(lenient_for spec) ())
    else None
  in
  let trace =
    match checker with
    | None -> spec.trace
    | Some inv -> Trace.tee (Trace.Invariants.sink inv) spec.trace
  in
  let run_spec =
    {
      Run_async.default_spec with
      seed = spec.seed;
      fault = spec.fault;
      trace;
    }
  in
  let sim, finals = Mux.exec_spec run_spec spec.algo topology in
  let invariants =
    match checker with
    | None -> Skipped "disabled"
    | Some inv -> (
      match Trace.Invariants.final_check inv sim.Run_async.metrics with
      | () -> Passed (Trace.Invariants.events_seen inv)
      | exception Trace.Invariants.Violation msg -> Failed msg)
  in
  (* a node that ended the run dead is reported crashed *)
  let crashed = List.filter (fun v -> not sim.Run_async.alive.(v)) (List.init spec.n Fun.id) in
  {
    algorithm = spec.algo.Algorithm.name;
    family = Generate.family_name spec.family;
    backend = spec.backend;
    n = spec.n;
    seed = spec.seed;
    converged = sim.Run_async.completed;
    wall_time = sim.Run_async.time;
    events = (match checker with Some inv -> Trace.Invariants.events_seen inv | None -> 0);
    crashed;
    invariants;
    nodes =
      Array.mapi
        (fun id (f : Control.final) ->
          { id; outcome = Finished f; completed = f.Control.complete_tick <> None })
        finals;
    totals = Some (Array.fold_left Control.add_final Control.zero_final finals);
  }

(* --- socket backends: one forked process per node ------------------ *)

type child = {
  id : int;
  pid : int;
  fd : Unix.file_descr;  (* parent side of the control socketpair *)
  lines : Control.reader;
  mutable refused : string option;  (* why its control stream was dropped *)
  mutable events : (float * Trace.event) list;  (* newest first *)
  mutable completed : bool;
  mutable final : Control.final option;
  mutable eof : bool;
  mutable exit_status : Unix.process_status option;
}

let event_rank (ev : Trace.event) =
  match ev with
  | Trace.Join _ | Trace.Genesis _ -> 0
  | Trace.Crash _ | Trace.Leave _ -> 1
  | Trace.Round_begin _ | Trace.Tick _ -> 2
  | Trace.Send _ -> 3
  | Trace.Deliver _ | Trace.Content _ -> 4
  | Trace.Drop _ | Trace.Suspect _ | Trace.Retire _ | Trace.Converge _ -> 5
  | Trace.Complete | Trace.Give_up -> 6

let handle_line child line =
  match Control.parse line with
  | Error _ -> ()  (* tolerate garbage: a crashing child may truncate a line *)
  | Ok (Control.Event (time, ev)) -> child.events <- (time, ev) :: child.events
  | Ok (Control.Completed (_, _)) -> child.completed <- true
  | Ok (Control.Final f) -> child.final <- Some f

(* One read from a readable child. The coordinator reads each readable
   child once per loop turn, so a child that streams faster than the
   coordinator reads cannot hold the loop past its deadline. A child
   whose line outgrows the cap is not speaking the protocol: stop
   reading it, and shut the socket so that it sees its harness gone and
   exits. It counts as crashed from then on. *)
let read_child buf child =
  match Unix.read child.fd buf 0 (Bytes.length buf) with
  | 0 -> child.eof <- true
  | k -> (
    match Control.feed child.lines buf k (handle_line child) with
    | Ok () -> ()
    | Error reason -> (
      child.refused <- Some reason;
      child.eof <- true;
      try Unix.shutdown child.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
  | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> child.eof <- true

let status_string = function
  | Unix.WEXITED 0 -> "exit 0"
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let run_sockets (spec : spec) =
  if spec.n < 1 then invalid_arg "Cluster.run: n must be positive";
  List.iter
    (fun (v, _) ->
      if v >= spec.n then invalid_arg "Cluster.run: fault schedules a node outside the cluster")
    (Fault.crashed_nodes spec.fault);
  (* writes to a crashed child's control socket must surface as EPIPE,
     not kill the harness *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let topology = Generate.of_seed spec.family ~n:spec.n ~seed:spec.seed in
  (* the id→address table: socket paths in one directory for UDS;
     for TCP, loopback listeners bound to port 0 now, their real
     addresses read back before any fork, so the table is exact and
     collision-free and no child can connect before a peer listens *)
  let cleanup_dir = ref None in
  let listeners, addrs =
    match spec.backend with
    | Backend.Process Backend.Uds ->
      let dir =
        match spec.dir with
        | Some d -> d
        | None ->
          (* /tmp, not cwd: sun_path is 108 bytes and sandboxed cwds are long *)
          let d = Filename.temp_dir ~temp_dir:"/tmp" "discovery-" ".cluster" in
          cleanup_dir := Some d;
          d
      in
      let addrs =
        Array.init spec.n (fun v ->
            Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" v)))
      in
      (Array.map Transport.listen_socket addrs, addrs)
    | Backend.Process Backend.Tcp ->
      let listeners =
        Array.init spec.n (fun _ ->
            Transport.listen_socket (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)))
      in
      (listeners, Array.map Unix.getsockname listeners)
    | Backend.Mux -> assert false
  in
  let epoch = Unix.gettimeofday () in
  let max_ticks =
    max
      (int_of_float (spec.timeout /. spec.tick_period) + 16)
      (Fault.last_scheduled_round spec.fault + 16)
  in
  (* parent-side control fds every later fork must close, and the
     listeners the parent still holds (kept open for nodes scheduled to
     restart, so a re-forked incarnation inherits the same socket) *)
  let control_fds = ref [] in
  let open_listeners = ref (List.init spec.n (fun v -> (v, listeners.(v)))) in
  let spawn ~announce v =
    (* buffered output must not be duplicated into the child *)
    flush stdout;
    flush stderr;
    let parent_fd, child_fd = Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      let code =
        try
          (try Unix.close parent_fd with Unix.Unix_error _ -> ());
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !control_fds;
          List.iter
            (fun (u, fd) -> if u <> v then try Unix.close fd with Unix.Unix_error _ -> ())
            !open_listeners;
          let report =
            Node.run
              {
                Node.node = v;
                n = spec.n;
                algo = spec.algo;
                seed = spec.seed;
                neighbors = Topology.out_neighbors topology v;
                addrs;
                listen_fd = Some listeners.(v);
                control_fd = Some child_fd;
                epoch;
                tick_period = spec.tick_period;
                idle_timeout = Node.default_idle_timeout;
                max_ticks;
                fault = spec.fault;
                announce;
              }
          in
          ignore report;
          0
        with _ -> 70
      in
      (* the child shares the parent's runtime state: exit without
         flushing inherited channels or running at_exit handlers *)
      Unix._exit code
    | pid ->
      (try Unix.close child_fd with Unix.Unix_error _ -> ());
      Unix.set_nonblock parent_fd;
      control_fds := parent_fd :: !control_fds;
      {
        id = v;
        pid;
        fd = parent_fd;
        lines = Control.reader ~max:(Control.max_line ~n:spec.n);
        refused = None;
        events = [];
        completed = false;
        final = None;
        eof = false;
        exit_status = None;
      }
  in
  let children = Array.init spec.n (fun v -> spawn ~announce:false v) in
  let retired = ref [] in
  (* the parent only keeps listeners it will hand to a restarted child *)
  open_listeners :=
    List.filter
      (fun (v, fd) ->
        if Fault.restart_round spec.fault ~node:v <> None then true
        else begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          false
        end)
      !open_listeners;
  (* the fault plan's crash/restart schedule, on the shared round clock:
     round r's tick fires about r*tick_period after the epoch, so acting
     at (r - 0.5) ticks lands between the victim's rounds r-1 and r *)
  let schedule =
    ref
      (List.stable_sort compare
         (List.map
            (fun (v, r) -> ((float_of_int r -. 0.5) *. spec.tick_period, `Kill, v))
            (Fault.crashed_nodes spec.fault)
         @ List.map
             (fun (v, r) -> ((float_of_int r -. 0.5) *. spec.tick_period, `Respawn, v))
             (Fault.restarting_nodes spec.fault)))
  in
  let expects_respawn v = List.exists (fun (_, act, u) -> act = `Respawn && u = v) !schedule in
  let fatal_kill = ref false in
  let start = Unix.gettimeofday () in
  let deadline = start +. spec.timeout in
  let crash_events = ref [] in
  let halt_sent = ref false in
  let grace_deadline = ref infinity in
  let term_deadline = ref infinity in
  let timed_out = ref false in
  let iter_all f =
    Array.iter f children;
    List.iter f !retired
  in
  let for_all_all p = Array.for_all p children && List.for_all p !retired in
  let broadcast_halt () =
    if not !halt_sent then begin
      halt_sent := true;
      schedule := [];  (* no point maiming a cluster that is tearing down *)
      grace_deadline := Unix.gettimeofday () +. 2.0;
      term_deadline := !grace_deadline +. 0.5;
      let line = Bytes.of_string Control.halt_line in
      iter_all (fun c ->
          if not c.eof then
            try ignore (Unix.write c.fd line 0 (Bytes.length line)) with Unix.Unix_error _ -> ())
    end
  in
  let signal_all signal =
    iter_all (fun c ->
        if c.exit_status = None then try Unix.kill c.pid signal with Unix.Unix_error _ -> ())
  in
  let crashed_child c =
    c.refused <> None
    ||
    match c.exit_status with
    | Some (Unix.WEXITED 0) -> false
    | Some _ -> true
    | None -> false
  in
  let all_reaped () = for_all_all (fun c -> c.exit_status <> None) in
  let all_eof () = for_all_all (fun c -> c.eof) in
  let buf = Bytes.create 65536 in
  while not (all_reaped () && all_eof ()) do
    (* play out the fault plan's schedule *)
    let rec run_due () =
      match !schedule with
      | (at, act, v) :: rest when Unix.gettimeofday () -. epoch >= at ->
        schedule := rest;
        (match act with
        | `Kill ->
          (* a plan kill with no later respawn is fatal to convergence
             even if the victim slipped its completion report out before
             the signal landed — the cluster did not END converged *)
          if not (expects_respawn v) then fatal_kill := true;
          let c = children.(v) in
          if c.exit_status = None then (
            try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | `Respawn ->
          retired := children.(v) :: !retired;
          children.(v) <- spawn ~announce:true v;
          (* the fresh incarnation inherited the listener; drop our copy *)
          open_listeners :=
            List.filter
              (fun (u, fd) ->
                if u = v then begin
                  (try Unix.close fd with Unix.Unix_error _ -> ());
                  false
                end
                else true)
              !open_listeners);
        run_due ()
      | _ -> ()
    in
    run_due ();
    (* reap exits; a non-zero status is a crash (scheduled kills and
       teardown kills included — still crashes from the protocol's point
       of view, just not surprises) *)
    iter_all (fun c ->
        if c.exit_status = None then
          match Unix.waitpid [ Unix.WNOHANG ] c.pid with
          | 0, _ -> ()
          | _, status ->
            c.exit_status <- Some status;
            if crashed_child c then
              crash_events :=
                (Unix.gettimeofday () -. epoch, Trace.Crash { node = c.id }) :: !crash_events
          | exception Unix.Unix_error (ECHILD, _, _) -> c.exit_status <- Some (Unix.WEXITED 0));
    (* the deadline first, on a fresh clock reading: a completion read
       after the deadline does not make a converged run *)
    let now = Unix.gettimeofday () in
    if (not !halt_sent) && now >= deadline then begin
      timed_out := true;
      broadcast_halt ()
    end;
    let converged_now = !schedule = [] && Array.for_all (fun c -> c.completed) children in
    (* a crash makes convergence impossible (the dead node can never
       announce) — unless the plan revives it later, in which case the
       outage is part of the experiment *)
    let fatal_crash =
      Array.exists (fun c -> crashed_child c && not (expects_respawn c.id)) children
    in
    if (not !halt_sent) && (converged_now || fatal_crash) then broadcast_halt ();
    if !halt_sent && now >= !grace_deadline && not (all_reaped ()) then signal_all Sys.sigterm;
    if !halt_sent && now >= !term_deadline && not (all_reaped ()) then signal_all Sys.sigkill;
    let rfds = ref [] in
    iter_all (fun c -> if not c.eof then rfds := c.fd :: !rfds);
    if !rfds = [] then (
      if not (all_reaped ()) then ignore (Unix.select [] [] [] 0.02))
    else begin
      let readable, _, _ =
        try Unix.select !rfds [] [] 0.05 with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      iter_all (fun c -> if List.mem c.fd readable then read_child buf c)
    end
  done;
  let wall_time = Unix.gettimeofday () -. start in
  iter_all (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ());
  List.iter (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ()) !open_listeners;
  (match !cleanup_dir with
  | Some dir ->
    Array.iter
      (function
        | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Unix.ADDR_INET _ -> ())
      addrs;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | None -> ());
  let crashed =
    Array.to_list children |> List.filter crashed_child |> List.map (fun c -> c.id)
  in
  (* [crashed] also lists teardown kills (stragglers reaped after the
     halt), which must not void convergence — only a plan kill that was
     never respawned does, via [fatal_kill] *)
  let converged =
    Array.for_all (fun c -> c.completed) children && (not !timed_out) && not !fatal_kill
  in
  (* merge the per-node streams (every incarnation's) into one
     time-ordered trace; stable sort keeps each node's own order for
     equal (time, rank) keys *)
  let merged =
    Array.to_list children @ !retired
    |> List.concat_map (fun c -> List.rev c.events)
    |> List.append (List.rev !crash_events)
    |> List.stable_sort (fun (t1, e1) (t2, e2) ->
           match compare (t1 : float) t2 with
           | 0 -> compare (event_rank e1) (event_rank e2)
           | c -> c)
  in
  let terminal = if converged then Trace.Complete else Trace.Give_up in
  let checker =
    if spec.check_invariants then
      Some (Trace.Invariants.create ~lenient:(lenient_for spec) ())
    else None
  in
  let check_failure = ref None in
  let emit_checked ev =
    (match checker with
    | Some inv when !check_failure = None -> (
      try Trace.emit (Trace.Invariants.sink inv) ev
      with Trace.Invariants.Violation msg -> check_failure := Some msg)
    | _ -> ());
    Trace.emit spec.trace ev
  in
  List.iter (fun (_, ev) -> emit_checked ev) merged;
  emit_checked terminal;
  Trace.flush spec.trace;
  let totals =
    if Array.for_all (fun c -> c.final <> None) children then
      Some
        (Array.fold_left
           (fun acc c -> Control.add_final acc (Option.get c.final))
           Control.zero_final children)
    else None
  in
  let invariants =
    match (checker, !check_failure) with
    | None, _ -> Skipped "disabled"
    | Some _, Some msg -> Failed msg
    | Some inv, None -> (
      match (crashed, totals) with
      | [], Some t -> (
        (* end-to-end agreement between the merged trace and the nodes'
           own counters, via the same final_check the engines use *)
        match Trace.Invariants.final_check inv (Control.metrics_of_final t) with
        | () -> Passed (Trace.Invariants.events_seen inv)
        | exception Trace.Invariants.Violation msg -> Failed msg)
      | _ :: _, _ -> Skipped "crashed nodes: totals are partial"
      | [], None -> Skipped "missing final reports")
  in
  let nodes =
    Array.map
      (fun c ->
        let outcome =
          match (c.refused, c.final, c.exit_status) with
          | Some why, _, _ -> Crashed why
          | None, Some f, Some (Unix.WEXITED 0) -> Finished f
          | None, _, Some (Unix.WEXITED 0) -> Unresponsive
          | None, _, Some status -> Crashed (status_string status)
          | None, _, None -> Unresponsive
        in
        { id = c.id; outcome; completed = c.completed })
      children
  in
  {
    algorithm = spec.algo.Algorithm.name;
    family = Generate.family_name spec.family;
    backend = spec.backend;
    n = spec.n;
    seed = spec.seed;
    converged;
    wall_time;
    events = List.length merged + 1;
    crashed;
    invariants;
    nodes;
    totals;
  }

let run (spec : spec) =
  match spec.backend with
  | Backend.Mux -> run_mux spec
  | Backend.Process _ -> run_sockets spec

(* --- JSON report ---------------------------------------------------- *)

let json_final (f : Control.final) =
  Printf.sprintf
    {|{"ticks":%d,"sent":%d,"delivered":%d,"dropped":%d,"pointers":%d,"bytes":%d,"complete_tick":%s,"decode_errors":%d,"retransmits":%d,"corrupt_frames":%d}|}
    f.Control.ticks f.Control.sent f.Control.delivered f.Control.dropped f.Control.pointers
    f.Control.bytes
    (match f.Control.complete_tick with Some t -> string_of_int t | None -> "null")
    f.Control.decode_errors f.Control.retransmits f.Control.corrupt_frames

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let result_to_json r =
  let node_json nr =
    let outcome, detail =
      match nr.outcome with
      | Finished f -> ("finished", json_final f)
      | Crashed s -> ("crashed", Printf.sprintf {|"%s"|} (json_escape s))
      | Unresponsive -> ("unresponsive", "null")
    in
    Printf.sprintf {|{"id":%d,"outcome":"%s","completed":%b,"detail":%s}|} nr.id outcome
      nr.completed detail
  in
  let invariants =
    match r.invariants with
    | Passed k -> Printf.sprintf {|{"status":"passed","events":%d}|} k
    | Failed msg -> Printf.sprintf {|{"status":"failed","reason":"%s"}|} (json_escape msg)
    | Skipped why -> Printf.sprintf {|{"status":"skipped","reason":"%s"}|} (json_escape why)
  in
  Printf.sprintf
    {|{"algorithm":"%s","family":"%s","backend":"%s","n":%d,"seed":%d,"converged":%b,"wall_time":%.6f,"events":%d,"crashed":[%s],"invariants":%s,"totals":%s,"nodes":[%s]}|}
    (json_escape r.algorithm) (json_escape r.family)
    (Backend.to_string r.backend)
    r.n r.seed r.converged r.wall_time r.events
    (String.concat "," (List.map string_of_int r.crashed))
    invariants
    (match r.totals with Some t -> json_final t | None -> "null")
    (String.concat "," (Array.to_list (Array.map node_json r.nodes)))
