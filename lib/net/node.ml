open Repro_util
open Repro_engine
open Repro_discovery

(* Decorrelated-jitter backoff (the AWS variant): the first delay is
   [base]; each subsequent delay is uniform in [base, min cap (3 * prev)].
   Retries desynchronise instead of thundering in lockstep, and the draw
   comes from a seeded RNG rather than wall clock so a run's retry
   schedule is reproducible. *)
module Backoff = struct
  type t = { rng : Rng.t; base : float; cap : float; mutable current : float }

  let create ~rng ~base ~cap =
    if base <= 0.0 then invalid_arg "Node.Backoff.create: base must be positive";
    if cap < base then invalid_arg "Node.Backoff.create: cap must be at least base";
    { rng; base; cap; current = 0.0 }

  let next t =
    let hi = Float.min t.cap (t.current *. 3.0) in
    let d = if hi <= t.base then t.base else t.base +. Rng.float t.rng (hi -. t.base) in
    t.current <- d;
    d

  let reset t = t.current <- 0.0
end

type config = {
  node : int;
  n : int;
  algo : Algorithm.t;
  seed : int;
  neighbors : int array;
  addrs : Unix.sockaddr array;
  listen_fd : Unix.file_descr option;
  control_fd : Unix.file_descr option;
  epoch : float;
  tick_period : float;
  idle_timeout : float;
  max_ticks : int;
  fault : Fault.t;
  announce : bool;
}

let default_tick_period = 0.01
let default_idle_timeout = 1.0

(* Connect attempts per peer before it is written off; the base retry
   delay and the cap on any single delay; the retransmission timeout.
   Times in wall-clock seconds. *)
let connect_retries = 8
let backoff = 0.02
let backoff_cap = 0.5
let rto = 0.05

type report = { final : Control.final; halted : bool }

(* The transport-side life of one outgoing path. The protocol truth
   (send buffer, sequence state, liveness verdict) lives in the
   {!Node_core} link; this record only tracks the socket and its retry
   budget. [given_up] mirrors the core's [Dead] status — it is cleared
   when a hello revives the link (the core flips Dead back to Down). *)
type conn_state = No_conn | Connecting of Transport.Conn.t | Ready of Transport.Conn.t

type conn = {
  mutable state : conn_state;
  mutable attempt : int;
  mutable retry_at : float;  (* absolute wall-clock *)
  mutable given_up : bool;
  backoff : Backoff.t;
}

type t = {
  cfg : config;
  core : Node_core.t;
  conns : conn array;
  mutable incoming : Transport.Conn.t list;
  listen_fd : Unix.file_descr;
  own_listener : bool;  (** we bound it ourselves, so we unlink/close it *)
  control : Transport.Conn.t option;  (** write side of the control channel *)
  mutable halted : bool;
  mutable running : bool;
}

(* the core runs on epoch-relative time; the runtime's own timers
   (retries, tick scheduling, deadlines) stay on the wall clock *)
let rel cfg = Unix.gettimeofday () -. cfg.epoch

(* --- connection management ----------------------------------------- *)

let promote_ready t dst conn =
  let c = t.conns.(dst) in
  c.state <- Ready conn;
  c.attempt <- 0;
  Backoff.reset c.backoff;
  Node_core.link_up t.core ~now:(rel t.cfg) ~dst

(* A peer that the plan revives is worth waiting for: cap the attempt
   counter instead of declaring it dead, and let the capped backoff keep
   probing until the supervisor re-forks it. *)
let will_return t dst = Fault.restart_round t.cfg.fault ~node:dst <> None

let connect_failed t dst =
  let c = t.conns.(dst) in
  (match c.state with
  | Connecting conn | Ready conn -> Transport.Conn.close conn
  | No_conn -> ());
  c.state <- No_conn;
  Node_core.link_down t.core ~dst;
  c.attempt <- c.attempt + 1;
  if c.attempt > connect_retries && not (will_return t dst) then begin
    c.given_up <- true;
    Node_core.link_dead t.core ~now:(rel t.cfg) ~dst
  end
  else begin
    if c.attempt > connect_retries then c.attempt <- connect_retries + 1;
    c.retry_at <- Unix.gettimeofday () +. Backoff.next c.backoff
  end

let start_connect t dst =
  let addr = t.cfg.addrs.(dst) in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  Unix.set_nonblock fd;
  match Unix.connect fd addr with
  | () -> promote_ready t dst (Transport.Conn.create fd)
  | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN | EINTR), _, _) ->
    t.conns.(dst).state <- Connecting (Transport.Conn.create fd)
  | exception Unix.Unix_error (_, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    connect_failed t dst

let maybe_connect t dst =
  if dst <> t.cfg.node then begin
    let c = t.conns.(dst) in
    (* the core revived a written-off peer (hello handshake): restore
       the retry budget so we actually try to reach it again *)
    if c.given_up && Node_core.link_status t.core ~dst <> Node_core.Dead then begin
      c.given_up <- false;
      c.attempt <- 0;
      c.retry_at <- 0.0;
      Backoff.reset c.backoff
    end;
    match c.state with
    | No_conn
      when (not c.given_up)
           && (Node_core.wants_link t.core ~dst || c.attempt = 0)
           && Unix.gettimeofday () >= c.retry_at ->
      start_connect t dst
    | _ -> ()
  end

(* --- the event loop ------------------------------------------------- *)

let restarting_select rfds wfds timeout =
  try Unix.select rfds wfds [] timeout
  with Unix.Unix_error (EINTR, _, _) -> ([], [], [])

let control_send t line =
  match t.control with
  | None -> ()
  | Some c -> Transport.Conn.queue c (Bytes.of_string line)

(* Block until every queued control line is written or the harness
   closes its end. No deadline: the final report must not be dropped
   when the harness drains slowly, and a harness that stops reading
   bounds this child's exit with its own SIGTERM/SIGKILL escalation. *)
let flush_control t =
  match t.control with
  | None -> ()
  | Some c ->
    let rec go () =
      match Transport.Conn.flush c with
      | `Closed -> ()
      | `Ok ->
        if Transport.Conn.pending_out c then begin
          ignore (restarting_select [] [ Transport.Conn.fd c ] (-1.0));
          go ()
        end
    in
    go ()

let shutdown t =
  (* best-effort: push any queued data frames out, then the final report *)
  Array.iter
    (fun c ->
      match c.state with
      | Ready conn ->
        ignore (Transport.Conn.flush conn);
        Transport.Conn.close conn
      | Connecting conn -> Transport.Conn.close conn
      | No_conn -> ())
    t.conns;
  List.iter Transport.Conn.close t.incoming;
  control_send t (Control.final_line (Node_core.final t.core));
  flush_control t;
  (match t.control with Some c -> Transport.Conn.close c | None -> ());
  if t.own_listener then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.cfg.addrs.(t.cfg.node) with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  end

let run cfg =
  if cfg.n <= 0 then invalid_arg "Node.run: n must be positive";
  if cfg.node < 0 || cfg.node >= cfg.n then invalid_arg "Node.run: node out of range";
  if Array.length cfg.addrs <> cfg.n then invalid_arg "Node.run: addrs must have length n";
  if cfg.tick_period <= 0.0 then invalid_arg "Node.run: tick period must be positive";
  (* a write to a freshly-dead peer must surface as EPIPE, not a signal *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let listen_fd, own_listener =
    match cfg.listen_fd with
    | Some fd -> (fd, false)
    | None -> (Transport.listen_socket cfg.addrs.(cfg.node), true)
  in
  let backoff_rng = Rng.substream ~seed:cfg.seed ~index:(0xb0ff + cfg.node) in
  let conns =
    Array.init cfg.n (fun _ ->
        {
          state = No_conn;
          attempt = 0;
          retry_at = 0.0;
          given_up = false;
          backoff =
            Backoff.create ~rng:(Rng.split backoff_rng) ~base:backoff ~cap:backoff_cap;
        })
  in
  let control = Option.map Transport.Conn.create cfg.control_fd in
  let actions =
    {
      Node_core.emit =
        Option.map
          (fun c ~now ev ->
            Transport.Conn.queue c (Bytes.of_string (Control.event_line ~time:now ev)))
          control;
      xmit =
        (fun ~now:_ ~dst frame ->
          match conns.(dst).state with
          | Ready conn -> Transport.Conn.queue conn frame
          | No_conn | Connecting _ -> ());
      notify_complete =
        (fun ~now ~tick ->
          match control with
          | None -> ()
          | Some c ->
            Transport.Conn.queue c (Bytes.of_string (Control.completed_line ~time:now ~tick)));
      (* connection establishment is polled every loop iteration, so a
         wake needs no immediate action in this runtime *)
      wake = (fun ~dst:_ -> ());
    }
  in
  let core =
    Node_core.create
      {
        Node_core.node = cfg.node;
        n = cfg.n;
        algo = cfg.algo;
        seed = cfg.seed;
        neighbors = cfg.neighbors;
        tick_period = cfg.tick_period;
        rto;
        fault = cfg.fault;
        announce = cfg.announce;
      }
      actions
      ~labels:(Exec.labels_of ~seed:cfg.seed cfg.n)
      ~memo:(Node_core.memo ~n:cfg.n) ~links_up:false ~now:(rel cfg)
  in
  let t =
    {
      cfg;
      core;
      conns;
      incoming = [];
      listen_fd;
      own_listener;
      control;
      halted = false;
      running = true;
    }
  in
  let next_tick = ref (Unix.gettimeofday () +. cfg.tick_period) in
  while t.running do
    let now = Unix.gettimeofday () in
    (* fire the tick timer *)
    if now >= !next_tick then begin
      if Node_core.tick_count core < cfg.max_ticks then Node_core.tick core ~now:(rel cfg)
      else if t.control = None then t.running <- false;
      (* re-arm relative to now: a stalled process must not burst *)
      next_tick := Unix.gettimeofday () +. cfg.tick_period
    end;
    Node_core.flush_faults core ~now:(rel cfg);
    (* retry slots for links in backoff *)
    for dst = 0 to cfg.n - 1 do
      maybe_connect t dst
    done;
    (* retransmission timeouts and owed bare acks / hellos *)
    Node_core.pump core ~now:(rel cfg);
    (* opportunistic flush of every ready link *)
    Array.iteri
      (fun dst c ->
        match c.state with
        | Ready conn -> if Transport.Conn.flush conn = `Closed then connect_failed t dst
        | No_conn | Connecting _ -> ())
      t.conns;
    (match t.control with Some c -> ignore (Transport.Conn.flush c) | None -> ());
    (* assemble the select sets *)
    let rfds = ref [ t.listen_fd ] in
    List.iter (fun c -> rfds := Transport.Conn.fd c :: !rfds) t.incoming;
    (match cfg.control_fd with Some fd -> rfds := fd :: !rfds | None -> ());
    let wfds = ref [] in
    Array.iter
      (fun c ->
        match c.state with
        | Connecting conn -> wfds := Transport.Conn.fd conn :: !wfds
        | Ready conn -> if Transport.Conn.pending_out conn then wfds := Transport.Conn.fd conn :: !wfds
        | No_conn -> ())
      t.conns;
    (match t.control with
    | Some c -> if Transport.Conn.pending_out c then wfds := Transport.Conn.fd c :: !wfds
    | None -> ());
    let now = Unix.gettimeofday () in
    let timeout = ref (!next_tick -. now) in
    Array.iteri
      (fun dst c ->
        match c.state with
        | No_conn when (not c.given_up) && Node_core.wants_link core ~dst ->
          timeout := min !timeout (c.retry_at -. now)
        | _ -> ())
      t.conns;
    let deadline = Node_core.next_rto_deadline core in
    if deadline < infinity then timeout := min !timeout (deadline +. cfg.epoch -. now);
    let timeout = max 0.0 (min !timeout cfg.tick_period) in
    let readable, writable, _ = restarting_select !rfds !wfds timeout in
    (* connect completions and write progress *)
    Array.iteri
      (fun dst c ->
        match c.state with
        | Connecting conn when List.mem (Transport.Conn.fd conn) writable -> (
          match Unix.getsockopt_error (Transport.Conn.fd conn) with
          | None -> promote_ready t dst conn
          | Some _ -> connect_failed t dst)
        | Ready conn when List.mem (Transport.Conn.fd conn) writable ->
          if Transport.Conn.flush conn = `Closed then connect_failed t dst
        | _ -> ())
      t.conns;
    (* accept new incoming connections *)
    if List.mem t.listen_fd readable then begin
      let accepting = ref true in
      while !accepting do
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> t.incoming <- Transport.Conn.create fd :: t.incoming
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> accepting := false
        | exception Unix.Unix_error _ -> accepting := false
      done
    end;
    (* drain incoming data *)
    t.incoming <-
      List.filter
        (fun c ->
          if List.mem (Transport.Conn.fd c) readable then begin
            match
              Transport.Conn.read c ~handle:(fun buf ~off ->
                  Node_core.handle_frame core ~now:(rel cfg) buf ~off)
            with
            | `Ok -> true
            | `Closed ->
              Transport.Conn.close c;
              false
            | `Corrupt reason ->
              Node_core.note_bad_frame core reason;
              Transport.Conn.close c;
              false
          end
          else true)
        t.incoming;
    (* control commands from the harness *)
    (match cfg.control_fd with
    | Some fd when List.mem fd readable ->
      let buf = Bytes.create 64 in
      let reading = ref true in
      while !reading do
        match Unix.read fd buf 0 64 with
        | 0 ->
          (* harness is gone: shut down rather than run orphaned *)
          t.running <- false;
          reading := false
        | k ->
          for i = 0 to k - 1 do
            if Bytes.get buf i = 'H' then begin
              t.halted <- true;
              t.running <- false
            end
          done
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> reading := false
        | exception Unix.Unix_error _ ->
          t.running <- false;
          reading := false
      done
    | _ -> ());
    (* standalone convergence: complete and quiet for the idle window *)
    if
      t.running && cfg.control_fd = None
      && Node_core.is_complete core
      && rel cfg -. Node_core.last_activity core >= cfg.idle_timeout
    then t.running <- false
  done;
  shutdown t;
  { final = Node_core.final t.core; halted = t.halted }
