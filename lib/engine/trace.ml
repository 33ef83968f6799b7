open Repro_util

type drop_reason = Loss | Dead_dst | Unjoined_dst | Partitioned | Throttled

type event =
  | Round_begin of { round : int }
  | Tick of { node : int; time : float; count : int }
  | Send of { src : int; dst : int; pointers : int; bytes : int }
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int; reason : drop_reason }
  | Crash of { node : int }
  | Join of { node : int }
  | Genesis of { node : int; ids : int array }
  | Content of { src : int; dst : int; ids : int array }
  | Leave of { node : int }
  | Suspect of { node : int; target : int }
  | Retire of { node : int; target : int }
  | Converge of { node : int; epoch : int }
  | Complete
  | Give_up

let drop_reason_name = function
  | Loss -> "loss"
  | Dead_dst -> "dead_dst"
  | Unjoined_dst -> "unjoined_dst"
  | Partitioned -> "partitioned"
  | Throttled -> "throttled"

(* "%.12g" prints a given double identically on every run and platform,
   which is all byte-stable traces need; times beyond 12 significant
   digits are not distinguished by the textual diff. *)
let float_str t = Printf.sprintf "%.12g" t

let ids_json ids =
  let b = Buffer.create ((Array.length ids * 4) + 2) in
  Buffer.add_char b '[';
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int id))
    ids;
  Buffer.add_char b ']';
  Buffer.contents b

let event_to_json = function
  | Round_begin { round } -> Printf.sprintf {|{"ev":"round_begin","round":%d}|} round
  | Tick { node; time; count } ->
    Printf.sprintf {|{"ev":"tick","node":%d,"time":%s,"count":%d}|} node (float_str time) count
  | Send { src; dst; pointers; bytes } ->
    Printf.sprintf {|{"ev":"send","src":%d,"dst":%d,"pointers":%d,"bytes":%d}|} src dst pointers
      bytes
  | Deliver { src; dst } -> Printf.sprintf {|{"ev":"deliver","src":%d,"dst":%d}|} src dst
  | Drop { src; dst; reason } ->
    Printf.sprintf {|{"ev":"drop","src":%d,"dst":%d,"reason":"%s"}|} src dst
      (drop_reason_name reason)
  | Crash { node } -> Printf.sprintf {|{"ev":"crash","node":%d}|} node
  | Join { node } -> Printf.sprintf {|{"ev":"join","node":%d}|} node
  | Genesis { node; ids } ->
    Printf.sprintf {|{"ev":"genesis","node":%d,"ids":%s}|} node (ids_json ids)
  | Content { src; dst; ids } ->
    Printf.sprintf {|{"ev":"content","src":%d,"dst":%d,"ids":%s}|} src dst (ids_json ids)
  | Leave { node } -> Printf.sprintf {|{"ev":"leave","node":%d}|} node
  | Suspect { node; target } ->
    Printf.sprintf {|{"ev":"suspect","node":%d,"target":%d}|} node target
  | Retire { node; target } ->
    Printf.sprintf {|{"ev":"retire","node":%d,"target":%d}|} node target
  | Converge { node; epoch } ->
    Printf.sprintf {|{"ev":"converge","node":%d,"epoch":%d}|} node epoch
  | Complete -> {|{"ev":"complete"}|}
  | Give_up -> {|{"ev":"give_up"}|}

type sink = Null | Fn of { emit : event -> unit; flush : unit -> unit }

let null = Null
let is_null = function Null -> true | Fn _ -> false
let emit sink ev = match sink with Null -> () | Fn f -> f.emit ev
let flush = function Null -> () | Fn f -> f.flush ()

let callback ?(flush = fun () -> ()) emit = Fn { emit; flush }

let jsonl oc =
  Fn
    {
      emit =
        (fun ev ->
          output_string oc (event_to_json ev);
          output_char oc '\n');
      flush = (fun () -> Stdlib.flush oc);
    }

let buffer buf =
  Fn
    {
      emit =
        (fun ev ->
          Buffer.add_string buf (event_to_json ev);
          Buffer.add_char buf '\n');
      flush = (fun () -> ());
    }

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Fn fa, Fn fb ->
    Fn
      {
        emit =
          (fun ev ->
            fa.emit ev;
            fb.emit ev);
        flush =
          (fun () ->
            fa.flush ();
            fb.flush ());
      }

module Ring = struct
  type t = {
    data : event array;
    capacity : int;
    mutable len : int;  (* events currently stored, <= capacity *)
    mutable next : int;  (* write position *)
    mutable dropped : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be positive";
    { data = Array.make capacity Complete; capacity; len = 0; next = 0; dropped = 0 }

  let push t ev =
    t.data.(t.next) <- ev;
    t.next <- (t.next + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

  let sink t = Fn { emit = push t; flush = (fun () -> ()) }
  let length t = t.len
  let dropped t = t.dropped

  let contents t =
    let start = (t.next - t.len + t.capacity) mod t.capacity in
    Array.init t.len (fun i -> t.data.((start + i) mod t.capacity))
end

module Invariants = struct
  exception Violation of string

  (* Node status: absent from [status] = never joined; [Active] = joined
     and running; [Crashed] = crash applied (whether or not it ever
     joined). All checks are O(1) per event. *)
  type node_status = Active | Crashed

  type t = {
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable pointers : int;
    mutable bytes : int;
    mutable round : int;  (* last Round_begin *)
    mutable synchronous : bool;  (* saw a Round_begin *)
    mutable last_time : float;
    mutable finished : bool;  (* saw Complete / Give_up *)
    status : (int, node_status) Hashtbl.t;
    tick_counts : (int, int) Hashtbl.t;
    mutable events : int;
    lenient : bool;
    allow_inflight : bool;
    (* provenance audit: per-node set of ids the node genuinely learned
       (its genesis knowledge plus everything delivered to it); armed by
       the first Genesis event. Compressed sets rather than per-id
       hash entries: auditing a large converged run holds n sets of up
       to n ids each, and the saturated containers collapse to O(1). *)
    mutable auditing : bool;
    genuine : (int, Cset.t) Hashtbl.t;
  }

  let create ?(lenient = false) ?(allow_inflight = false) () =
    {
      lenient;
      allow_inflight;
      sent = 0;
      delivered = 0;
      dropped = 0;
      pointers = 0;
      bytes = 0;
      round = 0;
      synchronous = false;
      last_time = neg_infinity;
      finished = false;
      status = Hashtbl.create 64;
      tick_counts = Hashtbl.create 64;
      events = 0;
      auditing = false;
      genuine = Hashtbl.create 64;
    }

  let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

  let require_active t who node =
    match Hashtbl.find_opt t.status node with
    | Some Active -> ()
    | Some Crashed -> fail "%s involves crashed node %d" who node
    | None -> fail "%s involves unjoined node %d" who node

  let genuine_set t node =
    match Hashtbl.find_opt t.genuine node with
    | Some set -> set
    | None ->
      let set = Cset.create_unbounded () in
      Hashtbl.replace t.genuine node set;
      set

  let learn t ~node id = ignore (Cset.add (genuine_set t node) id)

  let check t ev =
    t.events <- t.events + 1;
    if t.finished then fail "event after run completion: %s" (event_to_json ev);
    match ev with
    | Round_begin { round } ->
      t.synchronous <- true;
      if round <> t.round + 1 then
        fail "round %d begins after round %d (rounds must increase by 1)" round t.round;
      (* synchronous rounds resolve every message they send before the
         next round starts; delayed links legitimately carry messages
         across round boundaries, hence allow_inflight *)
      if (not t.allow_inflight) && t.delivered + t.dropped <> t.sent then
        fail "round %d begins with %d unresolved message(s)" round
          (t.sent - t.delivered - t.dropped);
      if t.allow_inflight && t.delivered + t.dropped > t.sent then
        fail "round %d begins with more deliveries+drops than sends" round;
      t.round <- round
    | Tick { node; time; count } ->
      if time < t.last_time then fail "time went backwards: %g after %g" time t.last_time;
      t.last_time <- time;
      require_active t "tick" node;
      let prev = Option.value (Hashtbl.find_opt t.tick_counts node) ~default:0 in
      if count <> prev + 1 then fail "node %d ticked %d after %d" node count prev;
      Hashtbl.replace t.tick_counts node count
    | Send { src; dst = _; pointers; bytes } ->
      require_active t "send" src;
      t.sent <- t.sent + 1;
      t.pointers <- t.pointers + pointers;
      t.bytes <- t.bytes + bytes
    | Deliver { src; dst } ->
      t.delivered <- t.delivered + 1;
      if (not t.lenient) && t.delivered + t.dropped > t.sent then
        fail "more deliveries+drops than sends";
      require_active t "delivery" dst;
      (* a delivery genuinely teaches the receiver the sender's id *)
      if t.auditing then learn t ~node:dst src
    | Drop { src = _; dst; reason } -> (
      t.dropped <- t.dropped + 1;
      if (not t.lenient) && t.delivered + t.dropped > t.sent then
        fail "more deliveries+drops than sends";
      match (reason, Hashtbl.find_opt t.status dst) with
      | Loss, _ | Partitioned, _ | Throttled, _ -> ()
      | Dead_dst, Some Crashed -> ()
      | Dead_dst, _ when t.lenient -> ()
        (* a restarted destination is Active again, but a sender may
           still blame its death window *)
      | Dead_dst, _ -> fail "drop blamed on dead destination %d, which never crashed" dst
      | Unjoined_dst, None -> ()
      | Unjoined_dst, Some _ -> fail "drop blamed on unjoined destination %d, which joined" dst)
    | Crash { node } -> (
      match Hashtbl.find_opt t.status node with
      | Some Crashed -> fail "node %d crashed twice" node
      | _ -> Hashtbl.replace t.status node Crashed)
    | Leave { node } ->
      (* a graceful departure is only legal from an active node; the node
         is inactive afterwards, exactly like a crash *)
      require_active t "leave" node;
      Hashtbl.replace t.status node Crashed
    | Suspect { node; target = _ } -> require_active t "suspicion" node
    | Retire { node; target = _ } -> require_active t "retirement" node
    | Converge { node = _; epoch } ->
      (* observer verdicts carry no liveness obligations of their own;
         the convergence-lag discipline lives in {!Lag} *)
      if epoch < 0 then fail "converge with negative epoch %d" epoch
    | Join { node } -> (
      match Hashtbl.find_opt t.status node with
      | None -> Hashtbl.replace t.status node Active
      | Some Active -> fail "node %d joined twice" node
      | Some Crashed when t.lenient ->
        (* restart: the node revives with a fresh tick sequence *)
        Hashtbl.replace t.status node Active;
        Hashtbl.replace t.tick_counts node 0
      | Some Crashed -> fail "crashed node %d joined" node)
    | Genesis { node; ids } ->
      (* the node's genuinely originated knowledge at birth (or at
         restart, which resets its provenance) *)
      t.auditing <- true;
      let set = Cset.create_unbounded () in
      ignore (Cset.add set node);
      Array.iter (fun id -> ignore (Cset.add set id)) ids;
      Hashtbl.replace t.genuine node set
    | Content { src; dst; ids } ->
      if t.auditing then begin
        (match Hashtbl.find_opt t.genuine src with
        | None -> fail "content from node %d, which has no genesis" src
        | Some set ->
          Array.iter
            (fun id ->
              if id <> src && not (Cset.mem set id) then
                fail "node %d advertised id %d it never genuinely learned (provenance violation)"
                  src id)
            ids);
        (* content that survives the audit becomes genuine knowledge of
           the receiver *)
        let dset = genuine_set t dst in
        ignore (Cset.add dset src);
        Array.iter (fun id -> ignore (Cset.add dset id)) ids
      end
    | Complete | Give_up ->
      t.finished <- true;
      if t.synchronous && (not t.allow_inflight) && t.delivered + t.dropped <> t.sent then
        fail "synchronous run ended with %d unresolved message(s)"
          (t.sent - t.delivered - t.dropped)

  let sink t = callback (check t)
  let events_seen t = t.events

  let final_check t metrics =
    if not t.finished then fail "run produced no Complete/Give_up event";
    let agree what counted total =
      if t.lenient then begin
        (* restarts retire incarnations whose activity is in the trace
           but not in the survivors' totals: the trace dominates *)
        if counted < total then
          fail "%s disagree: trace counted %d, below the %d Metrics recorded" what counted total
      end
      else if counted <> total then
        fail "%s disagree: trace counted %d, Metrics recorded %d" what counted total
    in
    agree "sends" t.sent (Metrics.messages_sent metrics);
    agree "deliveries" t.delivered (Metrics.messages_delivered metrics);
    agree "drops" t.dropped (Metrics.messages_dropped metrics);
    agree "pointers" t.pointers (Metrics.pointers_sent metrics);
    agree "bytes" t.bytes (Metrics.bytes_sent metrics)
end

module Lag = struct
  exception Violation of string

  (* Epochs are numbered from 1; epoch 0 is the genesis membership
     (Join events before the first Tick), which carries no deadline.
     [frontier] is the lowest epoch not yet confirmed converged; epochs
     close in order, since a node matching the *current* membership has
     necessarily caught up with every earlier change. *)
  type t = {
    bound : float;
    mutable now : float;
    mutable started : bool;  (* saw a Tick: membership changes now bump epochs *)
    mutable epoch : int;
    epoch_time : (int, float) Hashtbl.t;
    live : (int, unit) Hashtbl.t;
    join_time : (int, float) Hashtbl.t;
    conv : (int, int) Hashtbl.t;  (* node -> highest converged epoch *)
    mutable frontier : int;
    mutable closed : int;
    mutable max_lag : float;
    mutable table_peak : int;  (* high-water mark of [epoch_time] *)
  }

  let create ?(bound = 512.0) () =
    if bound <= 0.0 then invalid_arg "Trace.Lag.create: bound must be positive";
    {
      bound;
      now = 0.0;
      started = false;
      epoch = 0;
      epoch_time = Hashtbl.create 64;
      live = Hashtbl.create 64;
      join_time = Hashtbl.create 64;
      conv = Hashtbl.create 64;
      frontier = 1;
      closed = 0;
      max_lag = 0.0;
      table_peak = 0;
    }

  let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

  let required t ~epoch_t node =
    Hashtbl.mem t.live node
    && Option.value (Hashtbl.find_opt t.join_time node) ~default:0.0 <= epoch_t

  let laggard t ~epoch_t ~epoch =
    Hashtbl.fold
      (fun node () acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if
            required t ~epoch_t node
            && Option.value (Hashtbl.find_opt t.conv node) ~default:0 < epoch
          then Some node
          else None)
      t.live None

  let advance t =
    let continue = ref true in
    while !continue && t.frontier <= t.epoch do
      let epoch_t = Hashtbl.find t.epoch_time t.frontier in
      match laggard t ~epoch_t ~epoch:t.frontier with
      | None ->
        let lag = t.now -. epoch_t in
        if lag > t.max_lag then t.max_lag <- lag;
        t.closed <- t.closed + 1;
        (* a closed epoch's change time is never consulted again:
           pruning here keeps the table at O(open epochs) — bounded by
           the lag window, not the run length *)
        Hashtbl.remove t.epoch_time t.frontier;
        t.frontier <- t.frontier + 1
      | Some node ->
        if t.now > epoch_t +. t.bound then
          fail
            "convergence lag exceeded: node %d has not converged to epoch %d (change at t=%g) by \
             t=%g (bound %g)"
            node t.frontier epoch_t t.now t.bound;
        continue := false
    done

  let bump t =
    if t.started then begin
      t.epoch <- t.epoch + 1;
      Hashtbl.replace t.epoch_time t.epoch t.now;
      let size = Hashtbl.length t.epoch_time in
      if size > t.table_peak then t.table_peak <- size
    end

  let check t ev =
    match ev with
    | Tick { time; _ } ->
      (* A tick that neither starts the clock nor moves it changes no
         input of [advance], which the previous event already ran to a
         fixpoint: every member's tick at one time would otherwise
         rescan the live table while an epoch is open. *)
      if (not t.started) || time > t.now then begin
        t.started <- true;
        if time > t.now then t.now <- time;
        advance t
      end
    | Join { node } ->
      bump t;
      Hashtbl.replace t.live node ();
      Hashtbl.replace t.join_time node (if t.started then t.now else 0.0);
      (* a fresh (re)join starts from scratch: earlier convergence
         verdicts belong to the previous incarnation *)
      Hashtbl.remove t.conv node;
      advance t
    | Crash { node } | Leave { node } ->
      bump t;
      Hashtbl.remove t.live node;
      advance t
    | Converge { node; epoch } ->
      if epoch > t.epoch then
        fail "node %d converged to epoch %d, which has not happened (current epoch %d)" node epoch
          t.epoch;
      let prev = Option.value (Hashtbl.find_opt t.conv node) ~default:0 in
      if epoch > prev then Hashtbl.replace t.conv node epoch;
      advance t
    | Round_begin _ | Send _ | Deliver _ | Drop _ | Suspect _ | Retire _ | Genesis _ | Content _
    | Complete | Give_up ->
      ()

  let sink t = callback (check t)
  let epochs t = t.epoch
  let closed t = t.closed
  let max_lag t = t.max_lag
  let table_peak t = t.table_peak

  (* Epochs whose deadline falls beyond the end of the trace are not
     enforced (the run simply ended too early to judge them); everything
     due by the final clock reading was already checked online, so the
     final pass is one last [advance] at the last observed time. *)
  let final_check t = advance t
end
