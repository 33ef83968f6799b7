open Repro_engine
open Repro_discovery

type move =
  | Tick of int
  | Deliver of { src : int; dst : int; index : int }
  | Pump of int
  | Crash of int
  | Restart of int

let pp_move ppf = function
  | Tick v -> Format.fprintf ppf "tick %d" v
  | Deliver { src; dst; index } -> Format.fprintf ppf "deliver %d>%d[%d]" src dst index
  | Pump v -> Format.fprintf ppf "pump %d" v
  | Crash v -> Format.fprintf ppf "crash %d" v
  | Restart v -> Format.fprintf ppf "restart %d" v

type config = {
  n : int;
  depth : int;
  reorder_width : int;
  max_crashes : int;
  max_leaves : int;
  seed : int;
}

let default =
  { n = 2; depth = 8; reorder_width = 2; max_crashes = 0; max_leaves = 4000; seed = 0 }

type stats = { interleavings : int; moves : int; truncated : bool }

exception Violation of string

let fail fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

(* The system under test runs flooding on a path: the sparsest connected
   topology, so initial knowledge is incomplete and every completion
   depends on multi-hop relay through the reliability layer (a complete
   graph would be satisfied by each node's initial knowledge alone). *)
let path_neighbors n v =
  Array.of_list (List.filter (fun u -> u >= 0 && u < n) [ v - 1; v + 1 ])

type sys = {
  cores : Node_core.t option array;  (** [None] = crashed *)
  queues : bytes Queue.t array array;
      (** [queues.(src).(dst)]: encoded frames in flight, FIFO *)
  mutable now : float;
  mutable crashes : int;  (** crash moves taken on this path *)
  labels : int array;  (** the run's label permutation, shared by every core *)
}

let actions sys v =
  {
    Node_core.emit = None;
    xmit = (fun ~now:_ ~dst frame -> Queue.push frame sys.queues.(v).(dst));
    notify_complete = (fun ~now:_ ~tick:_ -> ());
    wake = (fun ~dst:_ -> ());
  }

let core_config cfg v ~announce =
  {
    Node_core.node = v;
    n = cfg.n;
    algo = Flooding.algorithm;
    seed = cfg.seed;
    neighbors = path_neighbors cfg.n v;
    tick_period = 1.0;
    rto = 3.0;
    fault = Fault.none;
    announce;
    fleet_halt = false;
  }

let boot cfg =
  let sys =
    {
      cores = Array.make cfg.n None;
      queues = Array.init cfg.n (fun _ -> Array.init cfg.n (fun _ -> Queue.create ()));
      now = 0.0;
      crashes = 0;
      labels = Exec.labels_of ~seed:cfg.seed cfg.n;
    }
  in
  for v = 0 to cfg.n - 1 do
    sys.cores.(v) <-
      Some
        (Node_core.create (core_config cfg v ~announce:false) (actions sys v) ~labels:sys.labels
           ~links_up:true ~now:sys.now)
  done;
  sys

(* Remove the [i]-th frame of a queue, preserving the order of the rest. *)
let take_nth q i =
  let rec split acc i = function
    | [] -> fail "model: deliver index out of range"
    | x :: rest -> if i = 0 then (x, List.rev_append acc rest) else split (x :: acc) (i - 1) rest
  in
  let x, rest = split [] i (List.of_seq (Queue.to_seq q)) in
  Queue.clear q;
  List.iter (fun e -> Queue.push e q) rest;
  x

(* Every move advances the virtual clock by one unit, so retransmission
   timeouts become reachable a bounded number of moves after a send. *)
let apply cfg sys move =
  sys.now <- sys.now +. 1.0;
  match move with
  | Tick v -> (
    match sys.cores.(v) with Some c -> Node_core.tick c ~now:sys.now | None -> ())
  | Pump v -> (
    match sys.cores.(v) with Some c -> Node_core.pump c ~now:sys.now | None -> ())
  | Deliver { src; dst; index } -> (
    let frame = take_nth sys.queues.(src).(dst) index in
    match sys.cores.(dst) with
    | None -> ()  (* the receiver is down: the frame dies with it *)
    | Some c -> (
      let verdict = Envelope.decode frame ~off:0 ~len:(Bytes.length frame) in
      if verdict > 0 then Node_core.handle_frame c ~now:sys.now frame ~off:0
      else if verdict = Envelope.need_more then fail "model: frame in flight truncated"
      else fail "model: frame in flight undecodable (%s)" (Envelope.reason frame ~off:0 verdict)))
  | Crash v ->
    sys.cores.(v) <- None;
    sys.crashes <- sys.crashes + 1
  | Restart v ->
    (* a fresh incarnation announces itself; stale frames from and to the
       previous incarnation stay in flight and remain deliverable *)
    sys.cores.(v) <-
      Some
        (Node_core.create (core_config cfg v ~announce:true) (actions sys v) ~labels:sys.labels
           ~links_up:true ~now:sys.now)

(* All moves enabled in a state, in a fixed deterministic order. [Pump]
   is offered only when it would act (a retransmission timeout is due) —
   a no-op pump branch would duplicate its sibling subtree verbatim. *)
let enabled cfg sys =
  let acc = ref [] in
  let add m = acc := m :: !acc in
  for v = 0 to cfg.n - 1 do
    if Option.is_some sys.cores.(v) then add (Tick v)
  done;
  for v = 0 to cfg.n - 1 do
    match sys.cores.(v) with
    | Some c when Node_core.next_rto_deadline c <= sys.now -> add (Pump v)
    | _ -> ()
  done;
  for src = 0 to cfg.n - 1 do
    for dst = 0 to cfg.n - 1 do
      let avail = min (Queue.length sys.queues.(src).(dst)) cfg.reorder_width in
      for index = 0 to avail - 1 do
        add (Deliver { src; dst; index })
      done
    done
  done;
  if sys.crashes < cfg.max_crashes then
    for v = 0 to cfg.n - 1 do
      if Option.is_some sys.cores.(v) then add (Crash v)
    done;
  for v = 0 to cfg.n - 1 do
    if Option.is_none sys.cores.(v) then add (Restart v)
  done;
  List.rev !acc

let rec ascending_distinct = function
  | a :: (b :: _ as rest) -> a < b && ascending_distinct rest
  | _ -> true

(* The go-back-N window invariants, over every live directed link.
   Locally: sequence numbering starts at 1 and the out-of-order set sits
   strictly above the cumulative mark, without duplicates. Across a link
   (only meaningful when no crash can have reset either end): a sender
   never slides its window past what the receiver acknowledged, so
   [base_seq] leads the peer's cumulative mark by at most one. *)
let check cfg sys =
  for v = 0 to cfg.n - 1 do
    match sys.cores.(v) with
    | None -> ()
    | Some c ->
      for dst = 0 to cfg.n - 1 do
        if dst <> v then begin
          let lv = Node_core.link_view c ~dst in
          if lv.Node_core.view_base_seq < 1 then
            fail "node %d link to %d: base_seq %d < 1" v dst lv.Node_core.view_base_seq;
          if not (ascending_distinct lv.Node_core.view_recv_early) then
            fail "node %d link to %d: recv_early not strictly ascending" v dst;
          List.iter
            (fun s ->
              if s <= lv.Node_core.view_recv_cum then
                fail "node %d link to %d: early seq %d <= recv_cum %d" v dst s
                  lv.Node_core.view_recv_cum)
            lv.Node_core.view_recv_early
        end
      done
  done;
  if cfg.max_crashes = 0 then
    for a = 0 to cfg.n - 1 do
      for b = 0 to cfg.n - 1 do
        if a <> b then
          match (sys.cores.(a), sys.cores.(b)) with
          | Some ca, Some cb ->
            let out = Node_core.link_view ca ~dst:b in
            let back = Node_core.link_view cb ~dst:a in
            if out.Node_core.view_base_seq > back.Node_core.view_recv_cum + 1 then
              fail "window overrun %d>%d: base_seq %d > peer recv_cum %d + 1" a b
                out.Node_core.view_base_seq back.Node_core.view_recv_cum
          | _ -> ()
      done
    done

(* After a complete interleaving, the adversary goes home: revive any
   crashed node, deliver everything in flight in order, and give the
   fleet fair ticks and pumps. Whatever the explored prefix did to the
   link state, every node must still reach complete knowledge. *)
let drain_and_converge cfg sys =
  for v = 0 to cfg.n - 1 do
    if Option.is_none sys.cores.(v) then apply cfg sys (Restart v)
  done;
  let all_complete () =
    Array.for_all
      (function Some c -> Node_core.is_complete c | None -> false)
      sys.cores
  in
  let deliver_all () =
    let again = ref true in
    while !again do
      again := false;
      for src = 0 to cfg.n - 1 do
        for dst = 0 to cfg.n - 1 do
          while not (Queue.is_empty sys.queues.(src).(dst)) do
            again := true;
            apply cfg sys (Deliver { src; dst; index = 0 })
          done
        done
      done
    done
  in
  deliver_all ();
  let budget = ref ((20 * cfg.n) + 100) in
  while (not (all_complete ())) && !budget > 0 do
    decr budget;
    for v = 0 to cfg.n - 1 do
      apply cfg sys (Tick v)
    done;
    sys.now <- sys.now +. 4.0;  (* past any retransmission deadline *)
    for v = 0 to cfg.n - 1 do
      apply cfg sys (Pump v)
    done;
    deliver_all ()
  done;
  if not (all_complete ()) then fail "knowledge did not converge after drain"

let explore cfg =
  if cfg.n < 2 then invalid_arg "Model.explore: need at least two nodes";
  if cfg.depth < 1 then invalid_arg "Model.explore: depth must be positive";
  if cfg.reorder_width < 1 then invalid_arg "Model.explore: reorder_width must be positive";
  let leaves = ref 0 in
  let applied = ref 0 in
  let truncated = ref false in
  (* Node_core state is mutable and cannot be forked, so the DFS replays
     each path from a fresh boot — O(depth) rebuilt moves per tree node,
     trivially affordable at these sizes and immune to state bleed. *)
  let replay path =
    let sys = boot cfg in
    List.iter
      (fun m ->
        apply cfg sys m;
        incr applied;
        check cfg sys)
      path;
    sys
  in
  let render path = String.concat "; " (List.map (Format.asprintf "%a" pp_move) path) in
  let rec go rev_path remaining =
    if !leaves >= cfg.max_leaves then truncated := true
    else begin
      let path = List.rev rev_path in
      (* attach the offending path at the point of violation only — the
         recursive calls below must not re-wrap it with their prefixes *)
      let guarded f =
        try f ()
        with Violation msg -> raise (Violation (Printf.sprintf "%s [path: %s]" msg (render path)))
      in
      if remaining = 0 then
        guarded (fun () ->
            let sys = replay path in
            drain_and_converge cfg sys;
            check cfg sys;
            incr leaves)
      else begin
        let moves = guarded (fun () -> enabled cfg (replay path)) in
        List.iter (fun m -> go (m :: rev_path) (remaining - 1)) moves
      end
    end
  in
  try
    go [] cfg.depth;
    Ok { interleavings = !leaves; moves = !applied; truncated = !truncated }
  with Violation msg -> Error msg
