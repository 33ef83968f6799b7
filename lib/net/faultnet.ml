open Repro_util
open Repro_engine

(* Frames held back by delay/reorder faults, awaiting their release
   time. The list is tiny (bounded by in-flight frames on faulted
   links), so a plain list beats a heap here. *)
type held = { release : float; dst : int; frame : bytes }

type t = {
  plan : Fault.t;
  rng : Rng.t;
  node : int;
  epoch : float;
  tick_period : float;
  mutable held : held list;
  (* this node's outgoing cap windows *)
  windows : Fault.windows;
}

let active plan = Fault.has_link_faults plan || Fault.partitions plan <> []

let create ~plan ~seed ~node ~epoch ~tick_period =
  if tick_period <= 0.0 then invalid_arg "Faultnet.create: tick_period must be positive";
  {
    plan;
    (* one private substream per node: outcomes depend only on the seed
       and this node's frame sequence, not on wall clock or siblings *)
    rng = Rng.substream ~seed ~index:(0xfa00 + node);
    node;
    epoch;
    tick_period;
    held = [];
    windows = Fault.windows ();
  }

(* Map wall time to the simulator's round clock so partition windows
   mean the same thing on both paths: tick k fires ~k*tick_period after
   the epoch, so (now - epoch) / tick_period is the current "round". *)
let round_now t ~now = (now -. t.epoch) /. t.tick_period

let corrupt_copy t frame =
  let b = Bytes.copy frame in
  let i = Rng.int t.rng (Bytes.length b) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  b

let pending t = t.held <> []

type verdict = Gone | Pass | Queue of bytes list

(* Hold [frame] back if the link delays or (by a coin) reorders it;
   [true] when it is to be queued now instead. *)
let passes t ~now ~dst (lk : Fault.link) frame =
  if lk.Fault.delay > 0 then begin
    let release = now +. (float_of_int lk.Fault.delay *. t.tick_period) in
    t.held <- { release; dst; frame } :: t.held;
    false
  end
  else if lk.Fault.reorder > 0.0 && Rng.bernoulli t.rng ~p:lk.Fault.reorder then begin
    (* reorder: hold one tick so later frames overtake this one *)
    t.held <- { release = now +. t.tick_period; dst; frame } :: t.held;
    false
  end
  else true

(* Partitions, caps and loss are the simulators' rule, on the round
   clock; like loss, a partitioned or throttled frame is silently
   swallowed and retransmission recovers, modelling a saturated or
   severed WAN link. The frame itself is never written: a corrupted or
   duplicated frame is a fresh copy. [Fault.fate] reads the round
   clock only for a partition or a cap; without either it gets a static
   0.0. A float computed here and passed into another library is a
   boxed block per frame, and so is a float bound to a choice between
   the two, hence one call per case. *)
let send t ~now ~dst frame =
  let lk = Fault.link_between t.plan ~src:t.node ~dst in
  let fate =
    match Fault.partitions t.plan with
    | [] when lk.Fault.cap <= 0 -> Fault.fate t.plan t.windows t.rng ~src:t.node ~dst ~time:0.0 lk
    | _ -> Fault.fate t.plan t.windows t.rng ~src:t.node ~dst ~time:(round_now t ~now) lk
  in
  match fate with
  | Some _ -> Gone
  | None ->
    let corrupted = lk.Fault.corrupt > 0.0 && Rng.bernoulli t.rng ~p:lk.Fault.corrupt in
    let first = if corrupted then corrupt_copy t frame else frame in
    let first_now = passes t ~now ~dst lk first in
    if lk.Fault.dup > 0.0 && Rng.bernoulli t.rng ~p:lk.Fault.dup then begin
      let copy = Bytes.copy first in
      match (first_now, passes t ~now ~dst lk copy) with
      | true, true -> Queue [ first; copy ]
      | true, false -> if corrupted then Queue [ first ] else Pass
      | false, true -> Queue [ copy ]
      | false, false -> Gone
    end
    else if not first_now then Gone
    else if corrupted then Queue [ first ]
    else Pass

let flush_due t ~now ~queue =
  if t.held <> [] then begin
    let due, still = List.partition (fun h -> h.release <= now) t.held in
    t.held <- still;
    (* oldest first: held frames were consed newest-first *)
    List.iter (fun h -> queue ~dst:h.dst h.frame) (List.rev due)
  end
