(* Outside-in instrumentation: spans around the public callbacks a run
   makes into each layer. Nothing here reaches into the library; an
   algorithm is wrapped, and trace events are read from a sink. *)

open Repro_engine
open Repro_discovery

(* Span kinds. *)
let k_run = 0
let k_make = 1
let k_round = 2
let k_send = 3
let k_receive = 4
let k_engine_round = 5
let k_tick = 6
let k_step = 7
let k_between = 8
let kinds = 9

let kind_name = function
  | 0 -> "run"
  | 1 -> "discovery.make"
  | 2 -> "discovery.round"
  | 3 -> "engine.send"
  | 4 -> "discovery.receive"
  | 5 -> "engine.round"
  | 6 -> "service.tick"
  | 7 -> "service.step"
  | 8 -> "service.between"
  | k -> invalid_arg (Printf.sprintf "Probe.kind_name: %d" k)

(* Kinds that delimit a run's structure (the call, its rounds, its
   ticks); the per-callback kinds inside them are many and small. *)
let structural k = k = k_run || k = k_engine_round || k = k_tick

type t = {
  spans : Spans.t;
  receive_words : Float.Array.t;  (** minor words allocated inside [receive], one cell *)
}

let create () = { spans = Spans.create (); receive_words = Float.Array.make 1 0.0 }
let spans t = t.spans
let receive_mwords t = Float.Array.get t.receive_words 0 /. 1e6

(* [algo] with every instance's [make], [round], the engine's [send]
   closure and [receive] inside spans. Behaviour is unchanged: each
   wrapper calls straight through. *)
let wrap t (algo : Algorithm.t) : Algorithm.t =
  let s = t.spans in
  let make ctx =
    let i = Spans.enter s k_make in
    let inst = algo.Algorithm.make ctx in
    Spans.leave s i;
    let round ~round ~send =
      let i = Spans.enter s k_round in
      let send ~dst payload =
        let j = Spans.enter s k_send in
        send ~dst payload;
        Spans.leave s j
      in
      inst.Algorithm.round ~round ~send;
      Spans.leave s i
    in
    let receive ~src payload =
      let i = Spans.enter s k_receive in
      let w0 = Gc.minor_words () in
      inst.Algorithm.receive ~src payload;
      let w = Gc.minor_words () -. w0 in
      Spans.leave s i;
      Float.Array.set t.receive_words 0 (Float.Array.get t.receive_words 0 +. w)
    in
    { inst with Algorithm.round; receive }
  in
  { algo with Algorithm.make }

(* The top-level span around one call into the library. *)
let run t f = Spans.within t.spans k_run f

(* Synchronous engine rounds, delimited by [Round_begin] and ended by
   [Complete]/[Give_up]; node spans opened meanwhile nest inside. *)
let round_sink t =
  let s = t.spans and current = ref (-1) in
  let close now =
    if !current >= 0 then Spans.leave_at s !current now;
    current := -1
  in
  Trace.callback (function
    | Trace.Round_begin _ ->
      let now = Spans.now () in
      close now;
      current := Spans.enter_at s k_engine_round now
    | Trace.Complete | Trace.Give_up -> close (Spans.now ())
    | _ -> ())

(* Service ticks, from member [Tick] events. Within a tick, a step span
   runs from one member's [Tick] to the next; the between span runs from
   the last [Tick] of a tick to the first of the next, so it holds the
   last member's step, then delivery, churn and the observer. The second
   result closes the open tick; call it before the run span ends. *)
let tick_sink t =
  let s = t.spans in
  let tick = ref (-1) and tick_time = ref nan and last = ref nan in
  let close now =
    if !tick >= 0 then begin
      ignore (Spans.record s ~kind:k_between ~parent:!tick ~start:!last ~stop:now : int);
      Spans.leave_at s !tick now;
      tick := -1
    end
  in
  let on_event = function
    | Trace.Tick { time; _ } ->
      let now = Spans.now () in
      if !tick >= 0 && Float.equal time !tick_time then
        ignore (Spans.record s ~kind:k_step ~parent:!tick ~start:!last ~stop:now : int)
      else begin
        close now;
        tick := Spans.enter_at s k_tick now;
        tick_time := time
      end;
      last := now
    | _ -> ()
  in
  (Trace.callback on_event, fun () -> close (Spans.now ()))
