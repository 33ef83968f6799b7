(* In-memory span recorder: one row per span (kind, parent, start, stop)
   in growable unboxed arrays, so recording allocates nothing per span
   once the arrays have grown. Times are seconds of CLOCK_MONOTONIC. *)

type t = {
  mutable kind : int array;
  mutable parent : int array;
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
  mutable len : int;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
}

(* CLOCK_MONOTONIC, in seconds; the stub neither allocates nor boxes. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () =
  let cap = 1024 in
  {
    kind = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Float.Array.make cap 0.0;
    stop = Float.Array.make cap 0.0;
    len = 0;
    open_ = -1;
  }

let length t = t.len
let kind t i = t.kind.(i)
let parent t i = t.parent.(i)
let start t i = Float.Array.get t.start i
let stop t i = Float.Array.get t.stop i

let grow t =
  let cap = 2 * Array.length t.kind in
  let ints a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  let floats a =
    let b = Float.Array.make cap 0.0 in
    Float.Array.blit a 0 b 0 t.len;
    b
  in
  t.kind <- ints t.kind 0;
  t.parent <- ints t.parent (-1);
  t.start <- floats t.start;
  t.stop <- floats t.stop

(* A closed span with explicit times, parented explicitly; used for spans
   reconstructed from trace timestamps rather than from enter/leave. *)
let record t ~kind ~parent ~start ~stop =
  if t.len = Array.length t.kind then grow t;
  let i = t.len in
  t.kind.(i) <- kind;
  t.parent.(i) <- parent;
  Float.Array.set t.start i start;
  Float.Array.set t.stop i stop;
  t.len <- i + 1;
  i

(* Open a span under the innermost open one; [leave] closes it. *)
let enter_at t kind start =
  let i = record t ~kind ~parent:t.open_ ~start ~stop:nan in
  t.open_ <- i;
  i

let leave_at t i stop =
  Float.Array.set t.stop i stop;
  t.open_ <- t.parent.(i)

let enter t kind = enter_at t kind (now ())
let leave t i = leave_at t i (now ())

let within t kind f =
  let i = enter t kind in
  match f () with
  | v ->
    leave t i;
    v
  | exception e ->
    leave t i;
    raise e

type totals = { total : float; self : float; count : int; max : float }

let duration t i = stop t i -. start t i

(* The time each span's direct children cover. *)
let child_time t =
  let child = Float.Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then Float.Array.set child p (Float.Array.get child p +. duration t i)
  done;
  child

(* Per-kind totals over [kinds] kinds. A span's self time is its duration
   minus the durations of its direct children; children never overlap
   their parent's siblings, so self times sum to the top-level total. *)
let totals t ~kinds =
  let child = child_time t in
  let total = Float.Array.make kinds 0.0
  and self = Float.Array.make kinds 0.0
  and mx = Float.Array.make kinds 0.0
  and count = Array.make kinds 0 in
  for i = 0 to t.len - 1 do
    let k = t.kind.(i) and d = duration t i in
    Float.Array.set total k (Float.Array.get total k +. d);
    Float.Array.set self k (Float.Array.get self k +. d -. Float.Array.get child i);
    if d > Float.Array.get mx k then Float.Array.set mx k d;
    count.(k) <- count.(k) + 1
  done;
  Array.init kinds (fun k ->
      {
        total = Float.Array.get total k;
        self = Float.Array.get self k;
        count = count.(k);
        max = Float.Array.get mx k;
      })

(* The spans as tab-separated rows, times in ns from the first span.
   A span of a kind [keep] accepts gets its own row; the others are
   folded into one row per (nearest kept ancestor, kind), with their
   count, first start, last stop, total and self time, so a run with a
   million callback spans writes a few thousand rows. *)
let write t ~name ~keep oc =
  let t0 = if t.len = 0 then 0.0 else start t 0 in
  let ns d = Int64.of_float (d *. 1e9) in
  let child = child_time t and anchor = Array.make t.len (-1) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    anchor.(i) <- (if keep t.kind.(i) then i else if p < 0 then -1 else anchor.(p))
  done;
  let parent_anchor i = if t.parent.(i) < 0 then -1 else anchor.(t.parent.(i)) in
  let self i = duration t i -. Float.Array.get child i in
  (* kept spans, and groups keyed by (anchor, kind) holding count, first
     start, last stop, total and self *)
  let groups = Hashtbl.create 64 and rows = ref [] in
  for i = 0 to t.len - 1 do
    if keep t.kind.(i) then rows := `Span i :: !rows
    else begin
      let key = (parent_anchor i, t.kind.(i)) in
      match Hashtbl.find_opt groups key with
      | None ->
        Hashtbl.add groups key (ref (1, start t i, stop t i, duration t i, self i));
        rows := `Group key :: !rows
      | Some g ->
        let c, first, last, total, s = !g in
        g := (c + 1, first, Float.max last (stop t i), total +. duration t i, s +. self i)
    end
  done;
  let row = function
    | `Span i ->
      ( start t i,
        Printf.sprintf "%d\t%d\t%s\t1\t%Ld\t%Ld\t%Ld\t%Ld" i (parent_anchor i) (name t.kind.(i))
          (ns (start t i -. t0))
          (ns (stop t i -. t0))
          (ns (duration t i)) (ns (self i)) )
    | `Group ((a, k) as key) ->
      let c, first, last, total, s = !(Hashtbl.find groups key) in
      ( first,
        Printf.sprintf "-\t%d\t%s\t%d\t%Ld\t%Ld\t%Ld\t%Ld" a (name k) c (ns (first -. t0))
          (ns (last -. t0)) (ns total) (ns s) )
  in
  let rows = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev_map row !rows) in
  output_string oc "id\tparent\tname\tcount\tstart_ns\tstop_ns\ttotal_ns\tself_ns\n";
  List.iter
    (fun (_, line) ->
      output_string oc line;
      output_char oc '\n')
    rows
