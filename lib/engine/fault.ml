module Imap = Map.Make (Int)

type link = {
  loss : float;
  delay : int;
  dup : float;
  reorder : float;
  corrupt : float;
  cap : int;
}

let default_link = { loss = 0.0; delay = 0; dup = 0.0; reorder = 0.0; corrupt = 0.0; cap = 0 }

type partition = { groups : int list list; start : int; heal : int }

type wan = { regions : int list list; cross : link }

type t = {
  base : link;
  overrides : ((int * int) * link) list;
  wan : wan option;
  partitions : partition list;
  crashes : int Imap.t;
  restarts : int Imap.t;
  joins : int Imap.t;
  leaves : int Imap.t;
  fabrications : int list Imap.t;
  audit : bool;
}

let none =
  {
    base = default_link;
    overrides = [];
    wan = None;
    partitions = [];
    crashes = Imap.empty;
    restarts = Imap.empty;
    joins = Imap.empty;
    leaves = Imap.empty;
    fabrications = Imap.empty;
    audit = false;
  }

let check_p name p =
  if p < 0.0 || p > 1.0 then invalid_arg (Printf.sprintf "Fault.%s: probability out of range" name)

(* --- base link faults ------------------------------------------------ *)

let with_loss t ~p =
  check_p "with_loss" p;
  { t with base = { t.base with loss = p } }

let with_delay t ~ticks =
  if ticks < 0 then invalid_arg "Fault.with_delay: negative delay";
  { t with base = { t.base with delay = ticks } }

let with_dup t ~p =
  check_p "with_dup" p;
  { t with base = { t.base with dup = p } }

let with_reorder t ~p =
  check_p "with_reorder" p;
  { t with base = { t.base with reorder = p } }

let with_corrupt t ~p =
  check_p "with_corrupt" p;
  { t with base = { t.base with corrupt = p } }

let with_cap t ~limit =
  if limit < 0 then invalid_arg "Fault.with_cap: negative cap";
  { t with base = { t.base with cap = limit } }

(* --- per-link overrides ---------------------------------------------- *)

let check_link lk =
  check_p "with_link" lk.loss;
  check_p "with_link" lk.dup;
  check_p "with_link" lk.reorder;
  check_p "with_link" lk.corrupt;
  if lk.delay < 0 then invalid_arg "Fault.with_link: negative delay";
  if lk.cap < 0 then invalid_arg "Fault.with_link: negative cap"

let equal_link a b =
  a.loss = b.loss && a.delay = b.delay && a.dup = b.dup && a.reorder = b.reorder
  && a.corrupt = b.corrupt && a.cap = b.cap

let with_link t ~src ~dst lk =
  if src < 0 || dst < 0 then invalid_arg "Fault.with_link: negative node";
  check_link lk;
  let rest = List.filter (fun (k, _) -> k <> (src, dst)) t.overrides in
  (* an all-default override is a reset: drop the entry entirely *)
  if equal_link lk default_link then { t with overrides = rest }
  else { t with overrides = ((src, dst), lk) :: rest }

(* --- WAN profiles ----------------------------------------------------- *)

(* Group lookups run per message, so they are plain top-level loops: a
   local [go] capturing [v], or [List.mem], would allocate or compare
   polymorphically on every call. *)
let rec mem_node v = function [] -> false | (u : int) :: rest -> u = v || mem_node v rest

let rec group_index v i = function
  | [] -> -1
  | g :: rest -> if mem_node v g then i else group_index v (i + 1) rest

let with_wan t ~regions ~cross =
  if regions = [] || List.exists (fun g -> g = []) regions then
    invalid_arg "Fault.with_wan: empty region";
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun v ->
         if v < 0 then invalid_arg "Fault.with_wan: negative node";
         if Hashtbl.mem seen v then invalid_arg "Fault.with_wan: node in two regions";
         Hashtbl.add seen v ()))
    regions;
  check_link cross;
  if equal_link cross default_link then invalid_arg "Fault.with_wan: cross profile has no faults";
  { t with wan = Some { regions; cross } }

(* The first matching override is the only one: [with_link] replaces
   and [of_string] rejects duplicates. Matching the pair field by field
   builds no [(src, dst)] key per message. *)
let rec link_in t ~src ~dst = function
  | ((s, d), lk) :: _ when s = src && d = dst -> lk
  | _ :: rest -> link_in t ~src ~dst rest
  | [] -> (
      match t.wan with
      | Some w when group_index src 0 w.regions <> group_index dst 0 w.regions -> w.cross
      | _ -> t.base)

let link_between t ~src ~dst = link_in t ~src ~dst t.overrides

let overrides t = List.sort compare t.overrides

let has_link_faults t =
  (not (equal_link t.base default_link)) || t.overrides <> [] || t.wan <> None

let has_delays t =
  t.base.delay > 0
  || List.exists (fun (_, lk) -> lk.delay > 0) t.overrides
  || match t.wan with Some w -> w.cross.delay > 0 | None -> false

(* --- partitions ------------------------------------------------------ *)

let with_partition t ~groups ~start ~heal =
  if start < 1 then invalid_arg "Fault.with_partition: rounds are 1-based";
  if heal <= start then invalid_arg "Fault.with_partition: heal must follow start";
  if groups = [] || List.exists (fun g -> g = []) groups then
    invalid_arg "Fault.with_partition: empty group";
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun v ->
         if v < 0 then invalid_arg "Fault.with_partition: negative node";
         if Hashtbl.mem seen v then invalid_arg "Fault.with_partition: node in two groups";
         Hashtbl.add seen v ()))
    groups;
  { t with partitions = t.partitions @ [ { groups; start; heal } ] }

let partitions t = t.partitions

let rec cut_by ~src ~dst ~time = function
  | [] -> false
  | p :: rest ->
    (float_of_int p.start <= time
    && time < float_of_int p.heal
    && group_index src 0 p.groups <> group_index dst 0 p.groups)
    || cut_by ~src ~dst ~time rest

(* --- link fate ------------------------------------------------------- *)

module Itbl = Hashtbl.Make (Int)

(* A capped link's current window and the messages it carried there,
   updated in place: the link allocates once, on first use. *)
type window = { mutable window : int; mutable used : int }
type windows = window Itbl.t

let windows () = Itbl.create 8

let over_cap windows ~src ~dst ~time cap =
  let window = int_of_float time in
  (* node ids fit in 31 bits, so the pair packs into one int key *)
  let key = (src lsl 31) lor dst in
  match Itbl.find windows key with
  | w when w.window = window ->
    w.used <- w.used + 1;
    w.used > cap
  | w ->
    w.window <- window;
    w.used <- 1;
    1 > cap
  | exception Not_found ->
    Itbl.add windows key { window; used = 1 };
    1 > cap

(* Constant constructors and [Some] of one are static data: no verdict
   allocates. *)
let fate t windows rng ~src ~dst ~time lk =
  if cut_by ~src ~dst ~time t.partitions then Some Trace.Partitioned
  else if lk.cap > 0 && over_cap windows ~src ~dst ~time lk.cap then Some Trace.Throttled
  else if lk.loss > 0.0 && Repro_util.Rng.bernoulli rng ~p:lk.loss then Some Trace.Loss
  else None

(* --- crash / restart / join schedules -------------------------------- *)

let with_crash t ~node ~round =
  if round < 1 then invalid_arg "Fault.with_crash: rounds are 1-based";
  if node < 0 then invalid_arg "Fault.with_crash: negative node";
  (match Imap.find_opt node t.restarts with
  | Some rr when rr <= round -> invalid_arg "Fault.with_crash: scheduled restart precedes crash"
  | _ -> ());
  if Imap.mem node t.leaves then
    invalid_arg "Fault.with_crash: node is scheduled to leave gracefully";
  { t with crashes = Imap.add node round t.crashes }

let with_crashes t pairs =
  List.fold_left (fun t (node, round) -> with_crash t ~node ~round) t pairs

let with_random_crashes t ~seed ~n ~count =
  if count <= 0 then t
  else begin
    let open Repro_util in
    let rng = Rng.substream ~seed ~index:0xdead in
    let victims = Rng.sample_distinct rng ~n ~k:(min count n) ~avoid:(-1) in
    Array.fold_left (fun t node -> with_crash t ~node ~round:(1 + Rng.int rng 5)) t victims
  end

let crashed_nodes t = Imap.bindings t.crashes

let with_restart t ~node ~round =
  if round < 1 then invalid_arg "Fault.with_restart: rounds are 1-based";
  if node < 0 then invalid_arg "Fault.with_restart: negative node";
  (match Imap.find_opt node t.crashes with
  | None -> invalid_arg "Fault.with_restart: no crash scheduled for node"
  | Some cr when round <= cr -> invalid_arg "Fault.with_restart: restart must follow the crash"
  | Some _ -> ());
  { t with restarts = Imap.add node round t.restarts }

let restart_round t ~node = Imap.find_opt node t.restarts
let restarting_nodes t = Imap.bindings t.restarts

let with_join t ~node ~round =
  if round < 1 then invalid_arg "Fault.with_join: rounds are 1-based";
  if node < 0 then invalid_arg "Fault.with_join: negative node";
  { t with joins = Imap.add node round t.joins }

let with_joins t pairs =
  List.fold_left (fun t (node, round) -> with_join t ~node ~round) t pairs

let join_round t ~node = Option.value ~default:1 (Imap.find_opt node t.joins)
let joining_nodes t = Imap.bindings t.joins

let with_leave t ~node ~round =
  if round < 1 then invalid_arg "Fault.with_leave: rounds are 1-based";
  if node < 0 then invalid_arg "Fault.with_leave: negative node";
  if Imap.mem node t.crashes then
    invalid_arg "Fault.with_leave: node is scheduled to crash";
  { t with leaves = Imap.add node round t.leaves }

let leaving_nodes t = Imap.bindings t.leaves

(* --- content adversaries --------------------------------------------- *)

let with_fabrication t ~node ~id =
  if node < 0 then invalid_arg "Fault.with_fabrication: negative node";
  if id < 0 then invalid_arg "Fault.with_fabrication: negative id";
  let ids = Option.value ~default:[] (Imap.find_opt node t.fabrications) in
  let ids = if List.mem id ids then ids else List.sort compare (id :: ids) in
  { t with fabrications = Imap.add node ids t.fabrications }

let fabrications t = Imap.bindings t.fabrications
let fabricated_ids t ~node = Option.value ~default:[] (Imap.find_opt node t.fabrications)
let with_audit t on = { t with audit = on }
let audit t = t.audit

let equal a b =
  equal_link a.base b.base
  && List.length a.overrides = List.length b.overrides
  && List.for_all
       (fun (k, lk) ->
         match List.assoc_opt k b.overrides with
         | Some lk' -> equal_link lk lk'
         | None -> false)
       a.overrides
  && (match (a.wan, b.wan) with
     | None, None -> true
     | Some wa, Some wb -> wa.regions = wb.regions && equal_link wa.cross wb.cross
     | _ -> false)
  && a.partitions = b.partitions
  && Imap.equal Int.equal a.crashes b.crashes
  && Imap.equal Int.equal a.restarts b.restarts
  && Imap.equal Int.equal a.joins b.joins
  && Imap.equal Int.equal a.leaves b.leaves
  && Imap.equal (fun x y -> x = y) a.fabrications b.fabrications
  && a.audit = b.audit

let is_none t = equal t none

let last_scheduled_round t =
  let mx m acc = Imap.fold (fun _ r acc -> max r acc) m acc in
  let acc = mx t.crashes (mx t.restarts (mx t.joins (mx t.leaves 0))) in
  List.fold_left (fun acc p -> max acc p.heal) acc t.partitions

(* --- printer --------------------------------------------------------- *)

let link_items lk =
  List.filter_map Fun.id
    [
      (if lk.loss <> 0.0 then Some (Printf.sprintf "loss=%g" lk.loss) else None);
      (if lk.delay <> 0 then Some (Printf.sprintf "delay=%d" lk.delay) else None);
      (if lk.dup <> 0.0 then Some (Printf.sprintf "dup=%g" lk.dup) else None);
      (if lk.reorder <> 0.0 then Some (Printf.sprintf "reorder=%g" lk.reorder) else None);
      (if lk.corrupt <> 0.0 then Some (Printf.sprintf "corrupt=%g" lk.corrupt) else None);
      (if lk.cap <> 0 then Some (Printf.sprintf "cap=%d" lk.cap) else None);
    ]

(* Compress a sorted group into "+"-joined "a-b" ranges. *)
let group_to_string g =
  let g = List.sort_uniq compare g in
  let rec ranges acc cur = function
    | [] -> List.rev (cur :: acc)
    | v :: rest ->
        let lo, hi = cur in
        if v = hi + 1 then ranges acc (lo, v) rest else ranges (cur :: acc) (v, v) rest
  in
  match g with
  | [] -> ""
  | v :: rest ->
      ranges [] (v, v) rest
      |> List.map (fun (lo, hi) ->
             if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi)
      |> String.concat "+"

let partition_to_string p =
  Printf.sprintf "part=%s@%d..%d"
    (String.concat "|" (List.map group_to_string p.groups))
    p.start p.heal

let wan_to_string w =
  Printf.sprintf "wan=%s:%s"
    (String.concat "|" (List.map group_to_string w.regions))
    (String.concat ":" (link_items w.cross))

let to_string t =
  let sched key m =
    Imap.bindings m |> List.map (fun (n, r) -> Printf.sprintf "%s=%d@%d" key n r)
  in
  let items =
    link_items t.base
    @ (overrides t
      |> List.map (fun ((s, d), lk) ->
             Printf.sprintf "link=%d>%d:%s" s d (String.concat ":" (link_items lk))))
    @ (match t.wan with None -> [] | Some w -> [ wan_to_string w ])
    @ List.map partition_to_string t.partitions
    @ sched "crash" t.crashes @ sched "restart" t.restarts @ sched "join" t.joins
    @ sched "leave" t.leaves
    @ (Imap.bindings t.fabrications
      |> List.concat_map (fun (n, ids) ->
             List.map (fun id -> Printf.sprintf "fabricate=%d@%d" n id) ids))
    @ (if t.audit then [ "audit=1" ] else [])
  in
  String.concat "," items

(* --- parser ---------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let parse_float what s =
  match float_of_string_opt s with Some f -> f | None -> bad "%s: not a number %S" what s

let parse_int what s =
  match int_of_string_opt s with Some i -> i | None -> bad "%s: not an integer %S" what s

let split_once c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let apply_link_key lk key v =
  match key with
  | "loss" -> { lk with loss = parse_float "loss" v }
  | "delay" -> { lk with delay = parse_int "delay" v }
  | "dup" -> { lk with dup = parse_float "dup" v }
  | "reorder" -> { lk with reorder = parse_float "reorder" v }
  | "corrupt" -> { lk with corrupt = parse_float "corrupt" v }
  | "cap" -> { lk with cap = parse_int "cap" v }
  | _ -> bad "unknown link fault %S" key

let parse_group s =
  (* "0-3+8" -> [0;1;2;3;8] *)
  String.split_on_char '+' s
  |> List.concat_map (fun piece ->
         match split_once '-' piece with
         | None -> [ parse_int "node" piece ]
         | Some (a, b) ->
             let a = parse_int "node" a and b = parse_int "node" b in
             if b < a then bad "empty range %S" piece;
             List.init (b - a + 1) (fun i -> a + i))

let split_window w =
  (* "5..20" -> Some ("5", "20") *)
  let len = String.length w in
  let rec find i =
    if i + 1 >= len then None
    else if w.[i] = '.' && w.[i + 1] = '.' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub w 0 i, String.sub w (i + 2) (len - i - 2))

let parse_partition v =
  match split_once '@' v with
  | None -> bad "partition needs a @START..HEAL window"
  | Some (groups_s, window) -> (
      let groups = String.split_on_char '|' groups_s |> List.map parse_group in
      match split_window window with
      | Some (s, h) -> (groups, parse_int "partition start" s, parse_int "partition heal" h)
      | None -> bad "partition window %S: expected START..HEAL" window)

let parse_at what v =
  match split_once '@' v with
  | Some (n, r) -> (parse_int what n, parse_int (what ^ " round") r)
  | None -> bad "%s: expected NODE@ROUND" what

type item =
  | Base of (link -> link)
  | Link of int * int * link
  | Wan of int list list * link
  | Part of int list list * int * int
  | Crash of int * int
  | Restart of int * int
  | Join of int * int
  | Leave of int * int
  | Fabricate of int * int
  | Audit of bool

let parse_link_kvs kvs =
  String.split_on_char ':' kvs
  |> List.fold_left
       (fun lk kv ->
         match split_once '=' kv with
         | Some (k, v) -> apply_link_key lk k v
         | None -> bad "expected key=value in %S" kv)
       default_link

let parse_item s =
  match split_once '=' s with
  | None -> bad "expected key=value in %S" s
  | Some (key, v) -> (
      match key with
      | "loss" | "delay" | "dup" | "reorder" | "corrupt" | "cap" ->
          Base (fun lk -> apply_link_key lk key v)
      | "wan" -> (
          match split_once ':' v with
          | None -> bad "wan profile needs REGION|REGION:key=value"
          | Some (regions_s, kvs) ->
              let regions = String.split_on_char '|' regions_s |> List.map parse_group in
              Wan (regions, parse_link_kvs kvs))
      | "audit" -> (
          match v with
          | "1" -> Audit true
          | "0" -> Audit false
          | _ -> bad "audit: expected 0 or 1, got %S" v)
      | "fabricate" -> (
          match split_once '@' v with
          | Some (n, i) -> Fabricate (parse_int "fabricate node" n, parse_int "fabricated id" i)
          | None -> bad "fabricate: expected NODE@ID")
      | "link" -> (
          match split_once ':' v with
          | None -> bad "link fault needs SRC>DST:key=value"
          | Some (ends, kvs) -> (
              match split_once '>' ends with
              | None -> bad "link endpoints %S: expected SRC>DST" ends
              | Some (s, d) ->
                  Link (parse_int "src" s, parse_int "dst" d, parse_link_kvs kvs)))
      | "part" ->
          let groups, start, heal = parse_partition v in
          Part (groups, start, heal)
      | "crash" ->
          let n, r = parse_at "crash" v in
          Crash (n, r)
      | "restart" ->
          let n, r = parse_at "restart" v in
          Restart (n, r)
      | "join" ->
          let n, r = parse_at "join" v in
          Join (n, r)
      | "leave" ->
          let n, r = parse_at "leave" v in
          Leave (n, r)
      | _ -> bad "unknown fault %S" key)

let of_string s =
  let s = String.trim s in
  if s = "" then Ok none
  else
    try
      let items = String.split_on_char ',' s |> List.map parse_item in
      (* Restarts are validated against crashes, so apply them last:
         "restart=5@14,crash=5@8" is as valid as the reverse order. *)
      let order = function Restart _ -> 1 | _ -> 0 in
      let items = List.stable_sort (fun a b -> compare (order a) (order b)) items in
      (* A plan string naming the same link twice is almost always a typo:
         reject it instead of silently keeping the last override. *)
      let seen_links = Hashtbl.create 8 in
      List.iter
        (function
          | Link (src, dst, _) ->
              if Hashtbl.mem seen_links (src, dst) then
                bad "duplicate link override for %d>%d" src dst;
              Hashtbl.add seen_links (src, dst) ()
          | _ -> ())
        items;
      if List.length (List.filter (function Wan _ -> true | _ -> false) items) > 1 then
        bad "duplicate wan profile (at most one wan= item per plan)";
      let t =
        List.fold_left
          (fun t -> function
            | Base f ->
                let lk = f t.base in
                check_link lk;
                { t with base = lk }
            | Link (src, dst, lk) -> with_link t ~src ~dst lk
            | Wan (regions, cross) -> with_wan t ~regions ~cross
            | Part (groups, start, heal) -> with_partition t ~groups ~start ~heal
            | Crash (node, round) -> with_crash t ~node ~round
            | Restart (node, round) -> with_restart t ~node ~round
            | Join (node, round) -> with_join t ~node ~round
            | Leave (node, round) -> with_leave t ~node ~round
            | Fabricate (node, id) -> with_fabrication t ~node ~id
            | Audit on -> with_audit t on)
          none items
      in
      Ok t
    with
    | Bad m -> Error m
    | Invalid_argument m -> Error m

let pp ppf t =
  if is_none t then Format.fprintf ppf "fault(none)"
  else Format.fprintf ppf "fault(%s)" (to_string t)

let invariants ?(live = false) t =
  let crashes = not (Imap.is_empty t.crashes) and restarts = not (Imap.is_empty t.restarts) in
  Trace.Invariants.create ~lenient:(restarts || (live && crashes)) ~allow_inflight:(has_delays t) ()
