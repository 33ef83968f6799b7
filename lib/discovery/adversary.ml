open Repro_util
open Repro_engine

let data_ids (d : Payload.data) =
  match d with
  | Payload.Bits b -> Cset.to_array b.Knowledge.set
  | Payload.Ids ids ->
    let a = Array.copy ids in
    Array.sort compare a;
    a
  | Payload.Delta s ->
    let a = Intvec.slice_to_array s in
    Array.sort compare a;
    a
  | Payload.Updates u ->
    (* entries are canonically sorted by node already *)
    Array.init u.count (Payload.update_node u.entries)

let payload_ids (p : Payload.t) =
  match p with
  | Payload.Share d | Payload.Exchange d | Payload.Reply d -> Some (data_ids d)
  | Payload.Probe | Payload.Halt | Payload.Probe_req _ | Payload.Probe_ack _
  | Payload.Suspicion _ | Payload.Sync _ -> None

let inject_data ~universe ids (d : Payload.data) =
  let fresh = List.filter (fun id -> id >= 0 && id < universe) ids in
  if fresh = [] then d
  else
    match d with
    | Payload.Bits b ->
      let s' = Cset.copy b.Knowledge.set in
      List.iter (fun id -> ignore (Cset.add s' id)) fresh;
      (* injected ids invalidate the carried minima: mark them unknown *)
      Payload.Bits (Knowledge.external_snapshot s')
    | Payload.Ids arr ->
      let extra = List.filter (fun id -> not (Array.exists (Int.equal id) arr)) fresh in
      if extra = [] then d else Payload.Ids (Array.append arr (Array.of_list extra))
    | Payload.Delta s ->
      let arr = Intvec.slice_to_array s in
      let extra = List.filter (fun id -> not (Array.exists (Int.equal id) arr)) fresh in
      if extra = [] then d else Payload.Ids (Array.append arr (Array.of_list extra))
    | Payload.Updates u ->
      let nodes = data_ids d in
      let extra = List.filter (fun id -> not (Array.exists (Int.equal id) nodes)) fresh in
      if extra = [] then d
      else begin
        (* fabricated members appear as never-versioned alive entries,
           re-sorted to keep the batch canonical *)
        let entry i =
          (nodes.(i), Payload.update_version u.entries i, Payload.update_status u.entries i)
        in
        let fab = List.map (fun id -> (id, 0, Payload.status_alive)) extra in
        let all =
          List.sort
            (fun (a, _, _) (b, _, _) -> Int.compare a b)
            (List.init (Array.length nodes) entry @ fab)
        in
        let count = List.length all in
        let entries = Array.make (2 * count) 0 in
        List.iteri
          (fun i (node, version, status) -> Payload.set_update entries i ~node ~version ~status)
          all;
        Payload.Updates { u with count; entries }
      end

let inject ~universe (p : Payload.t) ids =
  match p with
  | Payload.Share d -> Payload.Share (inject_data ~universe ids d)
  | Payload.Exchange d -> Payload.Exchange (inject_data ~universe ids d)
  | Payload.Reply d -> Payload.Reply (inject_data ~universe ids d)
  | Payload.Probe | Payload.Halt | Payload.Probe_req _ | Payload.Probe_ack _
  | Payload.Suspicion _ | Payload.Sync _ -> p

let genesis_event ~node knowledge =
  Trace.Genesis { node; ids = Cset.to_array (Knowledge.contents knowledge) }

let wrap ~fault ~n (h : Payload.t Sim.handlers) : Payload.t Sim.handlers =
  let fab_by_node = Array.make (max n 1) [] in
  let has_fabs = ref false in
  List.iter
    (fun (node, ids) ->
      if node < n then begin
        fab_by_node.(node) <- ids;
        has_fabs := true
      end)
    (Fault.fabrications fault);
  if not !has_fabs then h
  else
    {
      h with
      Sim.round_begin =
        (fun ~node ~round ~send ->
          match fab_by_node.(node) with
          | [] -> h.Sim.round_begin ~node ~round ~send
          | ids ->
            h.Sim.round_begin ~node ~round ~send:(fun ~dst p ->
                send ~dst (inject ~universe:n p ids)));
    }

let audit ~fault ~trace (instances : Algorithm.instance array) =
  if (not (Fault.audit fault)) || Trace.is_null trace then (None, fun ~node:_ -> ())
  else begin
    let genesis ~node =
      Trace.emit trace (genesis_event ~node instances.(node).Algorithm.knowledge)
    in
    Array.iteri (fun node _ -> genesis ~node) instances;
    let content ~src ~dst payload =
      match payload_ids payload with
      | Some ids -> Trace.emit trace (Trace.Content { src; dst; ids })
      | None -> ()
    in
    (Some content, genesis)
  end
