open Repro_util
open Repro_graph
open Repro_engine

type completion = Strong | Survivors_strong | Leader | Quiescent

let completion_name = function
  | Strong -> "strong"
  | Survivors_strong -> "survivors"
  | Leader -> "leader"
  | Quiescent -> "quiescent"

let labels_of ~seed n = Rng.permutation (Rng.substream ~seed ~index:0) n

let instances ~seed (algo : Algorithm.t) topology =
  let n = Topology.n topology in
  let labels = labels_of ~seed n in
  let instances =
    Array.init n (fun node ->
        let ctx =
          {
            Algorithm.n;
            node;
            neighbors = Topology.out_neighbors topology node;
            labels;
            rng = Rng.substream ~seed ~index:(node + 1);
            params = Params.default;
          }
        in
        algo.Algorithm.make ctx)
  in
  (labels, instances)

let strong_done instances ~alive n =
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < n do
    if alive !v && not (Knowledge.is_complete instances.(!v).Algorithm.knowledge) then ok := false;
    incr v
  done;
  !ok

let survivors_done instances ~alive n =
  (* every alive node's knowledge must cover the alive set *)
  let alive_set = Cset.create n in
  for v = 0 to n - 1 do
    if alive v then ignore (Cset.add alive_set v)
  done;
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < n do
    if alive !v && not (Cset.subset alive_set (Knowledge.contents instances.(!v).Algorithm.knowledge))
    then ok := false;
    incr v
  done;
  !ok

let leader_done instances ~alive n ~(labels : int array) =
  (* candidate leader: the alive node with the globally smallest label *)
  let leader = ref (-1) in
  for v = 0 to n - 1 do
    if alive v && (!leader < 0 || labels.(v) < labels.(!leader)) then leader := v
  done;
  if !leader < 0 then true
  else if not (Knowledge.is_complete instances.(!leader).Algorithm.knowledge) then false
  else begin
    let ok = ref true in
    let v = ref 0 in
    while !ok && !v < n do
      if alive !v && not (Knowledge.knows instances.(!v).Algorithm.knowledge !leader) then
        ok := false;
      incr v
    done;
    !ok
  end

let quiescent_done instances ~alive n =
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < n do
    if alive !v && not (instances.(!v).Algorithm.is_quiescent ()) then ok := false;
    incr v
  done;
  !ok

let satisfied completion ~labels ~instances ~alive =
  let n = Array.length instances in
  match completion with
  | Strong -> strong_done instances ~alive n
  | Survivors_strong -> survivors_done instances ~alive n
  | Leader -> leader_done instances ~alive n ~labels
  | Quiescent -> quiescent_done instances ~alive n

let last_join_round fault =
  (* restarts re-activate a node just like a late join: completion must
     not be declared while the plan still owes the network a node *)
  let m = List.fold_left (fun acc (_, round) -> max acc round) 0 (Fault.joining_nodes fault) in
  List.fold_left (fun acc (_, round) -> max acc round) m (Fault.restarting_nodes fault)

let restart_instance ~seed (algo : Algorithm.t) topology instances ~node =
  let n = Topology.n topology in
  let ctx =
    {
      Algorithm.n;
      node;
      neighbors = Topology.out_neighbors topology node;
      labels = labels_of ~seed n;
      rng = Rng.substream ~seed ~index:(node + 1);
      params = Params.default;
    }
  in
  instances.(node) <- algo.Algorithm.make ctx

let handlers instances =
  {
    Sim.round_begin = (fun ~node ~round ~send -> instances.(node).Algorithm.round ~round ~send);
    deliver = (fun ~node ~src ~round:_ payload -> instances.(node).Algorithm.receive ~src payload);
  }
