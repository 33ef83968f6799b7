open Repro_util

(* Symmetrised adjacency in CSR form, rebuilt per analysis call; analysis
   runs once per experiment row so this is not a hot path. *)
let undirected_csr t =
  let n = Topology.n t in
  let deg = Array.make n 0 in
  let edges = Topology.edges t in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let adj = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  List.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  (offsets, adj)

let bfs_csr n (offsets, adj) source =
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = adj.(i) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    done
  done;
  dist

let undirected_bfs t ~source =
  let n = Topology.n t in
  if source < 0 || source >= n then invalid_arg "Analyze.undirected_bfs: source out of range";
  bfs_csr n (undirected_csr t) source

let is_weakly_connected t =
  let n = Topology.n t in
  let uf = Unionfind.create n in
  List.iter (fun (u, v) -> ignore (Unionfind.union uf u v)) (Topology.edges t);
  n <= 1 || Unionfind.count uf = 1

let eccentricity dist =
  Array.fold_left
    (fun acc d -> if d < 0 then raise Exit else max acc d)
    0 dist

let weak_diameter_exact t =
  let n = Topology.n t in
  if n <= 1 then 0
  else begin
    let csr = undirected_csr t in
    try
      let best = ref 0 in
      for s = 0 to n - 1 do
        best := max !best (eccentricity (bfs_csr n csr s))
      done;
      !best
    with Exit -> -1
  end

let weak_diameter_estimate ~rng t =
  let n = Topology.n t in
  if n <= 1 then 0
  else begin
    let csr = undirected_csr t in
    try
      let best = ref 0 in
      for _ = 1 to 4 do
        (* double sweep: BFS from a random source, then from the farthest
           node found — exact on trees, a strong lower bound elsewhere. *)
        let d1 = bfs_csr n csr (Rng.int rng n) in
        let far = ref 0 in
        Array.iteri (fun v d -> if d < 0 then raise Exit else if d > d1.(!far) then far := v) d1;
        best := max !best (eccentricity (bfs_csr n csr !far))
      done;
      !best
    with Exit -> -1
  end

let degree_stats t =
  let n = Topology.n t in
  if n = 0 then invalid_arg "Analyze.degree_stats: empty graph";
  Stats.summarize_ints (List.init n (Topology.out_degree t))
