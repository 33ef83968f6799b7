open Repro_util

let sym u v = [ (u, v); (v, u) ]

let path n =
  let edges = List.concat (List.init (max 0 (n - 1)) (fun i -> sym i (i + 1))) in
  Topology.create ~n ~edges

let directed_path n =
  Topology.create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n <= 2 then path n
  else
    let edges = List.concat (List.init n (fun i -> sym i ((i + 1) mod n))) in
    Topology.create ~n ~edges

let directed_cycle n =
  if n <= 1 then Topology.create ~n ~edges:[]
  else Topology.create ~n ~edges:(List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  Topology.create ~n ~edges:(List.concat (List.init (max 0 (n - 1)) (fun i -> sym 0 (i + 1))))

let inward_star n =
  Topology.create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i + 1, 0)))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then edges := (u, v) :: !edges
    done
  done;
  Topology.create ~n ~edges:!edges

let binary_tree n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then edges := sym i l @ !edges;
    if r < n then edges := sym i r @ !edges
  done;
  Topology.create ~n ~edges:!edges

let grid ~rows ~cols =
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := sym (id r c) (id r (c + 1)) @ !edges;
      if r + 1 < rows then edges := sym (id r c) (id (r + 1) c) @ !edges
    done
  done;
  Topology.create ~n ~edges:!edges

let hypercube ~dim =
  let n = 1 lsl dim in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := sym u v @ !edges
    done
  done;
  Topology.create ~n ~edges:!edges

let lollipop n =
  let head = (n + 1) / 2 in
  let edges = ref [] in
  for u = 0 to head - 1 do
    for v = u + 1 to head - 1 do
      edges := sym u v @ !edges
    done
  done;
  for i = head - 1 to n - 2 do
    edges := sym i (i + 1) @ !edges
  done;
  Topology.create ~n ~edges:!edges

(* The paper's sorted-input nemesis: every node's single pointer targets
   the node with the next-smaller id (node 0 knows nobody). Ids coincide
   with ranks, so deterministic min-pointer strategies collapse the whole
   instance onto node 0 instead of spreading load. *)
let sorted_chain n = Topology.create ~n ~edges:(List.init (max 0 (n - 1)) (fun i -> (i + 1, i)))

(* The Kniesburges et al. deterministic worst case: w interleaved
   descending sorted lists (node v points to v - w) whose heads are
   chained together. With w = 1 this degenerates to the sorted chain. *)
let kniesburges ~n ~w =
  if w < 1 then invalid_arg "Generate.kniesburges: need w >= 1";
  let edges = ref [] in
  for v = w to n - 1 do
    edges := (v, v - w) :: !edges
  done;
  for i = 0 to min (w - 2) (n - 2) do
    edges := (i, i + 1) :: !edges
  done;
  Topology.create ~n ~edges:!edges

(* Stitch an edge list into a single weakly connected component by
   chaining component representatives with symmetric edges. *)
let stitch ~n edges =
  let uf = Unionfind.create n in
  List.iter (fun (u, v) -> ignore (Unionfind.union uf u v)) edges;
  if Unionfind.count uf <= 1 then edges
  else begin
    let reps = List.map List.hd (Unionfind.components uf) in
    let extra =
      match reps with
      | [] | [ _ ] -> []
      | first :: rest ->
        List.concat (List.map2 sym (first :: List.rev (List.tl (List.rev rest))) rest)
    in
    extra @ edges
  end

(* Grow-only per-domain scratch of packed [u * n + v] edge codes. The
   k-out family is generated at every sweep cell and benchmark
   iteration, and consing 2nk edge tuples per graph dominated the
   generation allocation profile; pushing codes into a reused array
   leaves only the result CSR arrays as per-call allocation.
   Domain-local because parallel sweeps generate graphs concurrently. *)
let code_scratch : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let k_out ~rng ~n ~k =
  if k < 1 || k >= n then invalid_arg "Generate.k_out: need 1 <= k < n";
  let scratch = Domain.DLS.get code_scratch in
  (* 2nk sampled edges plus at most 2(n-1) stitch edges *)
  let cap = (2 * n * k) + (2 * n) in
  if Array.length !scratch < cap then scratch := Array.make (max cap (2 * Array.length !scratch)) 0;
  let codes = !scratch in
  let len = ref 0 in
  let push u v =
    codes.(!len) <- (u * n) + v;
    incr len
  in
  for u = 0 to n - 1 do
    let targets = Rng.sample_distinct rng ~n ~k ~avoid:u in
    Array.iter
      (fun v ->
        push u v;
        push v u)
      targets
  done;
  (* stitch into one weak component, exactly as [stitch] does: chain
     consecutive component representatives (their min members, in
     ascending order — a function of the partition alone) with
     symmetric edges *)
  let uf = Unionfind.create n in
  for i = 0 to !len - 1 do
    ignore (Unionfind.union uf (codes.(i) / n) (codes.(i) mod n))
  done;
  if Unionfind.count uf > 1 then begin
    let reps = List.map List.hd (Unionfind.components uf) in
    match reps with
    | [] -> ()
    | first :: rest ->
      ignore
        (List.fold_left
           (fun prev r ->
             push prev r;
             push r prev;
             r)
           first rest)
  end;
  Topology.create_packed ~n ~codes ~len:!len

let erdos_renyi ~rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generate.erdos_renyi: p out of range";
  let edges = ref [] in
  (* Geometric skipping keeps generation O(m) rather than O(n^2). *)
  if p > 0.0 then begin
    let total = n * n in
    let idx = ref (-1) in
    let log1mp = log (1.0 -. Float.min p 0.999999) in
    let continue = ref true in
    while !continue do
      let r = Float.max 1e-12 (1.0 -. Rng.float rng 1.0) in
      let skip = 1 + int_of_float (Float.floor (log r /. log1mp)) in
      idx := !idx + skip;
      if !idx >= total then continue := false
      else begin
        let u = !idx / n and v = !idx mod n in
        if u <> v then edges := (u, v) :: (v, u) :: !edges
      end
    done
  end;
  Topology.create ~n ~edges:(stitch ~n !edges)

let clustered ~rng ~n ~clusters ~intra_k =
  if clusters < 1 || clusters > n then invalid_arg "Generate.clustered: bad cluster count";
  let base = n / clusters and extra = n mod clusters in
  let starts = Array.make (clusters + 1) 0 in
  for c = 0 to clusters - 1 do
    starts.(c + 1) <- starts.(c) + base + (if c < extra then 1 else 0)
  done;
  let edges = ref [] in
  for c = 0 to clusters - 1 do
    let lo = starts.(c) and hi = starts.(c + 1) in
    let size = hi - lo in
    if size > 1 then begin
      let k = min intra_k (size - 1) in
      for u = lo to hi - 1 do
        let targets = Rng.sample_distinct rng ~n:size ~k ~avoid:(u - lo) in
        Array.iter (fun v -> edges := (u, lo + v) :: (lo + v, u) :: !edges) targets
      done;
      (* guarantee intra-pod weak connectivity with a cheap pod ring *)
      for u = lo to hi - 2 do
        edges := sym u (u + 1) @ !edges
      done
    end
  done;
  (* gateway ring between pods *)
  for c = 0 to clusters - 1 do
    edges := sym starts.(c) starts.((c + 1) mod clusters) @ !edges
  done;
  Topology.create ~n ~edges:(stitch ~n !edges)

let seeded_directory ~rng ~n ~seeds ~fanout =
  if seeds < 1 || seeds > n then invalid_arg "Generate.seeded_directory: bad seed count";
  if fanout < 1 || fanout > seeds then invalid_arg "Generate.seeded_directory: bad fanout";
  let edges = ref [] in
  for u = 0 to seeds - 1 do
    for v = 0 to seeds - 1 do
      if u <> v then edges := (u, v) :: !edges
    done
  done;
  for u = seeds to n - 1 do
    let targets = Rng.sample_distinct rng ~n:seeds ~k:fanout ~avoid:(-1) in
    Array.iter (fun v -> edges := (u, v) :: !edges) targets
  done;
  Topology.create ~n ~edges:!edges

let barabasi_albert ~rng ~n ~m =
  if m < 1 then invalid_arg "Generate.barabasi_albert: m must be >= 1";
  (* Preferential attachment via the repeated-endpoints trick: choosing a
     uniform element of the endpoint multiset selects nodes with
     probability proportional to their degree. *)
  let endpoint_count = ref 0 in
  let endpoint_arr = Array.make (max 1 (2 * m * n)) 0 in
  let push v =
    endpoint_arr.(!endpoint_count) <- v;
    incr endpoint_count
  in
  let edges = ref [] in
  let seed_size = min n (m + 1) in
  (* initial clique among the first m+1 nodes *)
  for u = 0 to seed_size - 1 do
    for v = u + 1 to seed_size - 1 do
      edges := sym u v @ !edges;
      push u;
      push v
    done
  done;
  for v = seed_size to n - 1 do
    let chosen = Hashtbl.create (2 * m) in
    let tries = ref 0 in
    while Hashtbl.length chosen < m && !tries < 50 * m do
      incr tries;
      let u = endpoint_arr.(Rng.int rng !endpoint_count) in
      if u <> v then Hashtbl.replace chosen u ()
    done;
    Hashtbl.iter
      (fun u () ->
        edges := sym u v @ !edges;
        push u;
        push v)
      chosen
  done;
  Topology.create ~n ~edges:(stitch ~n !edges)

let watts_strogatz ~rng ~n ~k ~beta =
  if k < 1 then invalid_arg "Generate.watts_strogatz: k must be >= 1";
  if beta < 0.0 || beta > 1.0 then invalid_arg "Generate.watts_strogatz: beta out of range";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for j = 1 to min k (n - 1) do
      let v = (u + j) mod n in
      if Rng.bernoulli rng ~p:beta && n > 2 then begin
        (* rewire the far endpoint to a uniform random node *)
        let rec fresh () =
          let w = Rng.int rng n in
          if w = u then fresh () else w
        in
        edges := sym u (fresh ()) @ !edges
      end
      else if u <> v then edges := sym u v @ !edges
    done
  done;
  Topology.create ~n ~edges:(stitch ~n !edges)

let random_geometric ~rng ~n ~radius =
  if radius <= 0.0 then invalid_arg "Generate.random_geometric: radius must be positive";
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let edges = ref [] in
  (* grid-bucket the points so neighbour search is O(n) for small radii *)
  let cells = max 1 (int_of_float (1.0 /. radius)) in
  let bucket = Hashtbl.create (2 * n) in
  let cell_of v =
    (min (cells - 1) (int_of_float (xs.(v) *. float_of_int cells)),
     min (cells - 1) (int_of_float (ys.(v) *. float_of_int cells)))
  in
  for v = 0 to n - 1 do
    let c = cell_of v in
    Hashtbl.replace bucket c (v :: (try Hashtbl.find bucket c with Not_found -> []))
  done;
  let r2 = radius *. radius in
  for v = 0 to n - 1 do
    let cx, cy = cell_of v in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        match Hashtbl.find_opt bucket (cx + dx, cy + dy) with
        | None -> ()
        | Some candidates ->
          List.iter
            (fun u ->
              if u > v then begin
                let ddx = xs.(u) -. xs.(v) and ddy = ys.(u) -. ys.(v) in
                if (ddx *. ddx) +. (ddy *. ddy) <= r2 then edges := sym u v @ !edges
              end)
            candidates
      done
    done
  done;
  Topology.create ~n ~edges:(stitch ~n !edges)

type family =
  | Path
  | Directed_path
  | Cycle
  | Directed_cycle
  | Star
  | Inward_star
  | Complete
  | Binary_tree
  | Grid
  | Hypercube
  | Lollipop
  | Sorted_chain
  | Kniesburges of int
  | K_out of int
  | Erdos_renyi of float
  | Clustered of int * int
  | Seeded_directory of int * int
  | Barabasi_albert of int
  | Watts_strogatz of int * float
  | Random_geometric of float

let family_name = function
  | Path -> "path"
  | Directed_path -> "dpath"
  | Cycle -> "cycle"
  | Directed_cycle -> "dcycle"
  | Star -> "star"
  | Inward_star -> "instar"
  | Complete -> "complete"
  | Binary_tree -> "tree"
  | Grid -> "grid"
  | Hypercube -> "hypercube"
  | Lollipop -> "lollipop"
  | Sorted_chain -> "sorted_chain"
  | Kniesburges w -> Printf.sprintf "kniesburges:%d" w
  | K_out k -> Printf.sprintf "kout:%d" k
  | Erdos_renyi p -> Printf.sprintf "er:%g" p
  | Clustered (c, k) -> Printf.sprintf "clustered:%d:%d" c k
  | Seeded_directory (s, f) -> Printf.sprintf "seeds:%d:%d" s f
  | Barabasi_albert m -> Printf.sprintf "ba:%d" m
  | Watts_strogatz (k, b) -> Printf.sprintf "ws:%d:%g" k b
  | Random_geometric r -> Printf.sprintf "geo:%g" r

let family_of_string s =
  let parts = String.split_on_char ':' s in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some i -> k i
    | None -> Error (Printf.sprintf "%s: expected integer argument, got %S" name v)
  in
  match parts with
  | [ "path" ] -> Ok Path
  | [ "dpath" ] -> Ok Directed_path
  | [ "cycle" ] -> Ok Cycle
  | [ "dcycle" ] -> Ok Directed_cycle
  | [ "star" ] -> Ok Star
  | [ "instar" ] -> Ok Inward_star
  | [ "complete" ] -> Ok Complete
  | [ "tree" ] -> Ok Binary_tree
  | [ "grid" ] -> Ok Grid
  | [ "hypercube" ] -> Ok Hypercube
  | [ "lollipop" ] -> Ok Lollipop
  | [ "sorted_chain" ] -> Ok Sorted_chain
  | [ "kniesburges" ] -> Ok (Kniesburges 8)
  | [ "kniesburges"; w ] -> int_arg "kniesburges" w (fun w -> Ok (Kniesburges w))
  | [ "kout"; k ] -> int_arg "kout" k (fun k -> Ok (K_out k))
  | [ "er"; p ] -> (
    match float_of_string_opt p with
    | Some p -> Ok (Erdos_renyi p)
    | None -> Error (Printf.sprintf "er: expected float argument, got %S" p))
  | [ "clustered"; c; k ] ->
    int_arg "clustered" c (fun c -> int_arg "clustered" k (fun k -> Ok (Clustered (c, k))))
  | [ "seeds"; s; f ] ->
    int_arg "seeds" s (fun s -> int_arg "seeds" f (fun f -> Ok (Seeded_directory (s, f))))
  | [ "ba"; m ] -> int_arg "ba" m (fun m -> Ok (Barabasi_albert m))
  | [ "ws"; k; b ] ->
    int_arg "ws" k (fun k ->
        match float_of_string_opt b with
        | Some b -> Ok (Watts_strogatz (k, b))
        | None -> Error (Printf.sprintf "ws: expected float argument, got %S" b))
  | [ "geo"; r ] -> (
    match float_of_string_opt r with
    | Some r -> Ok (Random_geometric r)
    | None -> Error (Printf.sprintf "geo: expected float argument, got %S" r))
  | _ -> Error (Printf.sprintf "unknown topology family %S" s)

let near_square n =
  let r = int_of_float (Float.round (sqrt (float_of_int n))) in
  let rec fit r = if r < 1 then (1, n) else if n mod r = 0 then (r, n / r) else fit (r - 1) in
  fit (max 1 r)

let build family ~rng ~n =
  match family with
  | Path -> path n
  | Directed_path -> directed_path n
  | Cycle -> cycle n
  | Directed_cycle -> directed_cycle n
  | Star -> star n
  | Inward_star -> inward_star n
  | Complete -> complete n
  | Binary_tree -> binary_tree n
  | Grid ->
    let rows, cols = near_square n in
    grid ~rows ~cols
  | Hypercube ->
    let dim = max 1 (int_of_float (Float.floor (Stats.log2 (float_of_int (max 2 n))))) in
    hypercube ~dim
  | Lollipop -> lollipop n
  | Sorted_chain -> sorted_chain n
  | Kniesburges w -> kniesburges ~n ~w
  | K_out k -> k_out ~rng ~n ~k
  | Erdos_renyi p -> erdos_renyi ~rng ~n ~p
  | Clustered (c, k) -> clustered ~rng ~n ~clusters:c ~intra_k:k
  | Seeded_directory (s, f) -> seeded_directory ~rng ~n ~seeds:s ~fanout:f
  | Barabasi_albert m -> barabasi_albert ~rng ~n ~m
  | Watts_strogatz (k, b) -> watts_strogatz ~rng ~n ~k ~beta:b
  | Random_geometric r -> random_geometric ~rng ~n ~radius:r

let of_seed family ~n ~seed = build family ~rng:(Rng.substream ~seed ~index:0x70b0) ~n

let all_families =
  [
    Path;
    Cycle;
    Directed_cycle;
    Star;
    Inward_star;
    Binary_tree;
    Grid;
    Hypercube;
    Lollipop;
    K_out 3;
    Erdos_renyi 0.002;
    Clustered (8, 3);
    Seeded_directory (16, 2);
    Barabasi_albert 2;
    Watts_strogatz (2, 0.1);
    Random_geometric 0.06;
  ]

(* The named worst-case instances swept by exp_adversarial and the CI
   chaos matrix; kept out of all_families so existing reports keep their
   shape. *)
let adversarial_families = [ Sorted_chain; Star; Lollipop; Binary_tree; Kniesburges 8 ]
