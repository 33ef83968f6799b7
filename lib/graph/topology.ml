(* Adjacency stored in compressed-sparse-row form: [adj] holds the sorted
   out-neighbour lists back to back, [offsets.(u) .. offsets.(u+1)-1]
   delimiting node [u]'s slice. Immutable after construction. *)

type t = { n : int; offsets : int array; adj : int array }

(* In-place heapsort of [arr.(0..m-1)]: [Array.sort] cannot sort a
   prefix of a longer caller-owned scratch without an allocating copy.
   [sift] and the swaps are top-level so the sort builds no closures. *)
let rec sift arr i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && arr.(l + 1) > arr.(l) then l + 1 else l in
    if arr.(c) > arr.(i) then begin
      let t = arr.(i) in
      arr.(i) <- arr.(c);
      arr.(c) <- t;
      sift arr c len
    end
  end

let sort_prefix arr m =
  for i = (m / 2) - 1 downto 0 do
    sift arr i m
  done;
  for len = m - 1 downto 1 do
    let t = arr.(0) in
    arr.(0) <- arr.(len);
    arr.(len) <- t;
    sift arr 0 len
  done

(* Dedup the sorted prefix [codes.(0..m-1)] in place and build the CSR
   arrays from the distinct packed [u * n + v] codes. *)
let of_sorted_codes ~n codes m =
  let distinct = ref 0 in
  let prev = ref (-1) in
  for j = 0 to m - 1 do
    if codes.(j) <> !prev then begin
      prev := codes.(j);
      codes.(!distinct) <- codes.(j);
      incr distinct
    end
  done;
  let m = !distinct in
  let offsets = Array.make (n + 1) 0 in
  for j = 0 to m - 1 do
    let u = codes.(j) / n in
    offsets.(u + 1) <- offsets.(u + 1) + 1
  done;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  let adj = Array.make m 0 in
  (* codes are sorted, so neighbours land in CSR order directly *)
  for j = 0 to m - 1 do
    adj.(j) <- codes.(j) mod n
  done;
  { n; offsets; adj }

let create ~n ~edges =
  if n < 0 then invalid_arg "Topology.create: negative size";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Topology.create: edge endpoint out of range")
    edges;
  (* Deduplicate via packed [u * n + v] codes sorted in place: sorting
     the tuple list with the polymorphic compare allocates a multiple of
     the list size per merge level, which dominated graph-generation
     allocation profiles. The packed code of an (n-1, n-1) edge is below
     2^62 for any n addressable by the simulator. *)
  let m = List.fold_left (fun acc (u, v) -> if u <> v then acc + 1 else acc) 0 edges in
  let codes = Array.make m 0 in
  let i = ref 0 in
  List.iter
    (fun (u, v) ->
      if u <> v then begin
        codes.(!i) <- (u * n) + v;
        incr i
      end)
    edges;
  Array.sort Int.compare codes;
  of_sorted_codes ~n codes m

let create_packed ~n ~codes ~len =
  if n < 0 then invalid_arg "Topology.create_packed: negative size";
  if len < 0 || len > Array.length codes then invalid_arg "Topology.create_packed: bad length";
  let m = ref 0 in
  for i = 0 to len - 1 do
    let c = codes.(i) in
    if c < 0 || c >= n * n then invalid_arg "Topology.create_packed: code out of range";
    (* drop self-loops, compacting in place *)
    if c / n <> c mod n then begin
      codes.(!m) <- c;
      incr m
    end
  done;
  sort_prefix codes !m;
  of_sorted_codes ~n codes !m

let n t = t.n
let out_degree t u =
  if u < 0 || u >= t.n then invalid_arg "Topology.out_degree: out of range";
  t.offsets.(u + 1) - t.offsets.(u)

let out_neighbors t u =
  if u < 0 || u >= t.n then invalid_arg "Topology.out_neighbors: out of range";
  Array.sub t.adj t.offsets.(u) (t.offsets.(u + 1) - t.offsets.(u))

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = t.offsets.(u + 1) - 1 downto t.offsets.(u) do
      acc := (u, t.adj.(i)) :: !acc
    done
  done;
  !acc

let edge_count t = Array.length t.adj

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then false
  else begin
    (* binary search within u's sorted slice *)
    let lo = ref t.offsets.(u) and hi = ref (t.offsets.(u + 1) - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let w = t.adj.(mid) in
      if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

let symmetrize t =
  let fwd = edges t in
  let bwd = List.map (fun (u, v) -> (v, u)) fwd in
  create ~n:t.n ~edges:(fwd @ bwd)

let map_nodes t perm =
  if Array.length perm <> t.n then invalid_arg "Topology.map_nodes: wrong permutation length";
  let seen = Array.make t.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= t.n || seen.(p) then invalid_arg "Topology.map_nodes: not a permutation";
      seen.(p) <- true)
    perm;
  create ~n:t.n ~edges:(List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges t))

