type t = { parent : int array; rank : int array; mutable count : int }

let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0; count = n }

let check t v = if v < 0 || v >= Array.length t.parent then invalid_arg "Unionfind: out of range"

let rec find t v =
  check t v;
  let p = t.parent.(v) in
  if p = v then v
  else begin
    let root = find t p in
    t.parent.(v) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.count <- t.count - 1;
    true
  end

let count t = t.count

let components t =
  let n = Array.length t.parent in
  let byroot = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = find t v in
    let existing = try Hashtbl.find byroot r with Not_found -> [] in
    Hashtbl.replace byroot r (v :: existing)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) byroot []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
