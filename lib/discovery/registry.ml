let all =
  [
    Flooding.algorithm;
    Swamping.algorithm;
    Pointer_jump.algorithm;
    Name_dropper.algorithm;
    Min_pointer.algorithm;
    Rand_gossip.algorithm;
    Hm_gossip.algorithm;
  ]

let parse_rand_spec spec =
  (* spec grammar: MODE "/f" INT ["/delta"] ["/nbr"], as produced by
     Params.describe. *)
  let parts = String.split_on_char '/' spec in
  let init = { Params.default with Params.delta = false; partner = Params.Uniform_known } in
  let step acc part =
    match acc with
    | Error _ -> acc
    | Ok p -> (
      match part with
      | "push" -> Ok { p with Params.mode = Params.Push }
      | "pull" -> Ok { p with Params.mode = Params.Pull }
      | "push_pull" -> Ok { p with Params.mode = Params.Push_pull }
      | "delta" -> Ok { p with Params.delta = true }
      | "nbr" -> Ok { p with Params.partner = Params.Initial_neighbor }
      | _ when String.length part > 1 && part.[0] = 'f' -> (
        match int_of_string_opt (String.sub part 1 (String.length part - 1)) with
        | Some f when f >= 1 -> Ok { p with Params.fanout = f }
        | _ -> Error (Printf.sprintf "bad fanout %S" part))
      | _ -> Error (Printf.sprintf "unknown rand_gossip parameter %S" part))
  in
  List.fold_left step (Ok init) parts

let parse_hm_spec spec =
  (* spec grammar: ("cap:" INT | "nobroadcast") ["/full"] | "full" *)
  match String.split_on_char '/' spec with
  | [ "full" ] -> Ok (Hm_gossip.with_variant ~upward:Hm_gossip.Full ())
  | [ head ] | [ head; "full" ] as parts -> (
    let upward = if List.length parts = 2 then Hm_gossip.Full else Hm_gossip.Delta in
    match String.split_on_char ':' head with
    | [ "nobroadcast" ] -> Ok (Hm_gossip.with_variant ~broadcast:Hm_gossip.Off ~upward ())
    | [ "cap"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Hm_gossip.with_variant ~broadcast:(Hm_gossip.Cap k) ~upward ())
      | _ -> Error (Printf.sprintf "bad hm cap %S" k))
    | _ -> Error (Printf.sprintf "unknown hm variant %S" spec))
  | _ -> Error (Printf.sprintf "unknown hm variant %S" spec)

let prefixed ~prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    Some (String.sub name pl (String.length name - pl))
  else None

let names () = List.map (fun a -> a.Algorithm.name) all

let parse_doc () =
  Printf.sprintf
    "%s — or an ablation spec: rand:MODE[/fK][/delta][/nbr] with MODE push|pull|push_pull \
     (e.g. rand:push/f2/delta), hm:cap:K, hm:nobroadcast, hm:full, hm:cap:K/full (e.g. \
     hm:cap:4)."
    (String.concat ", " (names ()))

(* Classic two-row Levenshtein; the catalogue is tiny, so O(|a|·|b|) per
   candidate is nothing. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let is_substring ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  lsub > 0 && at 0

(* Near-miss candidates for an unknown name: a known name within edit
   distance 2 (catches typos like "floding"), or one that contains /is
   contained in the query (catches aliases like "hm_gossip" -> "hm" and
   truncations like "rand" -> "rand_gossip"). Spec-shaped names keep
   their prefix head as a hint. *)
let suggestions name =
  let scored =
    List.filter_map
      (fun cand ->
        let d = edit_distance name cand in
        if d = 0 then None
        else if d <= 2 then Some (cand, d)
        else if is_substring ~sub:cand name || is_substring ~sub:name cand then
          Some (cand, 3 + abs (String.length cand - String.length name))
        else None)
      (names ())
  in
  let sorted = List.sort (fun (a, da) (b, db) -> compare (da, a) (db, b)) scored in
  List.filteri (fun i _ -> i < 2) (List.map fst sorted)

let did_you_mean name =
  match suggestions name with
  | [] -> ""
  | cands ->
    Printf.sprintf " — did you mean %s?"
      (String.concat " or " (List.map (Printf.sprintf "%S") cands))

(* Module-style aliases accepted anywhere an algorithm name is: the
   library modules are named after the papers, the registry after the
   catalogue's short names. *)
let aliases = [ ("hm_gossip", "hm"); ("haeupler_malkhi", "hm") ]

let find name =
  let name = Option.value (List.assoc_opt name aliases) ~default:name in
  match List.find_opt (fun a -> a.Algorithm.name = name) all with
  | Some a -> Ok a
  | None -> (
    match prefixed ~prefix:"rand:" name with
    | Some spec -> Result.map Rand_gossip.with_params (parse_rand_spec spec)
    | None -> (
      match prefixed ~prefix:"hm:" name with
      | Some spec -> parse_hm_spec spec
      | None ->
        Error
          (Printf.sprintf "unknown algorithm %S%s (known: %s)" name (did_you_mean name)
             (parse_doc ()))))
