(* The deployment address table: index = node id, entry = where that
   node listens. Three entry spellings:

     /path/to/node.sock   unix-domain socket (anything containing '/')
     PORT                 TCP on the loopback interface
     HOST:PORT            TCP on an explicit host (numeric IP, or a name
                          resolved at parse time)

   The textual table is either a comma-separated list (the --peers
   flag) or a file with one entry per line, where blank lines and
   '#'-comments are ignored — a fleet's table can live next to its
   launch scripts and be passed around verbatim. *)

type t = Unix.sockaddr array

let parse_entry s =
  if String.contains s '/' then Ok (Unix.ADDR_UNIX s)
  else
    match int_of_string_opt s with
    | Some port when port > 0 && port < 65536 ->
      Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | Some _ -> Error (Printf.sprintf "port %S out of range" s)
    | None -> (
      match String.rindex_opt s ':' with
      | None -> Error (Printf.sprintf "bad address %S (want a socket path, PORT or HOST:PORT)" s)
      | Some i -> (
        let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> (
          match Unix.inet_addr_of_string host with
          | a -> Ok (Unix.ADDR_INET (a, p))
          | exception Failure _ -> (
            (* not a literal IP: resolve the name once, at parse time *)
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
              Error (Printf.sprintf "host %S has no address" host)
            | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), p))
            | exception Not_found -> Error (Printf.sprintf "cannot resolve host %S" host)))
        | _ -> Error (Printf.sprintf "bad address %S" s)))

let entry_to_string = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let of_entries entries =
  let rec go acc idx = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | e :: rest -> (
      match parse_entry e with
      | Ok a -> go (a :: acc) (idx + 1) rest
      | Error msg -> Error (Printf.sprintf "entry %d: %s" idx msg))
  in
  go [] 0 entries

let significant line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None else Some line

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
    match of_entries (List.filter_map significant (String.split_on_char '\n' text)) with
    | Ok table -> Ok table
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg

let index_of table addr =
  match parse_entry addr with
  | Error _ -> None
  | Ok target ->
    let found = ref None in
    Array.iteri (fun i a -> if !found = None && a = target then found := Some i) table;
    !found
