(* The first-class execution backend of the live path. Replaces the
   string `--transport` plumbing: every consumer (Cluster, Chaos, the
   CLIs, tests) dispatches on this one variant, and the string forms
   live in exactly one of_string/to_string pair. *)

type proto = Uds | Tcp

type t = Process of proto | Mux

let all = [ Process Uds; Process Tcp; Mux ]

let to_string = function Process Uds -> "uds" | Process Tcp -> "tcp" | Mux -> "mux"

let of_string = function
  | "uds" | "unix" | "process" | "process:uds" -> Ok (Process Uds)
  | "tcp" | "process:tcp" -> Ok (Process Tcp)
  | "mux" | "multiplexed" -> Ok Mux
  | s -> Error (Printf.sprintf "unknown backend %S (uds|tcp|mux)" s)
