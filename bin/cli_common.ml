(* The command-line vocabulary discovery_cli and discovery_node share:
   value converters, the flags both binaries accept, and the exit-code
   discipline. Both binaries document --seed and --fault in their own
   words, so those two builders take the doc string. *)

open Repro_discovery
open Cmdliner

let topology_conv =
  let parse s = Repro_graph.Generate.family_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf f = Format.pp_print_string ppf (Repro_graph.Generate.family_name f) in
  Arg.conv (parse, print)

let algo_conv =
  let parse s = Registry.find s |> Result.map_error (fun e -> `Msg e) in
  let print ppf (a : Algorithm.t) = Format.pp_print_string ppf a.Algorithm.name in
  Arg.conv (parse, print)

let fault_conv =
  let parse s = Repro_engine.Fault.of_string s |> Result.map_error (fun e -> `Msg e) in
  Arg.conv (parse, Repro_engine.Fault.pp)

let algo_arg =
  Arg.(
    value
    & opt algo_conv Hm_gossip.algorithm
    & info [ "a"; "algo" ] ~docv:"ALGO" ~doc:("Algorithm: " ^ Registry.parse_doc ()))

let tick_arg =
  Arg.(
    value
    & opt float Repro_net.Node.default_tick_period
    & info [ "tick-period" ] ~docv:"SECONDS" ~doc:"Seconds between algorithm activations.")

let seed_arg ~doc = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let fault_arg ~doc =
  Arg.(value & opt fault_conv Repro_engine.Fault.none & info [ "fault" ] ~docv:"PLAN" ~doc)

(* Run [f] on the optional output path opened for writing, closing it
   afterwards. A path that cannot be opened is reported as a usage
   error before [f] runs, not as an internal error after it. *)
let with_out path f =
  match path with
  | None -> f None
  | Some path -> (
    match open_out path with
    | exception Sys_error msg -> `Error (false, msg)
    | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some oc)))

(* Exit-code discipline: 0 success, 1 operational failure (divergent
   traces, non-convergence, DNF), 2 usage errors, 125 unexpected
   exceptions. Commands return their code; cmdliner-level parse and
   term errors are usage errors. *)
let eval_and_exit cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
