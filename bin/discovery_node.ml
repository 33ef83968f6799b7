(* discovery_node — one live discovery process.

   Every node of a deployment is started with the SAME --peers address
   table (the static name service: index in the table = node id) and the
   SAME --seed (labels are a pure function of (seed, n), so all nodes
   agree on the label permutation). A node identifies itself by its
   --listen address, which must appear in the table.

   Example (3 nodes over unix-domain sockets, run in 3 shells):

     discovery_node --listen /tmp/d/node-0.sock \
       --peers /tmp/d/node-0.sock,/tmp/d/node-1.sock,/tmp/d/node-2.sock \
       --algo hm --seed 1

   The process exits once its knowledge is complete and the link has
   been idle for --idle-timeout seconds; exit status 0 means it learned
   all n identifiers. *)

open Repro_discovery
open Repro_net
open Cmdliner
open Cli_common

let listen_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Our own endpoint: a unix-domain socket path, PORT, or HOST:PORT.")

let peers_arg =
  Arg.(
    value
    & opt (some (list ~sep:',' string)) None
    & info [ "peers" ] ~docv:"ADDR,..."
        ~doc:
          "The full deployment address table, identical on every node; position in the list is \
           the node id, and $(b,--listen) must appear in it.")

let peers_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "peers-file" ] ~docv:"FILE"
        ~doc:
          "Read the address table from $(docv) instead of $(b,--peers): one entry per line \
           (socket path, PORT, or HOST:PORT), blank lines and #-comments ignored.")

let seed_arg = seed_arg ~doc:"Deployment seed (identical on every node)."

let neighbors_arg =
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "neighbors" ] ~docv:"ID,..."
        ~doc:
          "Initial knowledge: node ids we start out knowing (default: ring neighbours \
           id±1 mod n).")

let idle_arg =
  Arg.(
    value
    & opt float Node.default_idle_timeout
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Exit this long after knowledge is complete and the link has gone quiet.")

let max_ticks_arg =
  Arg.(
    value & opt int 10_000
    & info [ "max-ticks" ] ~docv:"K" ~doc:"Give up after this many activations.")

let fault_arg =
  fault_arg
    ~doc:
      "Fault plan applied to this node's outgoing frames (identical on every node for a \
       meaningful experiment), e.g. loss=0.1 or loss=0.05,delay=2."

let announce_arg =
  Arg.(
    value & flag
    & info [ "announce" ]
        ~doc:
          "Greet the initial neighbours with a hello frame on startup; peers answer with \
           their full identifier set. Use when (re)joining an already-running deployment.")

let main listen peers peers_file algo seed neighbors tick_period idle_timeout max_ticks fault
    announce =
  let table =
    match (peers, peers_file) with
    | Some _, Some _ -> Error "--peers and --peers-file are mutually exclusive"
    | Some entries, None -> Addr_table.of_entries entries
    | None, Some file -> Addr_table.load file
    | None, None -> Error "one of --peers or --peers-file is required"
  in
  match table with
  | Error msg -> `Error (false, msg)
  | Ok addrs -> (
    let n = Array.length addrs in
    match Addr_table.index_of addrs listen with
    | None -> `Error (false, Printf.sprintf "--listen %S does not appear in the address table" listen)
    | Some node -> (
      let neighbors =
        match neighbors with
        | Some ids -> Array.of_list ids
        | None ->
          if n = 1 then [||]
          else Array.of_list (List.sort_uniq compare [ (node + 1) mod n; (node + n - 1) mod n ])
      in
      match Array.exists (fun v -> v < 0 || v >= n) neighbors with
      | true -> `Error (false, "--neighbors: node id out of range")
      | false ->
        let report =
          Node.run
            {
              Node.node;
              n;
              algo;
              seed;
              neighbors;
              addrs;
              listen_fd = None;
              control_fd = None;
              epoch = Unix.gettimeofday ();
              tick_period;
              idle_timeout;
              max_ticks;
              fault;
              announce;
            }
        in
        let f = report.Node.final in
        let completed = f.Control.complete_tick <> None in
        Printf.printf
          {|{"node":%d,"n":%d,"algorithm":"%s","seed":%d,"completed":%b,"complete_tick":%s,"ticks":%d,"sent":%d,"delivered":%d,"dropped":%d,"decode_errors":%d,"retransmits":%d,"corrupt_frames":%d}|}
          node n algo.Algorithm.name seed completed
          (match f.Control.complete_tick with Some t -> string_of_int t | None -> "null")
          f.Control.ticks f.Control.sent f.Control.delivered f.Control.dropped
          f.Control.decode_errors f.Control.retransmits f.Control.corrupt_frames;
        print_newline ();
        `Ok (if completed then 0 else 1)))

let () =
  let term =
    Term.(
      ret
        (const main $ listen_arg $ peers_arg $ peers_file_arg $ algo_arg $ seed_arg
       $ neighbors_arg $ tick_arg $ idle_arg $ max_ticks_arg $ fault_arg $ announce_arg))
  in
  let info =
    Cmd.info "discovery_node" ~version:"1.0.0"
      ~doc:"Run one resource-discovery node as a live process over sockets."
  in
  eval_and_exit (Cmd.v info term)
