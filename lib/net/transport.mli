(** Socket address schemes and framed connections for the live
    execution path.

    Which runtime hosts the nodes is the {!Backend} module's business;
    this module owns how the socket-backed runtimes address and talk to
    each other. Discovery is about learning {e identifiers}; the
    id→address map ({!scheme}) is the deployment's static name service
    (a directory layout for UDS, a port table for TCP, an explicit
    table for hand-built fleets), so "connect-on-learn" needs no
    out-of-band address exchange. *)

(** Address scheme of a socket-backed deployment. *)
type scheme =
  | Dir of string  (** UDS: node [i] listens on [<dir>/node-<i>.sock] *)
  | Ports of int array  (** TCP: node [i] listens on [127.0.0.1:ports.(i)] *)
  | Table of Unix.sockaddr array
      (** explicit per-node address table (the standalone
          [discovery_node] binary builds one from its [--peers] list) *)

val socket_path : string -> int -> string
val sockaddr : scheme -> int -> Unix.sockaddr
val domain : scheme -> Unix.socket_domain

val listen_socket : scheme -> int -> Unix.file_descr
(** Create, bind and listen node [i]'s endpoint (nonblocking,
    close-on-exec). A stale UDS path is unlinked first. The cluster
    harness binds every node's listener {e before} forking — children
    inherit them — so no node can try to connect to a peer that is not
    yet listening. *)

val bound_port : Unix.file_descr -> int
(** The actual port of a TCP listener bound to port 0.
    @raise Invalid_argument on a non-inet socket. *)

(** A nonblocking stream connection carrying {!Envelope} frames, with an
    elastic read accumulator and write backlog. Never blocks: reads
    drain what the kernel has, writes stop at [EWOULDBLOCK] and resume
    on the next {!Conn.flush}. *)
module Conn : sig
  type t

  val create : Unix.file_descr -> t
  (** Takes ownership of [fd] and makes it nonblocking. *)

  val fd : t -> Unix.file_descr
  val queue : t -> bytes -> unit
  (** Append one encoded frame to the write backlog. *)

  val pending_out : t -> bool

  val flush : t -> [ `Ok | `Closed ]
  val read : t -> handle:(Envelope.t -> unit) -> [ `Ok | `Closed | `Corrupt of string ]
  val close : t -> unit
end
