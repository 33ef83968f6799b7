(** Listening sockets and framed connections for the live execution
    path.

    Which runtime hosts the nodes is the {!Backend} module's business;
    this module owns how the socket-backed runtimes talk to each other.
    Discovery is about learning {e identifiers}; a deployment addresses
    its nodes through one [Unix.sockaddr array] indexed by node id, its
    static name service ({!Cluster} builds it from a socket directory or
    from port-0 TCP listeners, [discovery_node] from its [--peers]
    list), so "connect-on-learn" needs no out-of-band address exchange. *)

val listen_socket : Unix.sockaddr -> Unix.file_descr
(** Create, bind and listen an endpoint at this address (nonblocking,
    close-on-exec). A stale UDS path is unlinked first. The cluster
    harness binds every node's listener {e before} forking — children
    inherit them — so no node can try to connect to a peer that is not
    yet listening. *)

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
  val read : t -> handle:(bytes -> off:int -> unit) -> [ `Ok | `Closed | `Corrupt of string ]
  (** Read what the socket has and hand every complete envelope to
      [handle] where it lies in the read buffer: [handle buf ~off] gets
      a frame {!Envelope.decode} accepted, and must not keep [buf]. *)

  val close : t -> unit
end
