(** The deployment address table: the static name service of a live
    fleet. Position in the table is the node id, so every node must be
    started with the {e same} table (and the same seed) for the
    deployment to agree on who is who.

    Entry spellings: a unix-domain socket path (anything containing
    ['/']), a bare [PORT] (TCP on the loopback interface), or
    [HOST:PORT] with a numeric IP or a hostname (resolved once, at
    parse time, so the table in memory is always concrete addresses).

    The file form is one entry per line; blank lines and [#]-comments
    are ignored, and a file of {!entry_to_string} lines loads back to
    the same table (modulo comments and hostname resolution). *)

type t = Unix.sockaddr array

val parse_entry : string -> (Unix.sockaddr, string) result
val entry_to_string : Unix.sockaddr -> string
(** Canonical spelling: the socket path, or [IP:PORT]. *)

val of_entries : string list -> (t, string) result
(** Parse an already-split list (e.g. a comma-separated [--peers]
    value); errors name the offending index. *)

val load : string -> (t, string) result
(** Read a table file (entry per line, [#] comments); errors are
    prefixed with the path. *)

val index_of : t -> string -> int option
(** Which node id a [--listen] spelling denotes: the first entry equal
    to its parse ([None] if absent or unparseable). *)
