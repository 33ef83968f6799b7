(** Cost accounting for simulation runs.

    Tracks the complexity measures of the resource-discovery literature
    — messages ("connection complexity") and pointers (identifiers
    transferred) — plus wire bytes, delivery/drop counters and the
    per-round send series for the dynamics figures. *)

type t

val create : unit -> t

(** {2 Recording (used by the engine)} *)

val begin_round : t -> unit
val record_send : t -> pointers:int -> bytes:int -> unit
val record_delivery : t -> unit
val record_drop : t -> unit

val absorb : t -> sent:int -> delivered:int -> dropped:int -> pointers:int -> bytes:int -> unit
(** Merge pre-aggregated totals into [t] without touching the per-round
    series — how the cluster harness folds the counters its node
    processes report into one run-level metrics value (live runs have no
    global rounds, so the series stays empty).
    @raise Invalid_argument on negative totals. *)

(** {2 Totals} *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int
val pointers_sent : t -> int
val bytes_sent : t -> int
(** Wire bytes under the encoding the engine was configured with (0 when
    byte accounting is off). *)

(** {2 Per-round series (index 0 = round 1)} *)

val sent_series : t -> int array

val max_messages_in_round : t -> int
(** 0 when no round has run. *)
