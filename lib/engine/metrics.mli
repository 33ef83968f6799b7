(** Cost accounting for simulation runs.

    Tracks the three complexity measures of the resource-discovery
    literature — rounds, messages ("connection complexity") and pointers
    (identifiers transferred) — plus delivery/drop counters and full
    per-round series for the dynamics figures. *)

type t

val create : unit -> t

(** {2 Recording (used by the engine)} *)

val begin_round : t -> unit
val record_send : t -> pointers:int -> bytes:int -> unit
val record_delivery : t -> unit
val record_drop : t -> unit

val absorb :
  t ->
  ?retransmits:int ->
  ?corrupt_frames:int ->
  sent:int ->
  delivered:int ->
  dropped:int ->
  pointers:int ->
  bytes:int ->
  unit ->
  unit
(** Merge pre-aggregated totals into [t] without touching the per-round
    series — how the cluster harness folds the counters its node
    processes report into one run-level metrics value (live runs have no
    global rounds, so the series stay empty).
    @raise Invalid_argument on negative totals. *)

(** {2 Totals} *)

val rounds : t -> int
val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int
val pointers_sent : t -> int
val bytes_sent : t -> int
(** Wire bytes under the encoding the engine was configured with (0 when
    byte accounting is off). *)

val retransmits : t -> int
(** Reliability-layer frame retransmissions (live path only; always 0 in
    simulator runs). Transport-level repair, never counted as sends. *)

val corrupt_frames : t -> int
(** Received frames rejected by CRC (live path only). *)

(** {2 Per-round series (index 0 = round 1)} *)

val sent_series : t -> int array
val pointer_series : t -> int array
val byte_series : t -> int array

val max_messages_in_round : t -> int
(** 0 when no round has run. *)
