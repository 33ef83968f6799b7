(** Harness ⇄ node control protocol.

    Each node process holds one duplex control channel (a socketpair
    inherited across the fork) to the {!Cluster} harness. The node
    streams its lifecycle upward as plain text lines; the harness sends
    a single-byte command down. Line formats:

    - ["E <time> <event...>"] — one {!Repro_engine.Trace.event},
      timestamped against the cluster epoch. The harness merges all
      nodes' event streams by time and feeds them to the trace sinks and
      the online invariant checker.
    - ["C <time> <tick>"] — the node's knowledge just became complete
      (it knows all [n] identifiers), at its local tick [tick]. The
      harness declares convergence when every surviving node has said
      this.
    - ["F <totals...>"] — final report on graceful shutdown: tick count
      and message counters ({!final}).
    - ["H"] (harness → node) — halt: finish up, emit the final report,
      exit. *)

open Repro_engine

type final = {
  ticks : int;
  sent : int;
  delivered : int;
  dropped : int;
  pointers : int;
  bytes : int;
  complete_tick : int option;  (** local tick at which knowledge became complete *)
  decode_errors : int;  (** malformed envelopes/payloads received (0 on a healthy link) *)
  retransmits : int;  (** frames re-sent by the reliability layer *)
  corrupt_frames : int;  (** received frames rejected by their CRC *)
}

val zero_final : final
(** All counters zero, [complete_tick = None]. *)

val add_final : final -> final -> final
(** Field-wise sum of every counter, for fleet totals; [complete_tick]
    is the accumulator's, since a per-node tick has no sum. *)

val metrics_of_final : final -> Metrics.t
(** Fresh metrics holding a report's totals — sent, delivered, dropped,
    pointers, bytes, retransmits and corrupt frames — for comparing fleet
    totals with a trace or building a run result. *)

type msg = Event of float * Trace.event | Completed of float * int | Final of final

val event_line : time:float -> Trace.event -> string
val completed_line : time:float -> tick:int -> string
val final_line : final -> string

val halt_line : string
(** The halt command, as a line. *)

val parse : string -> (msg, string) result
(** Parse one node→harness line, with or without its trailing newline.
    Only canonical lines are accepted — exactly what {!event_line},
    {!completed_line} or {!final_line} prints, so an accepted line
    re-encodes to itself byte for byte: integers are non-negative
    decimals without a sign, leading zero, base prefix or underscore
    (the final report's ["-1"] aside), and a time is finite and printed
    as ["%.12g"] prints it. *)
