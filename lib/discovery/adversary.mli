(** Content adversaries and the audit instrumentation that catches them.

    The CRC/sequence layer of the live path detects {e transport}
    corruption, but nothing below this module audits {e content}: a node
    advertising a stale or fabricated identifier produces perfectly
    well-formed messages. A fault plan can schedule exactly that
    ({!Repro_engine.Fault.with_fabrication}), and this module provides

    - the injection primitive ({!inject}) that adds the scheduled ids to
      every data payload a fabricating node sends, and
    - the audit instrumentation ({!audit}, {!genesis_event},
      {!payload_ids}) that lets {!Repro_engine.Trace.Invariants} verify
      the provenance invariant "every advertised id was genuinely
      learned" and flag the fabricator. *)

open Repro_engine

val payload_ids : Payload.t -> int array option
(** The identifiers a data-bearing payload advertises, ascending
    (allocates; used only on audited runs); [None] for [Probe]/[Halt]
    (they advertise nothing beyond the sender's own address, which the
    checker credits from the [Deliver] event itself). *)

val inject : universe:int -> Payload.t -> int list -> Payload.t
(** [inject ~universe p ids] returns [p] with [ids] added to its data
    (ids outside [0, universe) are ignored — they would not fit the
    receiver's knowledge set). [Probe]/[Halt] pass through. A [Delta] with
    additions becomes an [Ids] payload: the wire shape may change, but
    receivers treat both identically. *)

val genesis_event : node:int -> Knowledge.t -> Trace.event
(** The [Genesis] audit event for a node's current knowledge — emit at
    birth (initial knowledge = self + out-neighbors) and after a restart
    re-initialises the instance. *)

val wrap : fault:Fault.t -> n:int -> Payload.t Sim.handlers -> Payload.t Sim.handlers
(** Wrap engine handlers with the plan's content adversaries:
    fabricating nodes have every outgoing payload pass through
    {!inject}. Returns the handlers unchanged when the plan schedules no
    fabrication, so honest runs stay on the untouched hot path. *)

val audit :
  fault:Fault.t ->
  trace:Trace.sink ->
  Algorithm.instance array ->
  (src:int -> dst:int -> Payload.t -> unit) option * (node:int -> unit)
(** The content audit of a simulated run. When the plan's audit flag is
    on and [trace] is not {!Repro_engine.Trace.null}, it emits every
    node's birth [Genesis] event, then returns the engines' [on_deliver]
    hook (a [Content] event naming the ids a delivered data payload
    advertises) and the [Genesis] emitter to call once a restart has
    re-initialised a node's instance. Otherwise [(None, no-op)]. *)
