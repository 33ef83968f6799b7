(** Multiplexed live backend: the whole deployment's {!Node_core}s in
    one process, on a deterministic virtual clock.

    Every node is the same protocol machine a socket process runs — real
    {!Envelope} frames, go-back-N reliable delivery, hello handshakes,
    the {!Faultnet} shim — but the mux runs on
    {!Repro_engine.Async_sim}'s clock: frames travel through the async
    engine's own event heap, on its draw order and lifecycle rules. That
    buys two things at once:

    - {b scale}: thousands of live nodes fit in one process (no fork,
      no fd pressure, no wall-clock tick timers), so the live protocol
      stack can be exercised at [n] far beyond what process-per-node
      reaches; and
    - {b certifiability}: a fault-free mux run is {e trace-identical} —
      byte for byte under [trace-diff] — to the async oracle
      ({!Repro_discovery.Run_async}, [trace --async]) with the same
      (algorithm, topology, spec, seed), at every [n] measured under
      the default latency band: all seven algorithms at [n = 512], hm
      up to [n = 8,192]. Bare frames
      the oracle does not model (acks, hellos) draw their
      transit latency from a private RNG substream, so they never
      perturb the shared draw sequence. The oracle hands every receiver
      of a view the sender's one snapshot value, and hm reads that
      identity (a view it has already absorbed into custody is not
      absorbed again); the mux's cores share one decode memo
      ({!Node_core.memo}), so a view is decoded once per (sender,
      version) and every receiver gets that one value too.

    The identity claim stops where live mechanics diverge from the
    oracle by design: under link faults the shim (not the engine)
    decides each frame's fate, retransmissions draw fresh latencies
    (so a sender's older view can arrive after its newer one, and
    decode afresh), and crash/restart accounting follows the live rules
    (drops are charged when a peer is written off, not per undelivered
    frame, and a restarted node's views are forgotten by the memo) —
    those runs are validated by the online invariant checker instead.
    It also stops when the spec's latency band is much wider than a
    tick: a round trip can then outlast the retransmission timeout,
    and a sender's older view can arrive after its newer one and be
    decoded afresh (hm with latency [(0.1, 2.5)] differs from the
    oracle already at [n = 24], seed 11, at event 850; the net tests
    pin that divergence).

    The run's completion monitor is the single authority on completion,
    sampling {!Repro_discovery.Exec.satisfied} once per virtual time
    unit exactly like the async engine.

    The membership service hosts its members on the mux when
    [Service.config.backend = Some Mux]; its default, [None], is the
    direct transport, which has no node cores at all. *)

open Repro_graph
open Repro_discovery

val exec_spec :
  Run_async.spec -> Algorithm.t -> Topology.t -> Run_async.result * Control.final array
(** Run the multiplexed deployment: the overall result, as
    {!Repro_discovery.Run_async.exec_spec} returns it, plus each node's
    own protocol counters (the final incarnation's, as a socket cluster
    would aggregate). The result's [metrics] are rebuilt from those counters, so the caller's
    invariant [final_check] is a genuine cross-check of the trace
    against the cores' bookkeeping. *)
