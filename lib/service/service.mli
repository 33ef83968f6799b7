(** The continuous discovery runtime: a multiplexed fleet of
    {!Member}s on a virtual clock, with seeded churn and an omniscient
    convergence observer.

    One-shot discovery answers "who is here?" once; the service keeps
    the answer current. It multiplexes every member of an id universe
    [0 .. cap-1] into one process and checks the {b convergence-lag
    invariant} online: after every membership change, every live
    member's view must match the true membership again within a bounded
    number of ticks ({!Repro_engine.Trace.Lag}). A run has three parts.

    {b The transport} carries member messages, and is chosen once from
    [backend]. [None], the default, is the {e direct transport}, the
    certification path: every payload is {!Repro_discovery.Wire}
    encoded and decoded on every hop, and the transport itself applies
    {!Repro_engine.Fault.fate} (partition cuts, link caps per tick, the
    loss coin) to every message. [Some Mux] is the
    {e hosted} transport: every member lives inside a real
    {!Repro_net.Node_core}, so messages also ride envelope framing +
    CRC, per-link go-back-N (lost frames are retransmitted, so
    [dropped_loss] stays 0) and the seeded {!Repro_net.Faultnet} shim.
    A reborn id greets the fleet with hellos, re-sent until every peer
    has revived its link, to void stale go-back-N sequence state.
    [Some (Process _)] is rejected.

    {b The churn driver} builds the genesis membership and applies
    scheduled ({!Repro_engine.Fault}) and seeded-random churn: joins
    bootstrapping from live contacts, graceful leaves, crashes and
    restarts.

    {b The observer} is omniscient but O(1) per view change: it keeps a
    Zobrist hash of each member's live view and of every epoch's true
    membership, and emits a [Converge] event when a member's view hash
    matches the snapshot of any epoch it has not yet been credited with
    — convergence to a {e consistent cut}, matching the checker's
    contract even when later changes are still in flight. Snapshots
    older than twice the lag bound are expired, so observer memory is
    O(bound · churn rate), not O(changes) — {!stats.snapshots_peak} and
    {!stats.lag_table_peak} pin the high-water marks. Everything is a
    pure function of the configuration: same config, same stats, byte
    for byte. *)

open Repro_engine

type churn = {
  rate : float;
      (** expected membership events per tick: joins arrive at
          [rate/2], graceful leaves and crashes at [rate/4] each, so
          the live population is stationary in expectation *)
  min_live : int;  (** never leave/crash below this population *)
  until : int;
      (** last tick churn may fire; the remaining ticks are a cooldown
          so every epoch's convergence deadline falls inside the run *)
}

type config = {
  n : int;  (** founding members (ids [0 .. n-1] minus scheduled joiners) *)
  cap : int;  (** id universe: joiners and rejoiners draw from [n .. cap-1] and the retired pool *)
  seed : int;
  ticks : int;
  churn : churn option;  (** seeded-random churn generator *)
  fault : Fault.t;  (** scheduled churn, link loss/delay, partitions *)
  lag_bound : float option;  (** [None]: [max 64 (4 log2(cap)^2)] *)
  full_sync : bool option;
      (** enable the periodic anti-entropy sync (see {!Member}): every
          64 ticks each member sends its view digest to a random live
          peer, and only a peer whose digest differs answers with a
          whole-view exchange. [None]: auto — on exactly when an update
          could die in flight: the fault plan can lose messages, or
          membership can change at all (churn or scheduled
          joins/leaves/crashes), since a joiner's bootstrap snapshot can
          race an in-flight update whose piggyback budgets then
          expire *)
  backend : Repro_net.Backend.t option;
      (** [None]: the direct transport, direct payload delivery (the
          certification oracle); [Some Mux]: members hosted inside real
          node cores, full wire stack per hop. [Some (Process _)] is
          rejected. *)
  indirect_k : int;
      (** intermediaries per indirect-probe round; [0] disables the
          round (a direct-probe timeout suspects immediately) *)
  lifeguard : bool;  (** local-health timeout scaling (see {!Member}) *)
  trace : Trace.sink;  (** teed with the online lag checker *)
}

type stats = {
  ticks_run : int;
  cap : int;
  founders : int;
  final_live : int;
  joins : int;  (** churn joins applied after genesis (incl. restarts) *)
  leaves : int;
  crashes : int;
  suspicions : int;
  retirements : int;
  epochs : int;  (** membership changes after genesis *)
  epochs_closed : int;  (** epochs whose fleet-wide convergence was confirmed *)
  max_lag : float;  (** worst confirmed convergence lag, in ticks *)
  msgs : int;  (** total member-level messages sent (all kinds) *)
  bytes : int;
      (** total encoded payload bytes: the sum of the five class totals
          below *)
  probe_bytes : int;
      (** the failure detector: probes, their acks (with piggybacked
          entries), indirect-probe requests and vouches, suspicion
          claims *)
  gossip_bytes : int;  (** incremental update pushes *)
  digest_bytes : int;  (** periodic sync digests *)
  full_state_bytes : int;
      (** the two whole-view batches of each sync whose digests
          differed *)
  bootstrap_bytes : int;  (** joiners' bootstrap requests and the full replies to them *)
  probes : int;
  acks : int;  (** probe replies *)
  gossip : int;  (** incremental update pushes *)
  update_entries : int;  (** entries carried by incremental pushes and probe acks *)
  full_syncs : int;  (** periodic syncs opened: one digest message each *)
  sync_repairs : int;
      (** syncs whose digests differed: whole-view pushes answering a
          digest (each also draws one full reply) *)
  bootstraps : int;  (** joiners' bootstrap requests + the full replies to them *)
  dropped_loss : int;
      (** lost to the fault plan's coin, partitions or caps; always 0 on the
          mux backend, where the fault shim drops frames silently and
          go-back-N retransmits them *)
  dropped_dead : int;  (** destination no longer live *)
  probe_reqs : int;  (** indirect-probe requests to intermediaries *)
  probe_acks : int;  (** nonce-correlated indirect-probe vouches *)
  suspicion_msgs : int;  (** suspicion claims shared with peers *)
  false_suspicions : int;
      (** suspicions opened against a target that was in truth live —
          the false-positive rate the indirect round and local-health
          scaling exist to suppress *)
  false_retirements : int;  (** down convictions of an in-truth-live target *)
  retransmits : int;
      (** go-back-N re-sends, summed over every hosted core's lifetime;
          0 on the direct transport, which has no reliability layer *)
  snapshots_peak : int;
      (** high-water mark of the observer's epoch-snapshot table (see
          the module docs: pruned to O(bound · churn rate)) *)
  lag_table_peak : int;
      (** high-water mark of the lag checker's open-epoch table
          ({!Trace.Lag.table_peak}) *)
}

val default_lag_bound : cap:int -> float

val run : config -> stats
(** Run the service for [config.ticks] virtual ticks.
    @raise Trace.Lag.Violation when a live member fails to re-converge
    within the lag bound.
    @raise Invalid_argument on a malformed configuration (including
    [backend = Some (Process _)]). *)

val stats_to_json : stats -> string
(** One-line JSON object, stable field order, ["%.12g"] floats —
    byte-stable across reruns for CI baselines. *)
