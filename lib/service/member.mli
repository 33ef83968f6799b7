(** One participant of the continuous discovery service.

    A member generalises the one-shot discovery node into a long-lived
    SWIM-style process with three interleaved duties, all driven by
    {!step} (once per virtual tick) and {!deliver} (per message):

    - {b anti-entropy gossip}: every local membership observation is
      appended to an append-only update log; each tick the member picks
      a random live peer and pushes it the log suffix that peer has not
      seen (a per-target cursor), as a versioned
      {!Repro_discovery.Payload.Updates} batch. Each entry carries a
      transmission budget of [O(log live)] sends, so a change costs
      [O(log n)] messages per member in total and a quiet fleet sends
      {e nothing} — steady-state traffic scales with the churn rate,
      not the fleet size. The cursors are one flat table allocated
      with the member: a 32-bit log position per id of the universe,
      so 4 bytes per id and [4 · cap] bytes per member, read and
      written without allocating. A log too long for a 31-bit position
      raises [Failure] instead of wrapping.
    - {b liveness probing}: a periodic probe to a random live peer. An
      unanswered direct probe escalates to an {e indirect-probe round}
      ([Probe_req] to up to [indirect_k] random live intermediaries,
      answered by nonce-correlated [Probe_ack]s), so one lost link no
      longer convicts a healthy node. Only when the indirect round also
      goes silent does the member open the {e suspicion sub-protocol}:
      the target is marked suspect locally, a [Suspicion] claim is sent
      to a few peers — each corroborates only from its own probe
      evidence — and the refutation window starts {e wide}
      (9 ticks), shrinking toward a floor as independent
      confirmations arrive. Expiry convicts the target [down] at the
      incarnation that was suspected — the one verdict that is
      gossiped; a fresher incarnation makes it stale. A falsely accused
      member refutes by bumping its incarnation ({e self-refutation}),
      which outranks the accusation on the [(version, status)] lattice.
    - {b local health} (lifeguard-style): a saturating counter of
      recent evidence that the member's {e own} probes fail broadly
      (timeouts, refuted suspicions); the multiplier it induces
      (1x..3x) widens all of that member's liveness timeouts. A node on
      the minority side of a partition sees every probe fail, saturates
      its health counter, and slows its convictions instead of spraying
      down verdicts at the unreachable majority.
    - {b bootstrap}: a joiner knows a few live contacts; it retries a
      state exchange (decorrelated-jitter backoff), rotating through the
      contact list — so one contact churning out mid-bootstrap cannot
      strand it — and re-aiming at any live peer it has learned of
      meanwhile, until a full reply arrives. Bootstrap replies are
      merged without re-logging: the joiner must not re-broadcast the
      whole fleet.

    An optional anti-entropy sync every 64 ticks (enabled whenever an
    update could die in flight: lossy networks, or any churn at all)
    repairs any update whose every transmission was unlucky — including
    facts that finished disseminating while a joiner's bootstrap
    snapshot was in flight. It is {e digest first}: the member sends a
    random live peer only its {!View.digest}, one
    {!Repro_discovery.Payload.Sync} of about 10 bytes. A peer whose
    digest is equal holds the same exported view and does nothing more;
    one whose digest differs pushes its whole view as an [Exchange], and
    the member answers with its own as a full [Reply] — the push-pull
    that used to run on every sync, now run only on a mismatch. A
    converged fleet's sync therefore costs one small message per member
    per interval instead of two whole views. A digest collision between
    different views (impossible when they differ in one entry, about
    2{^-62} otherwise) skips that one repair; the pair's next sync, or
    either side's sync with another peer, performs it. *)

open Repro_util
open Repro_discovery

type actions = {
  send : dst:int -> Payload.t -> unit;
      (** hand a message to the runtime. An update batch the member
          sends may be {e lent}: full-state and gossip batches are the
          first [count] entries of a per-domain scratch that the
          member's next batch overwrites. [send] must therefore consume
          the payload — encode it, count it — before it returns, and
          keep no reference to it. *)
  on_suspect : target:int -> unit;
  on_retire : target:int -> unit;
  on_view_change : target:int -> alive:bool -> unit;
      (** the membership {e classification} of [target] flipped — the
          hook the runtime's convergence observer keys on *)
}

type t

val create_genesis :
  cap:int -> self:int -> peers:int array -> rng:Rng.t ->
  full_sync:bool -> indirect_k:int -> lifeguard:bool -> actions -> t
(** A founding member: starts with every [peer] (and itself) alive at
    version 1 and an empty log — the genesis membership is common
    knowledge, not news. [indirect_k] is the number of intermediaries
    asked per indirect-probe round; 0 disables the round (a direct
    timeout suspects immediately, the pre-lifeguard behaviour).
    [lifeguard] enables the local-health multiplier; off, all timeouts
    stay at their base values. *)

val create_joiner :
  cap:int -> self:int -> contacts:int array -> rng:Rng.t ->
  full_sync:bool -> indirect_k:int -> lifeguard:bool -> actions -> t
(** A late joiner: knows only itself (incarnation 1) and the addresses
    of a few [contacts] to bootstrap from (tried in rotation). Its own
    join announcement is the first entry of its log.
    @raise Invalid_argument if [contacts] is empty or contains [self]
    or an out-of-range id. *)

val self : t -> int
val view : t -> View.t
val incarnation : t -> int

val health : t -> int
(** Current local-health score, 0 (healthy) to 4 (every recent probe
    failed); always 0 with [lifeguard:false]. The induced timeout
    multiplier is [1 + health/2]. *)

val step : t -> now:float -> unit
(** One activation at virtual time [now]: fire due bootstrap retries,
    probe timeouts (indirect escalation / suspicion / retirement), the
    periodic probe, the digest sync, and one gossip push. *)

val deliver : t -> src:int -> now:float -> Payload.t -> unit
(** Handle one message. Any message from [src] doubles as proof of life:
    it cancels an outstanding probe or suspicion of [src], clears local
    suspicion, and answers any pending indirect-probe vouches for
    [src]. *)

val leave : t -> unit
(** Graceful departure: push a [down] verdict at the member's own
    incarnation to up to three live peers, so the fleet learns of the
    departure without waiting for failure detection. The member must
    not be stepped afterwards. *)
