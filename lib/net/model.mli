(** Bounded exhaustive exploration of {!Node_core} interleavings.

    The live-path protocol core is a pure state machine over an abstract
    clock, which makes it model-checkable: this module drives [n] cores
    (flooding on a path topology, so completion requires genuine
    multi-hop relay) with every frame captured into explicit per-link
    in-flight queues, and enumerates {e all} schedules of a bounded
    length over the moves

    - [Tick v] — one algorithm activation on node [v],
    - [Deliver (s,d,i)] — hand node [d] the [i]-th frame in flight from
      [s] (an [i > 0] models reordering, up to [reorder_width]),
    - [Pump v] — fire [v]'s due retransmission timeouts (offered only
      when a deadline has passed; the clock advances one unit per move),
    - [Crash v] / [Restart v] — kill a core and later boot a fresh
      incarnation ([announce] set, stale frames still deliverable),
      offered only while fewer than [max_crashes] crashes happened.

    After {e every} move of {e every} schedule the go-back-N window
    invariants are asserted (sequence numbering starts at 1, the
    out-of-order set sits strictly above the cumulative mark without
    duplicates, and — when no crash can have reset a link — a sender's
    [base_seq] never leads the peer's acknowledged mark by more than
    one). Each complete schedule then gets a deterministic drain
    (revive, deliver everything, tick and pump fairly) after which every
    node must reach complete knowledge — so lost completions, handshake
    deadlocks and window corruption all surface as a named violation
    with the offending move sequence attached.

    Cores are not forkable, so the DFS replays each path from a fresh
    boot; with the bounded depths and budgets used by the test suite
    this enumerates tens of thousands of interleavings in seconds. *)

type move =
  | Tick of int
  | Deliver of { src : int; dst : int; index : int }
  | Pump of int
  | Crash of int
  | Restart of int

type config = {
  n : int;  (** fleet size (path topology); at least 2 *)
  depth : int;  (** moves per explored schedule *)
  reorder_width : int;  (** how deep into a queue [Deliver] may reach *)
  max_crashes : int;  (** crash moves allowed per schedule; 0 disables *)
  max_leaves : int;  (** budget: stop after this many complete schedules *)
  seed : int;
}

val default : config
(** [n = 2], depth 8, reorder width 2, no crashes, 4000-leaf budget. *)

type stats = {
  interleavings : int;  (** complete schedules explored (and drained) *)
  moves : int;  (** total moves applied, including replay *)
  truncated : bool;  (** the leaf budget cut the tree short *)
}

val explore : config -> (stats, string) result
(** Run the exploration. [Error msg] carries the violated invariant and
    the move sequence that reached it.
    @raise Invalid_argument on a nonsensical config. *)
