(** Serializable fault plans shared by the simulators and the live
    network path.

    A plan combines five orthogonal dynamics classes:

    - {b link faults}: per-message loss, fixed delivery delay, duplication,
      reordering, byte corruption and a per-link bandwidth cap — either
      uniform (the {e base} link), overridden per directed link, or applied
      to all cross-region links via a {b WAN profile}. The simulators apply
      loss, delay and caps (their delivery model has no frames to corrupt
      or reorder); the live path applies everything at the frame level via
      [Repro_net.Faultnet].
    - {b partitions}: scheduled cuts between node groups, healed at a
      given round. Messages crossing group boundaries inside the window
      are dropped.
    - {b content adversaries}: nodes scheduled to fabricate identifiers
      inject them into every data payload they send; the audit flag makes
      drivers emit provenance events ([genesis]/[content]) so the trace
      invariant checker can catch exactly this class of misbehavior.
    - {b crash/restart schedules}: a node scheduled to crash at round [r]
      executes rounds [1 .. r-1] normally and is silent from round [r] on;
      a restart scheduled at a later round revives it with its initial
      knowledge (live: the supervisor re-forks the process and it rejoins
      via a hello handshake).
    - {b late joins} (churn): a node scheduled to join at round [r] is
      inactive before [r], and runs normally from round [r] on. Scheduled
      joins are simulator-only; the live cluster forks every node at
      start.

    Plans round-trip through a textual DSL ({!of_string} / {!to_string}):

    {v loss=0.1,part=0-3|4-7@5..20,crash=5@8,restart=5@14 v} *)

type t

type link = {
  loss : float;  (** independent per-message drop probability *)
  delay : int;  (** fixed delivery delay, in rounds/ticks *)
  dup : float;  (** probability a message is delivered twice *)
  reorder : float;  (** probability a message is held back one tick *)
  corrupt : float;  (** probability one frame byte is flipped (live only) *)
  cap : int;
      (** bandwidth cap: at most [cap] messages per round (sync) or per
          unit-time window (async/live) cross the link; excess messages
          are dropped ([throttled]). 0 means unlimited. *)
}

type partition = { groups : int list list; start : int; heal : int }
(** Nodes in different [groups] cannot exchange messages during rounds
    [start .. heal-1]; nodes in no listed group form an implicit extra
    group. *)

val none : t
(** The fault-free plan. *)

val default_link : link
(** All-zero link faults. *)

val equal : t -> t -> bool

(** {1 Base link faults} *)

val with_loss : t -> p:float -> t
(** Independent per-message drop probability on the base link.
    @raise Invalid_argument unless [0 <= p <= 1]. *)

val with_delay : t -> ticks:int -> t
val with_dup : t -> p:float -> t
val with_reorder : t -> p:float -> t
val with_corrupt : t -> p:float -> t

val with_cap : t -> limit:int -> t
(** Base-link bandwidth cap in messages per round/window; 0 = unlimited.
    @raise Invalid_argument if [limit < 0]. *)

(** {1 Per-link overrides} *)

val with_link : t -> src:int -> dst:int -> link -> t
(** Override every fault field for the directed link [src -> dst]; an
    all-default link removes the override.
    @raise Invalid_argument on negative nodes or out-of-range fields. *)

val link_between : t -> src:int -> dst:int -> link
(** The effective link faults for [src -> dst]: per-link override if one
    exists, else the WAN cross profile when the endpoints sit in different
    regions, else the base link. *)

val has_link_faults : t -> bool
(** Any nonzero base field, any override, or a WAN profile. *)

val has_delays : t -> bool
(** Any link (base, override or WAN cross) with a nonzero delay. *)

(** {1 WAN profiles} *)

val with_wan : t -> regions:int list list -> cross:link -> t
(** Install a WAN profile (replacing any previous one): nodes cluster
    into [regions]; every link whose endpoints sit in different regions
    (nodes in no listed region form an implicit extra region) uses the
    [cross] link profile instead of the base link. Per-link overrides
    still win over the WAN profile.
    @raise Invalid_argument if a region is empty, a node appears in two
    regions, [cross] has an out-of-range field, or [cross] is all-default
    (a no-op profile is almost certainly a mistake). *)

(** {1 Partitions} *)

val with_partition : t -> groups:int list list -> start:int -> heal:int -> t
(** Cut the links between [groups] during rounds [start .. heal-1].
    @raise Invalid_argument if [start < 1], [heal <= start], a group is
    empty, or a node appears in two groups. *)

val partitions : t -> partition list

(** {1 Link fate} *)

type windows
(** Cap-window state: per capped directed link, its current window and
    the messages it carried there. One per message path. *)

val windows : unit -> windows

val fate :
  t -> windows -> Repro_util.Rng.t -> src:int -> dst:int -> time:float -> link ->
  Trace.drop_reason option
(** [fate t windows rng ~src ~dst ~time lk] — with [lk = link_between t
    ~src ~dst] — is the rule both simulators and the live shim apply to
    every message: [Some Partitioned] if a partition severs the link at
    [time] (a round, compared as a float so the asynchronous engines can
    pass fractional times), else
    [Some Throttled] if the link already carried [lk.cap > 0] messages in
    window [int_of_float time] (the message counts either way), else
    [Some Loss] on a [lk.loss] coin drawn from [rng], else [None].
    Allocates nothing once a capped link has its window. *)

(** {1 Crash / restart / join schedules} *)

val with_crash : t -> node:int -> round:int -> t
(** Schedule [node] to crash at the start of [round] (1-based). Later
    schedules for the same node overwrite earlier ones.
    @raise Invalid_argument if [round < 1], [node < 0], or a scheduled
    restart for [node] does not come after [round]. *)

val with_crashes : t -> (int * int) list -> t
(** Fold of {!with_crash} over [(node, round)] pairs. *)

val with_random_crashes : t -> seed:int -> n:int -> count:int -> t
(** [min count n] distinct uniform victims out of [0 .. n-1], each
    crashing at a uniform round in [1 .. 5], all drawn from [seed]'s
    [0xdead] substream and added to [t] by {!with_crash}; [t] itself
    when [count <= 0]. The random-crash cells of the fault sweep (T6)
    and [discovery_cli run --crashes] both draw their victims here. *)

val crashed_nodes : t -> (int * int) list
(** All scheduled crashes as [(node, round)], sorted by node. *)

val with_restart : t -> node:int -> round:int -> t
(** Schedule [node] to restart (revive with initial knowledge) at the
    start of [round]. Requires an earlier scheduled crash.
    @raise Invalid_argument if [round < 1], [node < 0], no crash is
    scheduled for [node], or the restart does not come after it. *)

val restart_round : t -> node:int -> int option
val restarting_nodes : t -> (int * int) list

val with_join : t -> node:int -> round:int -> t
(** Schedule [node] to join (become active) at the start of [round]
    (1-based; a join at round 1 is the default behaviour). Later
    schedules for the same node overwrite earlier ones.
    @raise Invalid_argument if [round < 1] or [node < 0]. *)

val with_joins : t -> (int * int) list -> t
(** Fold of {!with_join} over [(node, round)] pairs. *)

val join_round : t -> node:int -> int
(** The round at which [node] activates (1 when unscheduled). *)

val joining_nodes : t -> (int * int) list
(** All scheduled late joins as [(node, round)], sorted by node. *)

val with_leave : t -> node:int -> round:int -> t
(** Schedule [node] to leave gracefully at the start of [round]
    (1-based): it announces its departure and stops, unlike a crash,
    which is silent. Consumed by the continuous discovery service
    (the one-shot engines treat membership as fixed once joined).
    @raise Invalid_argument if [round < 1], [node < 0], or [node] also
    has a scheduled crash (a node cannot both crash and leave). *)

val leaving_nodes : t -> (int * int) list
(** All scheduled leaves as [(node, round)], sorted by node. *)

(** {1 Content adversaries} *)

val with_fabrication : t -> node:int -> id:int -> t
(** Make [node] inject identifier [id] into every data payload it sends —
    a Byzantine-ish adversary advertising ids it never genuinely learned.
    Multiple fabrications per node accumulate (set semantics).
    @raise Invalid_argument on a negative node or id. *)

val fabrications : t -> (int * int list) list
(** All fabrication schedules as [(node, sorted ids)], sorted by node. *)

val fabricated_ids : t -> node:int -> int list
(** The ids [node] fabricates (sorted; [] when honest). *)

val with_audit : t -> bool -> t
(** Toggle content auditing: drivers emit [genesis] events (a node's
    genuinely originated knowledge at birth/restart) and [content] events
    (the ids a payload advertises) so {!Trace.Invariants} can verify that
    every advertised id was genuinely learned. Off by default — audit
    events change the trace stream, so goldens stay byte-identical. *)

val audit : t -> bool

val last_scheduled_round : t -> int
(** The latest round mentioned by any schedule (crash, restart, join,
    leave or partition heal); 0 for {!none}. Drivers use it to keep runs
    alive until the plan has fully played out. *)

val invariants : ?live:bool -> t -> Trace.Invariants.t
(** The online invariant checker for a run under this plan. It is
    relaxed ([~lenient:true]) when the plan restarts a node, which
    joins again after its crash, and, with [~live:true] (a cluster on
    any backend), when it crashes one at all: a payload delivered just
    before its ack was lost to a kill is counted as dropped too. Delayed
    links carry messages across round boundaries ([~allow_inflight]).
    Every other plan is checked strictly. *)

(** {1 Serialization} *)

val to_string : t -> string
(** Canonical DSL form; [to_string none = ""]. Items are comma-separated:
    [loss=P], [delay=T], [dup=P], [reorder=P], [corrupt=P], [cap=N],
    [link=SRC>DST:key=value:...], [wan=R1|R2:key=value:...] (regions are
    [+]-joined [a-b] ranges), [part=G1|G2@START..HEAL], [crash=N@R],
    [restart=N@R], [join=N@R], [leave=N@R], [fabricate=NODE@ID],
    [audit=1]. *)

val of_string : string -> (t, string) result
(** Parse the DSL; inverse of {!to_string}. Restart items may appear
    before the crash they depend on. Duplicate [link=] items for the same
    directed link and duplicate [wan=] items are rejected. *)

val pp : Format.formatter -> t -> unit
