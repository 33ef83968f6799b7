(** Deterministic frame-level fault injection for the live path.

    The simulators apply a {!Repro_engine.Fault.t} inside their delivery
    loop; live UDS/TCP fleets have no such chokepoint, so each node
    routes every {e outgoing} encoded frame through this shim instead.
    The shim applies the plan's link faults — loss, fixed delay,
    duplication, reordering, single-byte corruption, per-link bandwidth
    caps (including WAN cross-region profiles) — and partition
    cuts, seeded per node from the run's master seed: given the same
    frame sequence, the same frames are dropped/held/corrupted,
    independent of wall clock or process interleaving.

    Partition, cap and loss are {!Repro_engine.Fault.fate}, the rule
    both simulators apply, on the node's round clock (below) and its
    substream; corruption, delay, reordering and duplication then act
    on the frames that pass.

    Suppressed frames vanish {e silently}: no [Drop] trace event and no
    drop counter, because the node's reliability layer retransmits
    unacknowledged frames and a later copy (usually) gets through —
    exactly like a lossy kernel buffer. Corrupted frames are detected by
    the receiver's CRC and surface there as [corrupt_frames].

    Partition windows are expressed in rounds; the shim maps wall time
    onto the round clock via the cluster epoch and tick period, so a
    [part=0-3|4-7@5..20] plan cuts live traffic during (roughly) the
    same protocol phase as in the simulator. *)

open Repro_engine

type t

val active : Fault.t -> bool
(** Does the plan contain anything this shim applies (link faults or
    partitions)? When [false], nodes skip the shim entirely and the live
    path is byte-identical to a plan-free run. *)

val create : plan:Fault.t -> seed:int -> node:int -> epoch:float -> tick_period:float -> t
(** Per-node shim; [seed] is the run's master seed (the shim derives a
    private substream), [epoch]/[tick_period] anchor the round clock.
    @raise Invalid_argument if [tick_period <= 0]. *)

(** What to put on the wire now for one frame. *)
type verdict =
  | Gone  (** nothing: the frame was lost, cut, throttled or held back *)
  | Pass  (** the frame itself *)
  | Queue of bytes list
      (** these buffers, in order, in its place: a corrupted copy, a
          duplicate, or both frame and duplicate *)

val send : t -> now:float -> dst:int -> bytes -> verdict
(** Route one encoded frame: pass it (possibly corrupted, and possibly
    twice) now, hold it for later release, or drop it. The frame is
    never written: corruption and duplication make fresh copies, so
    every buffer in a [Queue] other than the frame itself is new. *)

val pending : t -> bool
(** Frames currently held by delay/reorder faults. *)

val flush_due : t -> now:float -> queue:(dst:int -> bytes -> unit) -> unit
(** Release held frames whose time has come. The caller queues them on
    the (current) connection to [dst], or drops them if the link is not
    ready — retransmission covers the loss. *)
