(** The interface every discovery algorithm implements.

    An algorithm is instantiated once per node with a {!ctx} describing
    the node's initial world view; the returned {!instance} is then driven
    by the engine: [round] is called once per synchronous round to emit
    messages from start-of-round state, and [receive] once per delivered
    message during the same round's delivery phase. *)

open Repro_util

type ctx = {
  n : int;  (** total number of machines *)
  node : int;  (** this machine's index *)
  neighbors : int array;  (** initial out-neighbors (sorted) *)
  labels : int array;  (** shared label permutation (see DESIGN.md §7) *)
  rng : Rng.t;  (** this node's private random stream *)
}

type instance = {
  knowledge : Knowledge.t;
      (** The node's live knowledge set; the driver reads it for
          completion checks and growth tracking. *)
  round : round:int -> send:(dst:int -> Payload.t -> unit) -> unit;
  receive : src:int -> Payload.t -> unit;
  is_quiescent : unit -> bool;
      (** [true] once the node has locally decided discovery is finished
          and stopped transmitting. Only algorithms with termination
          detection (currently {!Hm_gossip}) ever return [true]; the
          baselines run until an external observer stops them. *)
}

type t = {
  name : string;  (** stable identifier used in tables and the CLI *)
  description : string;
  make : ctx -> instance;
}

val never_quiescent : unit -> bool
(** The [is_quiescent] implementation for algorithms without termination
    detection. *)

val initial_knowledge : ctx -> Knowledge.t
(** Knowledge of self plus the initial out-neighbors — the starting state
    shared by every algorithm. *)
