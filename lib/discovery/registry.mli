(** Central catalogue of the implemented discovery algorithms. *)

val all : Algorithm.t list
(** The seven primary algorithms, baseline-to-contribution order:
    flooding, swamping, pointer_jump, name_dropper, min_pointer,
    rand_gossip, hm. *)

val find : string -> (Algorithm.t, string) result
(** Look up by [name]. Module-style aliases resolve to their catalogue
    names (["hm_gossip"] and ["haeupler_malkhi"] → ["hm"]). Also
    resolves ablation specs:
    - ["rand:push/f2/delta"], ["rand:pull/f1/nbr"] … — flat-gossip
      variants via {!Rand_gossip.with_params};
    - ["hm:cap:4"], ["hm:nobroadcast"], ["hm:full"], ["hm:cap:4/full"] —
      {!Hm_gossip.with_variant} ablations.

    Unknown names get near-miss suggestions in the error message
    (["floding"] → did you mean ["flooding"]?) plus the full
    {!parse_doc} grammar. *)

val parse_doc : unit -> string
(** One-line human description of everything {!find} accepts — the
    algorithm names and the ablation-spec grammar. The CLIs embed this
    in their [--algo] help and error text instead of hand-maintaining
    copies. *)
