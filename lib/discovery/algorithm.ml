open Repro_util

type ctx = {
  n : int;
  node : int;
  neighbors : int array;
  labels : int array;
  rng : Rng.t;
}

type instance = {
  knowledge : Knowledge.t;
  round : round:int -> send:(dst:int -> Payload.t -> unit) -> unit;
  receive : src:int -> Payload.t -> unit;
  is_quiescent : unit -> bool;
}

let never_quiescent () = false

type t = { name : string; description : string; make : ctx -> instance }

let initial_knowledge ctx =
  let k = Knowledge.create ~n:ctx.n ~owner:ctx.node ~labels:ctx.labels () in
  Array.iter (fun v -> ignore (Knowledge.add k v)) ctx.neighbors;
  k
