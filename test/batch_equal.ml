(* Payload equality for the codec tests. A decoded update batch is lent:
   its batch is the first [count] entries of a per-domain array that may
   be longer, so two batches are equal when their [full] flags, their
   [count]s and their first [count] entries agree. Every other payload
   compares structurally. *)

open Repro_discovery

let same_payload (a : Payload.t) (b : Payload.t) =
  match (a, b) with
  | Share (Updates x), Share (Updates y)
  | Exchange (Updates x), Exchange (Updates y)
  | Reply (Updates x), Reply (Updates y) ->
    Bool.equal x.full y.full
    && x.count = y.count
    &&
    let same = ref true in
    for i = 0 to (2 * x.count) - 1 do
      if x.entries.(i) <> y.entries.(i) then same := false
    done;
    !same
  | _ -> a = b
