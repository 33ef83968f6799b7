(* A small fork/join pool over OCaml 5 domains for embarrassingly
   parallel work.

   [run] is one phase of a {!Team}: every member pulls the next task
   index from an atomic counter, so the first idle worker takes the
   lowest unstarted index, which load-balances uneven task costs (a
   16k-node cell next to a 128-node cell) without static partitioning.
   Results land in a slot array indexed by task, so the merged output is
   in task order and independent of scheduling — the property the
   experiment harness relies on for byte-identical reports at any
   [jobs]. The phase's barrier tells the caller when the last task has
   finished. *)

type 'a slot = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

(* Per-domain marker for nested-use detection. Worker domains (and the
   calling domain while it participates) set it; a parallel [run] from
   inside a task would deadlock-prone oversubscribe, so it is refused. *)
let inside_key = Domain.DLS.new_key (fun () -> false)

let env_var = "REPRO_JOBS"

(* Domains are real OS threads with 8-ish MB stacks; cap runaway
   REPRO_JOBS values rather than letting spawn fail. *)
let hard_cap = 64

let default_jobs () =
  match Sys.getenv_opt env_var with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> min j hard_cap
    | _ ->
      invalid_arg (Printf.sprintf "Pool.default_jobs: %s=%S is not a positive integer" env_var s))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let sequential tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let first = tasks.(0) () in
    let out = Array.make n first in
    for i = 1 to n - 1 do
      out.(i) <- tasks.(i) ()
    done;
    out
  end

(* Persistent worker team for phase-parallel work: a team spawns its
   domains once, so a per-round barrier inside a single simulated run
   costs a mutex/condvar round-trip, not a domain spawn. Each
   [Team.run] is one barrier-to-barrier phase in which every member
   (the caller participates as member 0) executes the same closure on
   its own shard index. Coordination is a mutex/condvar epoch: posting
   a phase bumps the epoch and wakes the workers, and the call returns
   when the last member checks in — so phase N's writes happen-before
   phase N+1's reads on every member, which is what lets the engine
   hand frozen snapshots across shards without further
   synchronisation. *)
module Team = struct
  type t = {
    members : int;
    lock : Mutex.t;
    wake : Condition.t;
    done_ : Condition.t;
    mutable epoch : int;  (* bumped per phase; workers run when it advances *)
    mutable task : int -> unit;  (* the current phase's body, given the member index *)
    mutable pending : int;  (* members still inside the current phase *)
    mutable stopping : bool;
    mutable failures : (exn * Printexc.raw_backtrace) option array;  (* per member *)
    mutable domains : unit Domain.t array;
  }

  let worker t me () =
    Domain.DLS.set inside_key true;
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.lock;
      while t.epoch = !seen && not t.stopping do
        Condition.wait t.wake t.lock
      done;
      if t.stopping then begin
        continue := false;
        Mutex.unlock t.lock
      end
      else begin
        seen := t.epoch;
        let task = t.task in
        Mutex.unlock t.lock;
        (try task me
         with e -> t.failures.(me) <- Some (e, Printexc.get_raw_backtrace ()));
        Mutex.lock t.lock;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.done_;
        Mutex.unlock t.lock
      end
    done

  let create ~members =
    if members < 1 then invalid_arg "Pool.Team.create: members must be >= 1";
    if members > 1 && Domain.DLS.get inside_key then
      invalid_arg "Pool.Team.create: nested parallel region";
    let members = min members hard_cap in
    let t =
      {
        members;
        lock = Mutex.create ();
        wake = Condition.create ();
        done_ = Condition.create ();
        epoch = 0;
        task = ignore;
        pending = 0;
        stopping = false;
        failures = Array.make members None;
        domains = [||];
      }
    in
    t.domains <- Array.init (members - 1) (fun i -> Domain.spawn (worker t (i + 1)));
    t

  let members t = t.members

  let run t f =
    if t.stopping then invalid_arg "Pool.Team.run: team is shut down";
    Array.fill t.failures 0 t.members None;
    Mutex.lock t.lock;
    t.task <- f;
    t.pending <- t.members;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    (* the caller is member 0, marked as a member for the phase so that
       its body cannot start a nested parallel region either *)
    let outer = Domain.DLS.get inside_key in
    Domain.DLS.set inside_key true;
    (try f 0 with e -> t.failures.(0) <- Some (e, Printexc.get_raw_backtrace ()));
    Domain.DLS.set inside_key outer;
    Mutex.lock t.lock;
    t.pending <- t.pending - 1;
    if t.pending > 0 then
      while t.pending > 0 do
        Condition.wait t.done_ t.lock
      done
    else Condition.broadcast t.done_;
    Mutex.unlock t.lock;
    (* deterministic failure: re-raise the lowest member's exception *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      t.failures

  let shutdown t =
    if not t.stopping then begin
      Mutex.lock t.lock;
      t.stopping <- true;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock;
      Array.iter Domain.join t.domains
    end
end

let run ~jobs (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let jobs = min (min jobs n) hard_cap in
  if jobs > 1 && Domain.DLS.get inside_key then
    invalid_arg "Pool.run: nested parallel region (flatten the work into one task array)";
  if jobs <= 1 || n <= 1 then sequential tasks
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    (* Every task runs even if an earlier one failed, so the slot array
       is always fully populated and the re-raised exception (lowest
       failing index, below) is deterministic. *)
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <- (try Done (tasks.(i) ()) with e -> Failed (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let team = Team.create ~members:jobs in
    Fun.protect ~finally:(fun () -> Team.shutdown team) (fun () -> Team.run team (fun _ -> work ()));
    for i = 0 to n - 1 do
      match slots.(i) with
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Done _ | Pending -> ()
    done;
    Array.map (function Done v -> v | Pending | Failed _ -> assert false) slots
  end

let map ~jobs f items =
  Array.to_list (run ~jobs (Array.of_list (List.map (fun x -> fun () -> f x) items)))
