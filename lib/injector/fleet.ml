(* Domain-parallel campaign execution.

   A fleet is a pool of runners: the caller's primary runner plus extra
   ones booted on demand, each owned exclusively by one worker domain
   during a run (own machine, own snapshots, own golden runs — nothing
   shared mutably).  Workers claim the next index under the fleet lock;
   the calling domain is the collector, surfacing each result exactly
   once and in serial target order, so telemetry events and progress
   ticks come out in the same order (and with the same sequence numbers)
   as a single-runner run.

   Everything here is plain OCaml 5 stdlib: Domain, Mutex, Condition —
   no external dependencies.  Determinism falls out of the design: a
   runner's behavior depends only on its (deterministic) boot, each
   injection restores a snapshot before running, and planning (target
   enumeration, workload choice, oracle resolution) happened serially
   before the fleet is involved.

   Robustness (the paper's harness ran >35,000 injections under a
   hardware watchdog that survived losing the machine under test —
   Figures 2/3): a [policy] adds a wall-clock deadline per injection,
   retry with exponential backoff on a fresh runner, and quarantine of
   persistent offenders as [Outcome.Harness_abort] instead of killing
   the campaign.  The pool itself is fail-stop: OCaml cannot kill a
   domain, so a lost worker is not recovered here.  The first exception
   on any domain stops the run; completed items are already journaled,
   and the process-level shard supervisor is where a dead or wedged
   worker is survived. *)

(* ----- work items and results ----- *)

type item = {
  it_target : Target.t;
  it_workload : int;
  it_predicted : Outcome.t option;
      (* statically resolved by the oracle: never touches a machine *)
  it_done : result option;
      (* already completed in a previous run (journal replay): never
         touches a machine either, the recorded result is surfaced *)
}

and result = {
  res_outcome : Outcome.t;
  res_cycles : int; (* simulated cycles of the run; 0 if nothing ran *)
  res_predicted : bool;
  res_retries : int; (* harness retries consumed before this outcome *)
}

(* ----- harness-fault policy ----- *)

type chaos =
  | Chaos_raise of string (* the runner raises mid-injection *)
  | Chaos_wedge_ms of int (* the worker stalls before the injection *)

type policy = {
  deadline_ms : int option;
  retries : int;
  backoff_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
  chaos : (attempt:int -> Target.t -> chaos option) option;
}

let default_policy =
  {
    deadline_ms = None;
    retries = 1;
    backoff_ms = 10.;
    backoff_cap_ms = 10_000.;
    backoff_jitter = 0.1;
    chaos = None;
  }

(* Deterministic backoff: base * 2^(attempt-1), spread by a jitter
   factor in [1 - j, 1 + j] derived from a hash of (salt, attempt) so
   retries of different targets (and restarts of different worker
   slots) desynchronize without any global randomness, then clamped to
   the cap.  Pure — unit-testable without sleeping. *)
let backoff_delay_ms ~policy ~attempt ~salt =
  if attempt < 1 then 0.
  else begin
    let base = policy.backoff_ms *. (2. ** float_of_int (attempt - 1)) in
    let j = Float.max 0. (Float.min 0.999 policy.backoff_jitter) in
    let spread =
      if j = 0. then 1.
      else begin
        (* murmur-style integer finalizer over the pair *)
        let h = ref ((salt * 0x9E3779B9) lxor (attempt * 0x85EBCA6B)) in
        h := (!h lxor (!h lsr 16)) * 0x45D9F3B;
        h := (!h lxor (!h lsr 16)) * 0x45D9F3B;
        h := !h lxor (!h lsr 16);
        let u = float_of_int (!h land 0xFFFFF) /. float_of_int 0xFFFFF in
        1. -. j +. (2. *. j *. u)
      end
    in
    Float.min policy.backoff_cap_ms (base *. spread)
  end

let describe_exn = function
  | Runner.Deadline_exceeded _ -> "deadline exceeded"
  | Failure m -> m
  | e -> Printexc.to_string e

let quarantine ~reason ~retries =
  {
    res_outcome = Outcome.Harness_abort { ha_reason = reason; ha_retries = retries };
    res_cycles = 0;
    res_predicted = false;
    res_retries = retries;
  }

(* ----- the runner pool ----- *)

type t = { mutable runners : Runner.t array }

let primary t = t.runners.(0)

let size t = Array.length t.runners

let boot_like (r : Runner.t) =
  let r' = Runner.create ~max_cycles:(Runner.max_cycles r) () in
  Runner.set_hardening r' (Runner.hardening r);
  Runner.set_trace_level r' (Runner.trace_level r);
  Runner.set_backend r' (Runner.backend_kind r);
  r'

let ensure t ~jobs =
  let missing = jobs - size t in
  if missing > 0 then begin
    (* the kernel image cache is already warm (the primary runner built
       it), so concurrent boots share the assembled build *)
    let max_cycles = Runner.max_cycles (primary t) in
    let spawned =
      Array.init missing (fun _ ->
          Domain.spawn (fun () -> Runner.create ~max_cycles ()))
    in
    t.runners <- Array.append t.runners (Array.map Domain.join spawned)
  end

let create ?(jobs = 1) primary =
  let t = { runners = [| primary |] } in
  ensure t ~jobs;
  t

(* ----- running one item ----- *)

(* One attempt under the policy: the deadline clock starts before the
   chaos hook so an injected wedge counts against it. *)
let run_attempt ~policy ~attempt (r : Runner.t) it =
  let deadline =
    Option.map
      (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      policy.deadline_ms
  in
  (match policy.chaos with
   | None -> ()
   | Some f -> (
     match f ~attempt it.it_target with
     | None -> ()
     | Some (Chaos_wedge_ms ms) -> Unix.sleepf (float_of_int ms /. 1000.)
     | Some (Chaos_raise msg) -> failwith msg));
  (match deadline with
   | Some d when Unix.gettimeofday () > d ->
     (* wedged before the machine even started *)
     raise (Runner.Deadline_exceeded d)
   | _ -> ());
  let o = Runner.run_one ?deadline r ~workload:it.it_workload it.it_target in
  {
    res_outcome = o;
    res_cycles = Runner.last_cycles r;
    res_predicted = false;
    res_retries = attempt;
  }

(* the first attempt that suspects the caller's runner and boots a
   fresh one *)
let fresh_runner_attempt = 2

let ran_on_given_runner res =
  res.res_retries < fresh_runner_attempt
  && match res.res_outcome with Outcome.Harness_abort _ -> false | _ -> true

let run_item_safe ?(policy = default_policy) (r : Runner.t) it =
  match it.it_done with
  | Some res -> res
  | None -> (
    match it.it_predicted with
    | Some o ->
      {
        res_outcome = o;
        res_cycles = 0;
        res_predicted = true;
        res_retries = 0;
      }
    | None ->
      (* attempt 0 and the first retry reuse [r] (every injection
         restores a snapshot, so a failed attempt leaves no residue);
         later retries suspect the runner itself and boot a fresh one *)
      let fresh = ref None in
      let runner_for attempt =
        if attempt < fresh_runner_attempt then r
        else
          match !fresh with
          | Some r' -> r'
          | None ->
            let r' = boot_like r in
            fresh := Some r';
            r'
      in
      let rec go attempt last_reason =
        if attempt > policy.retries then
          quarantine ~reason:last_reason ~retries:policy.retries
        else begin
          if attempt > 0 then
            Unix.sleepf
              (backoff_delay_ms ~policy ~attempt
                 ~salt:(Hashtbl.hash (it.it_target.Target.t_fn,
                                      it.it_target.Target.t_byte,
                                      it.it_target.Target.t_bit))
               /. 1000.);
          match run_attempt ~policy ~attempt (runner_for attempt) it with
          | res -> res
          | exception e -> go (attempt + 1) (describe_exn e)
        end
      in
      go 0 "")

(* ----- a run ----- *)

let run ?jobs ?(policy = default_policy) ?metrics ?on_result ?on_complete t
    items =
  let n = Array.length items in
  let jobs =
    let cap = Option.value jobs ~default:(size t) in
    max 1 (min cap (size t))
  in
  let lead = primary t in
  (* every worker runs with the primary's current modes *)
  Array.iter
    (fun r ->
      Runner.set_hardening r (Runner.hardening lead);
      Runner.set_trace_level r (Runner.trace_level lead);
      Runner.set_backend r (Runner.backend_kind lead))
    t.runners;
  let results = Array.make n None in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let next = ref 0 in (* the first unclaimed index *)
  let failure = ref None in (* the first exception on any domain *)
  (match metrics with
   | Some m ->
     Kfi_obs.Metrics.set_gauge m "fleet.jobs" (float_of_int jobs);
     Kfi_obs.Metrics.set_gauge m "fleet.queue_depth" (float_of_int n)
   | None -> ());
  (* keep the first failure (the one re-raised) and wake the collector *)
  let fail e bt =
    Mutex.protect lock (fun () ->
        if Option.is_none !failure then failure := Some (e, bt);
        Condition.broadcast cond)
  in
  let claim () =
    Mutex.protect lock (fun () ->
        if Option.is_some !failure || !next >= n then None
        else begin
          let i = !next in
          next := i + 1;
          (match metrics with
           | Some m ->
             (* unclaimed indexes left (single writer: the fleet lock) *)
             Kfi_obs.Metrics.set_gauge m "fleet.queue_depth"
               (float_of_int (n - !next))
           | None -> ());
          Some i
        end)
  in
  let worker i obs () =
    let r = t.runners.(i) in
    let items_key = Printf.sprintf "fleet.worker%d.items" i in
    let rec loop () =
      match claim () with
      | None -> ()
      | Some idx ->
        let res = run_item_safe ~policy r items.(idx) in
        (match obs with
         | Some mm ->
           Kfi_obs.Metrics.incr mm "fleet.items";
           Kfi_obs.Metrics.incr mm items_key;
           if res.res_retries > 0 then
             Kfi_obs.Metrics.incr mm ~by:res.res_retries "fleet.retries"
         | None -> ());
        (match on_complete with Some f -> f idx items.(idx) res | None -> ());
        Mutex.protect lock (fun () ->
            results.(idx) <- Some res;
            Condition.broadcast cond);
        loop ()
    in
    try loop () with e -> fail e (Printexc.get_raw_backtrace ())
  in
  let domains =
    Array.init jobs (fun i ->
        let obs =
          Option.map
            (fun m -> Kfi_obs.Metrics.fork m ~name:(Printf.sprintf "worker%d" i))
            metrics
        in
        (* the runner records its phase spans into this worker's leaf
           registry; [None] also clears a registry left by a prior run *)
        Runner.set_metrics t.runners.(i) obs;
        Domain.spawn (worker i obs))
  in
  (* collect in serial order: [on_result] fires for index i only once
     0..i-1 have fired, from this domain, outside the lock; [None] once
     any domain has failed *)
  let await i =
    Mutex.protect lock (fun () ->
        let rec wait () =
          match (!failure, results.(i)) with
          | Some _, _ -> None
          | None, Some res -> Some res
          | None, None ->
            Condition.wait cond lock;
            wait ()
        in
        wait ())
  in
  let rec collect i =
    if i < n then
      match await i with
      | None -> ()
      | Some res ->
        (match on_result with Some f -> f i items.(i) res | None -> ());
        collect (i + 1)
  in
  (try collect 0 with e -> fail e (Printexc.get_raw_backtrace ()));
  Array.iter Domain.join domains;
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map Option.get results
