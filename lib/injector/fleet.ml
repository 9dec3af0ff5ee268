(* Domain-parallel campaign execution.

   A fleet is a pool of runners: the caller's primary runner plus extra
   ones booted on demand, each owned exclusively by one worker domain
   during a run (own machine, own snapshots, own golden runs — nothing
   shared mutably).  Workers claim index ranges from a shared chunk
   queue; the calling domain is the collector, surfacing each result
   exactly once and in serial target order, so telemetry events and
   progress ticks come out in the same order (and with the same sequence
   numbers) as a single-runner run.

   Everything here is plain OCaml 5 stdlib: Domain, Mutex, Condition,
   Atomic — no external dependencies.  Determinism falls out of the
   design: a runner's behavior depends only on its (deterministic) boot,
   each injection restores a snapshot before running, and planning
   (target enumeration, workload choice, oracle resolution) happened
   serially before the fleet is involved.

   Robustness (the paper's harness ran >35,000 injections under a
   hardware watchdog that survived losing the machine under test —
   Figures 2/3): a [policy] adds a wall-clock deadline per injection,
   retry with exponential backoff on a fresh runner, and quarantine of
   persistent offenders as [Outcome.Harness_abort] instead of killing
   the campaign.  The fleet itself degrades instead of dying: a worker
   domain that raises or stops heartbeating has its claimed-but-
   unfinished range requeued exactly once, the pool shrinks, and the run
   completes at reduced parallelism (down to the collector finishing the
   tail inline if every worker is lost). *)

(* ----- the work queue ----- *)

module Chunks = struct
  type t = {
    total : int;
    chunk : int;
    mutable next : int;
    lock : Mutex.t;
  }

  let create ?(chunk = 1) total =
    if chunk < 1 then invalid_arg "Fleet.Chunks.create: chunk must be >= 1";
    if total < 0 then invalid_arg "Fleet.Chunks.create: negative total";
    { total; chunk; next = 0; lock = Mutex.create () }

  let claim t =
    Mutex.protect t.lock (fun () ->
        if t.next >= t.total then None
        else begin
          let lo = t.next in
          let hi = min t.total (lo + t.chunk) in
          t.next <- hi;
          Some (lo, hi)
        end)
end

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
  | Chaos_kill of string (* the whole worker domain dies *)

type policy = {
  deadline_ms : int option;
  retries : int;
  backoff_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
  heartbeat_s : float;
  chaos : (attempt:int -> Target.t -> chaos option) option;
}

let default_policy =
  {
    deadline_ms = None;
    retries = 1;
    backoff_ms = 10.;
    backoff_cap_ms = 10_000.;
    backoff_jitter = 0.1;
    (* far above any single injection's wall time, so heartbeat monitoring
       never false-positives on a normal run *)
    heartbeat_s = 30.;
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

exception Worker_killed of string

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

let run_item (r : Runner.t) it =
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
      let o = Runner.run_one r ~workload:it.it_workload it.it_target in
      {
        res_outcome = o;
        res_cycles = Runner.last_cycles r;
        res_predicted = false;
        res_retries = 0;
      })

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
     | Some (Chaos_raise msg) -> failwith msg
     | Some (Chaos_kill msg) -> raise (Worker_killed msg)));
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
          | exception (Worker_killed _ as e) ->
            (* not a per-injection fault: the worker itself is dying *)
            raise e
          | exception e -> go (attempt + 1) (describe_exn e)
        end
      in
      go 0 "")

(* ----- a run ----- *)

(* A claimable index range; [r_retried] marks a range already requeued
   once from a dead worker — if it kills a second worker, the remainder
   is quarantined rather than requeued again. *)
type range = { r_lo : int; r_hi : int; r_retried : bool }

type slot = {
  s_runner : Runner.t;
  s_obs : Kfi_obs.Metrics.t option;
      (* this worker's forked child registry (contention-free updates;
         merged back into the parent by [Metrics.snapshot]) *)
  s_items_key : string; (* per-worker throughput counter name *)
  mutable s_beat : float; (* last heartbeat (claim / item completion) *)
  mutable s_range : range option; (* currently claimed range *)
  mutable s_next : int; (* first incomplete index of that range *)
  mutable s_dead : bool; (* raised, or declared wedged by the collector *)
  mutable s_exited : bool; (* the domain function actually returned *)
}

let run ?jobs ?(chunk = 1) ?(policy = default_policy) ?metrics ?on_result
    ?on_complete ?on_degraded t items =
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
  let queue = Chunks.create ~chunk n in
  let stop = Atomic.make false in (* collector failed: abort the run *)
  let finished = Atomic.make false in (* run over: the ticker exits *)
  let requeue = ref [] in (* ranges orphaned by dead workers *)
  let degraded = ref [] in (* pending degradation notices, newest first *)
  (match metrics with
   | Some m ->
     Kfi_obs.Metrics.set_gauge m "fleet.jobs" (float_of_int jobs);
     Kfi_obs.Metrics.set_gauge m "fleet.queue_depth" (float_of_int n)
   | None -> ());
  let slots =
    Array.init jobs (fun i ->
        let s_obs =
          Option.map
            (fun m ->
              Kfi_obs.Metrics.fork m ~name:(Printf.sprintf "worker%d" i))
            metrics
        in
        (* workers record their runner's phase spans into their own leaf
           registry; [None] also clears a registry left by a prior run *)
        Runner.set_metrics t.runners.(i) s_obs;
        {
          s_runner = t.runners.(i);
          s_obs;
          s_items_key = Printf.sprintf "fleet.worker%d.items" i;
          s_beat = Unix.gettimeofday ();
          s_range = None;
          s_next = 0;
          s_dead = false;
          s_exited = false;
        })
  in
  let live_slots () =
    Array.fold_left (fun a s -> if s.s_dead then a else a + 1) 0 slots
  in
  (* workers still able to pick up (requeued) work: alive and not yet
     exited — a worker that drained the queue and returned cannot rescue
     a range orphaned after its exit *)
  let active_slots () =
    Array.fold_left
      (fun a s -> if s.s_dead || s.s_exited then a else a + 1)
      0 slots
  in
  (* Declare [slot] lost (under [lock]): requeue its unfinished range
     exactly once — a range that already went through a requeue
     quarantines instead, guaranteeing progress even under repeated
     worker deaths — and queue a degradation notice for the collector. *)
  let abandon slot ~reason =
    slot.s_dead <- true;
    (match metrics with
     | Some m ->
       Kfi_obs.Metrics.incr m "fleet.degraded";
       (match slot.s_range with
        | Some rg when slot.s_next < rg.r_hi ->
          Kfi_obs.Metrics.incr m ~by:(rg.r_hi - slot.s_next) "fleet.requeued"
        | _ -> ())
     | None -> ());
    (match slot.s_range with
     | Some rg when slot.s_next < rg.r_hi ->
       if rg.r_retried then
         for i = slot.s_next to rg.r_hi - 1 do
           if results.(i) = None then
             results.(i) <-
               Some
                 (quarantine
                    ~reason:(reason ^ " (chunk already requeued once)")
                    ~retries:1)
         done
       else
         requeue :=
           { r_lo = slot.s_next; r_hi = rg.r_hi; r_retried = true } :: !requeue
     | _ -> ());
    slot.s_range <- None;
    degraded := (reason, live_slots ()) :: !degraded;
    Condition.broadcast cond
  in
  (* under [lock] *)
  let take_work slot =
    if Atomic.get stop || slot.s_dead then None
    else begin
      let rg =
        match !requeue with
        | rg :: rest ->
          requeue := rest;
          Some rg
        | [] -> (
          match Chunks.claim queue with
          | Some (lo, hi) -> Some { r_lo = lo; r_hi = hi; r_retried = false }
          | None -> None)
      in
      (match rg with
       | Some rg ->
         slot.s_range <- Some rg;
         slot.s_next <- rg.r_lo;
         slot.s_beat <- Unix.gettimeofday ()
       | None -> ());
      (match metrics with
       | Some m ->
         (* unclaimed indexes still in the chunk queue (current depth:
            only this, single-writer parent gauge) *)
         Kfi_obs.Metrics.set_gauge m "fleet.queue_depth"
           (float_of_int (queue.Chunks.total - queue.Chunks.next))
       | None -> ());
      rg
    end
  in
  let worker slot () =
    let r = slot.s_runner in
    (try
       let rec loop () =
         match Mutex.protect lock (fun () -> take_work slot) with
         | None -> ()
         | Some rg ->
           let undead = ref false in
           let i = ref rg.r_lo in
           while (not !undead) && !i < rg.r_hi do
             let idx = !i in
             let res = run_item_safe ~policy r items.(idx) in
             (match slot.s_obs with
              | Some mm ->
                Kfi_obs.Metrics.incr mm "fleet.items";
                Kfi_obs.Metrics.incr mm slot.s_items_key;
                if res.res_retries > 0 then
                  Kfi_obs.Metrics.incr mm ~by:res.res_retries "fleet.retries"
              | None -> ());
             (match on_complete with
              | Some f -> f idx items.(idx) res
              | None -> ());
             Mutex.protect lock (fun () ->
                 (* store even if we were declared wedged meanwhile: the
                    result is deterministic, so it matches whatever a
                    rescuer computes for the same index *)
                 if results.(idx) = None then results.(idx) <- Some res;
                 if slot.s_dead then undead := true
                 else begin
                   slot.s_next <- idx + 1;
                   slot.s_beat <- Unix.gettimeofday ()
                 end;
                 Condition.broadcast cond);
             incr i
           done;
           if not !undead then begin
             Mutex.protect lock (fun () -> slot.s_range <- None);
             loop ()
           end
       in
       loop ()
     with e ->
       let reason = Printf.sprintf "worker died: %s" (describe_exn e) in
       Mutex.protect lock (fun () -> abandon slot ~reason));
    Mutex.protect lock (fun () ->
        slot.s_exited <- true;
        Condition.broadcast cond)
  in
  (* the stdlib [Condition] has no timed wait, so a ticker domain wakes
     the collector periodically to run heartbeat checks *)
  let ticker =
    Domain.spawn (fun () ->
        while not (Atomic.get finished) do
          Unix.sleepf 0.02;
          Mutex.protect lock (fun () -> Condition.broadcast cond)
        done)
  in
  let domains =
    Array.map (fun slot -> (slot, Domain.spawn (worker slot))) slots
  in
  (* under [lock]: declare wedged any worker silent past the heartbeat
     budget while holding a claimed range *)
  let check_heartbeats () =
    let now = Unix.gettimeofday () in
    (match metrics with
     | Some m ->
       let age =
         Array.fold_left
           (fun a s ->
             if s.s_dead || s.s_exited then a else Float.max a (now -. s.s_beat))
           0. slots
       in
       Kfi_obs.Metrics.set_gauge m "fleet.heartbeat_age_max" age
     | None -> ());
    Array.iter
      (fun slot ->
        if
          (not slot.s_dead)
          && (not slot.s_exited)
          && slot.s_range <> None
          && now -. slot.s_beat > policy.heartbeat_s
        then
          abandon slot
            ~reason:
              (* the configured budget, not the measured silence: the
                 reason can end up in a quarantined record's CSV row *)
              (Printf.sprintf "worker wedged: no heartbeat for %.2fs"
                 policy.heartbeat_s))
      slots
  in
  let drain_degraded () =
    let evs =
      Mutex.protect lock (fun () ->
          let d = List.rev !degraded in
          degraded := [];
          d)
    in
    match on_degraded with
    | Some f -> List.iter (fun (reason, jobs_left) -> f ~reason ~jobs_left) evs
    | None -> ()
  in
  (* Last-resort rescue: every worker is gone, the collector finishes the
     remaining work inline.  Prefer the runner of a worker whose domain
     actually returned (exclusively ours again); if all are wedged
     mid-machine, boot a fresh one. *)
  let rescue = ref None in
  let rescue_fresh = ref false in
  let rescue_runner () =
    match !rescue with
    | Some r -> r
    | None ->
      let r =
        match
          Mutex.protect lock (fun () ->
              Array.find_opt (fun s -> s.s_exited) slots)
        with
        | Some s -> s.s_runner
        | None ->
          rescue_fresh := true;
          boot_like lead
      in
      rescue := Some r;
      r
  in
  let run_inline () =
    let r = rescue_runner () in
    let rec drain () =
      let rg =
        Mutex.protect lock (fun () ->
            match !requeue with
            | rg :: rest ->
              requeue := rest;
              Some rg
            | [] -> (
              match Chunks.claim queue with
              | Some (lo, hi) -> Some { r_lo = lo; r_hi = hi; r_retried = false }
              | None -> None))
      in
      match rg with
      | None -> ()
      | Some rg ->
        for i = rg.r_lo to rg.r_hi - 1 do
          if Mutex.protect lock (fun () -> results.(i) = None) then begin
            let res =
              match run_item_safe ~policy r items.(i) with
              | res -> res
              | exception Worker_killed msg ->
                (* no domain to kill here: quarantine instead *)
                quarantine ~reason:("worker killed: " ^ msg) ~retries:0
            in
            (match on_complete with Some f -> f i items.(i) res | None -> ());
            Mutex.protect lock (fun () ->
                if results.(i) = None then results.(i) <- Some res)
          end
        done;
        drain ()
    in
    drain ()
  in
  (* collect in serial order: [on_result] fires for index i only once
     0..i-1 have fired, from this domain, outside the lock *)
  let emitted = ref 0 in
  let next () =
    Mutex.protect lock (fun () ->
        let rec wait () =
          check_heartbeats ();
          match results.(!emitted) with
          | Some r -> `Res r
          | None ->
            if active_slots () = 0 then `All_dead
            else begin
              Condition.wait cond lock;
              wait ()
            end
        in
        wait ())
  in
  let join_all () =
    Array.iter
      (fun (slot, d) ->
        (* a wedged domain may never return: abandon it unjoined *)
        let wedged =
          Mutex.protect lock (fun () -> slot.s_dead && not slot.s_exited)
        in
        if not wedged then Domain.join d)
      domains;
    Atomic.set finished true;
    Domain.join ticker
  in
  (try
     while !emitted < n do
       drain_degraded ();
       match next () with
       | `Res res ->
         (match on_result with
          | Some f -> f !emitted items.(!emitted) res
          | None -> ());
         incr emitted
       | `All_dead -> run_inline ()
     done;
     drain_degraded ()
   with e ->
     (* the collector callback failed: stop the workers before re-raising *)
     Atomic.set stop true;
     join_all ();
     raise e);
  join_all ();
  (* degraded mode shrinks the pool: drop the runners of dead workers
     (a wedged domain may still own its machine).  The primary is the
     caller's and always stays; a freshly booted rescue runner joins the
     pool in its stead.  [ensure] re-grows the pool on the next run. *)
  if Array.exists (fun s -> s.s_dead) slots then begin
    let keep = ref [] in
    Array.iteri
      (fun i r ->
        if i = 0 || i >= jobs || not slots.(i).s_dead then keep := r :: !keep)
      t.runners;
    (match !rescue with
     | Some r when !rescue_fresh -> keep := r :: !keep
     | _ -> ());
    t.runners <- Array.of_list (List.rev !keep)
  end;
  Array.map (function Some r -> r | None -> assert false) results
