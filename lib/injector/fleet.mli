(** Domain-parallel campaign execution on OCaml 5 domains.

    A fleet is a pool of {!Runner.t}s — the caller's primary runner plus
    extra ones booted on demand — each owned exclusively by one worker
    domain during a run.  Workers claim the next index under the fleet's
    lock (mutex + condition, no external dependencies); the calling
    domain collects results and surfaces them in serial target order, so
    a consumer that emits telemetry or progress from {!run}'s
    [on_result] sees exactly the event sequence of a single-runner run.

    A {!policy} makes each injection survive harness faults the way the
    paper's hardware-watchdog loop survived losing its test machine
    (Figures 2/3): per-injection wall-clock deadlines, retry with
    exponential backoff, and quarantine of persistent offenders as
    {!Outcome.Harness_abort}.  The pool itself is fail-stop: the first
    exception on any domain stops the run.  Surviving a dead or wedged
    worker is the shard supervisor's job ([kfi-campaign --workers N]),
    which can kill a process where OCaml cannot kill a domain. *)

(** One unit of planned work.  Planning (workload choice, oracle
    resolution, journal replay) is serial and machine-independent; items
    carry its results so workers only ever touch their own runner. *)
type item = {
  it_target : Target.t;
  it_workload : int;
  it_predicted : Outcome.t option;
      (** statically resolved by the oracle: never touches a machine *)
  it_done : result option;
      (** completed in a previous run and replayed from the journal:
          never touches a machine either *)
}

and result = {
  res_outcome : Outcome.t;
  res_cycles : int;
      (** simulated cycles of the run (deterministic); 0 for oracle-pruned
          and quarantined targets *)
  res_predicted : bool;
  res_retries : int;
      (** harness retries consumed before this outcome (0 normally) *)
}

(** {2 Harness-fault policy} *)

(** Injected harness faults, for tests and the CI chaos stage. *)
type chaos =
  | Chaos_raise of string  (** the runner raises mid-injection *)
  | Chaos_wedge_ms of int  (** the worker stalls before the injection *)

type policy = {
  deadline_ms : int option;
      (** wall-clock budget per injection attempt, on top of the
          simulated watchdog; [None] = unbounded *)
  retries : int;  (** attempts after the first before quarantining *)
  backoff_ms : float;  (** base of the exponential retry backoff *)
  backoff_cap_ms : float;  (** ceiling on any single backoff delay *)
  backoff_jitter : float;
      (** fractional spread of each delay, in [0, 1): a delay lands
          deterministically in [base * (1 ± jitter)] (see
          {!backoff_delay_ms}) so concurrent retries desynchronize *)
  chaos : (attempt:int -> Target.t -> chaos option) option;
      (** fault-injection hook consulted before every attempt *)
}

val default_policy : policy
(** No deadline, 1 retry, 10 ms backoff base (10 s cap, 0.1 jitter),
    no chaos. *)

val backoff_delay_ms : policy:policy -> attempt:int -> salt:int -> float
(** The delay before retry [attempt] (1-based; [attempt < 1] is 0):
    [backoff_ms * 2^(attempt-1)], spread by a deterministic jitter
    factor in [[1 - backoff_jitter, 1 + backoff_jitter]] hashed from
    [(salt, attempt)], then clamped to [backoff_cap_ms].  Pure — the
    same inputs always give the same delay.  Used by {!run_item_safe}
    between attempts (salted by the target) and by the shard
    supervisor between worker restarts (salted by the worker slot). *)

val run_item_safe : ?policy:policy -> Runner.t -> item -> result
(** Execute one item on the given runner under a {!policy}, or resolve
    it statically / from the journal without touching a machine.  Each
    attempt gets a fresh wall-clock deadline; a deadline miss or runner
    exception is retried with exponential backoff (the second and later
    retries boot a fresh runner); a target still failing after
    [policy.retries] retries is quarantined as {!Outcome.Harness_abort}
    with the last failure reason; a failed attempt never escapes as an
    exception.  The serial campaign path, the fleet's workers and the
    shard workers share this. *)

val ran_on_given_runner : result -> bool
(** For a result of [run_item_safe r it] that ran a machine: whether [r]
    itself produced the outcome, so that [r]'s metrics registry, if it
    has one, recorded it.  False for a quarantine, and for a retry that
    ran on the freshly booted runner. *)

type t
(** A pool of runners.  Runner 0 is the primary (borrowed from the
    caller); the rest were booted by {!create}/{!ensure}. *)

val create : ?jobs:int -> Runner.t -> t
(** [create ~jobs primary] pools [primary] with [jobs - 1] freshly
    booted runners (created concurrently, one domain each). *)

val ensure : t -> jobs:int -> unit
(** Grow the pool to at least [jobs] runners (no-op if already there). *)

val size : t -> int
val primary : t -> Runner.t

val run :
  ?jobs:int ->
  ?policy:policy ->
  ?metrics:Kfi_obs.Metrics.t ->
  ?on_result:(int -> item -> result -> unit) ->
  ?on_complete:(int -> item -> result -> unit) ->
  t ->
  item array ->
  result array
(** Execute every item with {!run_item_safe} on [jobs] worker domains
    (default: the whole pool; clamped to [1 .. size]), each claiming the
    next index in turn.  Every runner in the pool first takes the
    primary's hardening, trace level and backend, even for an empty
    [items].

    [on_complete] is invoked on the {e worker} domain the moment an item
    finishes, in completion order and before the result is stored —
    this is the journal's append hook, so completed work is durable
    before the (ordered) collector gets to it.  [on_result] is invoked
    on the calling domain, in strict index order (0, 1, 2, …) — not
    completion order — and outside the fleet's lock.  The returned
    array is indexed like [items].

    Outcomes are independent of [jobs] and scheduling: runners boot
    deterministically and each injection restores a snapshot.

    Fail-stop: the first exception on any domain ([on_complete] on a
    worker, [on_result] on the collector) stops further claims; every
    worker domain is joined and the exception is re-raised with its
    backtrace.  Items whose [on_complete] already returned are in the
    journal, so a journaled campaign resumes from them.

    [metrics] attaches an observability registry for the run: each
    worker gets a forked child (fed its runner's phase spans plus
    [fleet.items] / [fleet.workerN.items] / [fleet.retries] counters),
    and the fleet itself maintains the [fleet.jobs] and
    [fleet.queue_depth] (unclaimed items) gauges.  Pure observation:
    results are byte-identical with or without it. *)
