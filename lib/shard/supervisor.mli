(** The supervising coordinator: run a campaign across process-isolated
    kfi-worker shards.

    The coordinator plans the campaign exactly as a serial run would,
    splits the targets not yet journaled into shards ({!Plan}), farms
    them out to [kfi-worker] processes over the length-prefixed pipe
    protocol ({!Proto}), and appends every entry they stream to the
    campaign journal as it arrives.  It supervises: a worker that dies
    (crash, SIGKILL, OOM) or goes silent past the heartbeat timeout is
    reaped, its slot restarted with exponential backoff
    ({!Kfi_injector.Fleet.backoff_delay_ms}), and its unacked shard
    requeued exactly once per death, for the next owner to run only
    what is not journaled yet.  A shard that kills [sup_poison_deaths]
    consecutive owners without journaling progress is quarantined: its
    remaining targets are journaled as
    {!Kfi_injector.Outcome.Harness_abort} and the campaign keeps going.

    Determinism: the journal takes each key once, and the whole target
    list is then replayed from it through
    {!Kfi_injector.Experiment.run_targets} with [jobs = 1] — so records,
    CSV, JSONL and progress ticks are byte-identical to an uninterrupted
    serial run regardless of how many workers died or in what order
    shards finished. *)

val run_campaign :
  config:Kfi_injector.Config.t ->
  Kfi_injector.Runner.t ->
  Kfi_profiler.Sampler.profile ->
  Kfi_injector.Target.campaign ->
  Kfi_injector.Experiment.record list
(** Run one campaign under supervision.  [config.supervisor] must be
    [Some _] (raises [Invalid_argument] otherwise); [config.jobs] is
    ignored during the worker phase (parallelism = [sup_workers]) and
    forced to 1 for the final replay.  The record goes to
    [config.journal]; without one, to a temp journal that is deleted
    once the replay has read it, also when the run raises.  [runner] is
    only booted if the supervisor has to fall back to in-process
    execution after exhausting every worker slot's restart budget.
    Raises [Failure] if the kfi-worker binary cannot be located (next to
    the running executable, or at [$KFI_WORKER_EXE]) or a worker acks a
    shard with [Done] before all its targets are journaled. *)

(** {2 The record path}

    How the coordinator keeps the campaign journal, as functions of the
    journal alone, so that a property can drive them without processes.
    A target counts as journaled when the journal holds its key with the
    same workload — the rule by which the serial replay surfaces an
    entry instead of re-running the target. *)

val unjournaled :
  Kfi_injector.Journal.t ->
  Kfi_injector.Target.campaign ->
  (Kfi_injector.Target.t * int) list ->
  (Kfi_injector.Target.t * int) list
(** The (target, workload) pairs not journaled yet, in order: what a
    requeued shard's next owner is assigned. *)

val record : Kfi_injector.Journal.t -> Kfi_injector.Journal.entry -> bool
(** Append a streamed entry unless its target is journaled already (a
    re-run duplicate); [true] if it was appended. *)

val quarantine :
  Kfi_injector.Journal.t ->
  Kfi_injector.Target.campaign ->
  (Kfi_injector.Target.t * int) list ->
  reason:string ->
  deaths:int ->
  int
(** Append a {!Kfi_injector.Outcome.Harness_abort} entry (retries =
    [deaths]) for each of the shard's targets not journaled yet; returns
    how many. *)
