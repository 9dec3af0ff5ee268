(** The supervising coordinator: run a campaign across process-isolated
    kfi-worker shards.

    The coordinator plans the campaign exactly as a serial run would,
    splits the not-yet-done targets into content-addressed shards
    ({!Plan}), farms them out to [kfi-worker] processes over the
    length-prefixed pipe protocol ({!Proto}), and supervises: a worker
    that dies (crash, SIGKILL, OOM) or goes silent past the heartbeat
    timeout is reaped, its slot restarted with exponential backoff
    ({!Kfi_injector.Fleet.backoff_delay_ms}), and its unacked shard
    requeued exactly once per death.  A shard that kills
    [sup_poison_deaths] consecutive owners without journaling progress
    is quarantined: its remaining targets are synthesized as
    {!Kfi_injector.Outcome.Harness_abort} and the campaign keeps going.

    Determinism: per-shard journals are merged into the campaign journal
    in serial planned order, then the whole target list is replayed
    through {!Kfi_injector.Experiment.run_targets} with [jobs = 1] — so
    records, CSV, JSONL and progress ticks are byte-identical to an
    uninterrupted serial run regardless of how many workers died or in
    what order shards finished. *)

val run_campaign :
  config:Kfi_injector.Config.t ->
  Kfi_injector.Runner.t ->
  Kfi_profiler.Sampler.profile ->
  Kfi_injector.Target.campaign ->
  Kfi_injector.Experiment.record list
(** Run one campaign under supervision.  [config.supervisor] must be
    [Some _] (raises [Invalid_argument] otherwise); [config.jobs] is
    ignored during the worker phase (parallelism = [sup_workers]) and
    forced to 1 for the final replay.  [runner] is only booted if the
    supervisor has to fall back to in-process execution after exhausting
    every worker slot's restart budget.  Raises [Failure] if the
    kfi-worker binary cannot be located (next to the running executable,
    or at [$KFI_WORKER_EXE]) and {!Kfi_injector.Journal.Corrupt} if a shard
    journal is corrupt mid-file. *)
