(** kfi — characterization of (simulated) Linux kernel behavior under
    errors.  Reproduction of Gu, Kalbarczyk, Iyer & Yang, DSN 2003.

    This interface is the public face of the library.  A typical study:

    {[
      let study = Kfi.Study.prepare () in
      let config = Kfi.Config.make ~subsample:10 ~jobs:4 () in
      let records = Kfi.Study.run_campaigns ~config study () in
      print_string (Kfi.Study.report study records)
    ]}

    The sub-libraries remain available for finer control:
    - {!Isa}: the IA-32-like machine simulator,
    - {!Asm} / {!Kcc}: assembler and C-like kernel compiler,
    - {!Kernel}: the miniature Linux-like kernel (arch/fs/kernel/mm),
    - {!Fsimage}: mkfs / fsck for the ext2-lite disk format,
    - {!Workload}: the UnixBench-like workload programs,
    - {!Profiler}: kernprof-style PC-sampling profiler,
    - {!Injector}: campaigns, targets, runner, fleet, outcomes,
    - {!Staticoracle}: FastFlip-style mutation pre-classification,
    - {!Trace}: flight-recorder forensics and campaign telemetry,
    - {!Obs}: campaign observability (metrics registry, phase spans,
      streaming snapshot writer — the [kfi-stats] data plane),
    - {!Analysis}: aggregation and table/figure rendering. *)

module Isa = Kfi_isa
module Asm = Kfi_asm
module Kcc = Kfi_kcc
module Kernel = Kfi_kernel
module Fsimage = Kfi_fsimage
module Workload = Kfi_workload
module Profiler = Kfi_profiler
module Injector = Kfi_injector
module Staticoracle = Kfi_staticoracle
module Trace = Kfi_trace
module Obs = Kfi_obs
module Analysis = Kfi_analysis
module Shard = Kfi_shard

(** The paper's campaigns: A (non-branch text), B (branch text bytes),
    C (reversed conditions), plus the register-corruption extension R. *)
module Campaign : sig
  type t = Kfi_injector.Target.campaign = A | B | C | R
end

(** The pluggable execution backend (re-exported from {!Kfi_isa} so
    CLIs and embedders never reach into it directly): [Interp] is the
    reference step interpreter, [Cached] adds dirty-page tracked
    restore and a pre-decoded basic-block engine with byte-identical
    outcomes.  Select one per campaign with {!Config.make}'s
    [~backend], or per runner with [Kfi_injector.Runner.set_backend]. *)
module Backend = Kfi_isa.Backend

(** Campaign run configuration — the single [?config] argument taken by
    every run entry point.  Build one with {!Config.make}, or update
    {!Config.default} with record syntax:
    [{ Kfi.Config.default with subsample = 10; jobs = 4 }]. *)
module Config : sig
  type supervisor = Kfi_injector.Config.supervisor = {
    sup_workers : int;  (** kfi-worker processes to keep alive *)
    sup_shard_dir : string option;
        (** directory for per-shard journals; [None] = a fresh temp dir *)
    sup_worker_exe : string option;
        (** path to the kfi-worker binary; [None] = [$KFI_WORKER_EXE],
            then next to the running executable *)
    sup_worker_env : (string * string) list;
        (** extra environment for workers (chaos knobs in tests/CI) *)
    sup_max_restarts : int;
        (** per-slot restart budget before the slot is retired *)
    sup_poison_deaths : int;
        (** consecutive zero-progress worker deaths before a shard is
            quarantined as [Harness_abort] *)
    sup_heartbeat_s : float;
        (** a worker owning a shard and silent this long is SIGKILLed *)
    sup_event_log : string option;
        (** JSONL supervisor event log (spawns, deaths, requeues,
            quarantines) — volatile, never determinism-gated *)
    sup_on_pulse : (unit -> unit) option;
        (** fires every supervision-loop turn; the CLI's streaming
            metrics {!Kfi_obs.Writer.maybe_tick} rides during the worker
            phase *)
  }

  val default_supervisor : supervisor
  (** [2 workers, temp shard dir, auto-discovered worker exe, no extra
      env, 10 restarts/slot, 3 poison deaths, 120 s heartbeat, no event
      log, no pulse]. *)

  type t = Kfi_injector.Config.t = {
    subsample : int;
        (** keep every k-th target (1 = the full enumeration) *)
    seed : int;  (** fixes the per-byte bit choice *)
    hardening : bool;  (** the Section-7.4 interface assertions *)
    oracle :
      (Kfi_injector.Target.t -> Kfi_injector.Outcome.t option) option;
        (** resolved static-oracle pruning hook; see {!make} *)
    telemetry : Kfi_trace.Telemetry.t option;
        (** receives one JSONL event per target plus campaign markers *)
    on_progress : (done_:int -> total:int -> unit) option;
        (** fires before every target and once more on completion *)
    jobs : int;
        (** worker domains; above 1 campaigns run on a runner fleet with
            records and telemetry byte-identical to a serial run.  The
            fleet stops on the first failure (resume from [journal]);
            [supervisor] is the mode that survives a lost worker *)
    journal : Kfi_injector.Journal.t option;
        (** crash-safe checkpointing: completed injections are appended
            (fsync'd) as they finish; entries loaded by
            [Journal.open_ ~resume:true] are replayed instead of re-run,
            so a killed campaign resumes with byte-identical output *)
    policy : Kfi_injector.Fleet.policy;
        (** per-injection wall-clock deadline and retry/backoff/
            quarantine knobs *)
    metrics : Kfi_obs.Metrics.t option;
        (** observability registry threaded to the runner(s), fleet and
            journal (phase spans, throughput counters, fsync stalls).
            Pure observation: records, CSV, telemetry JSONL and journal
            bytes are identical with or without it, at any job count *)
    backend : Kfi_isa.Backend.kind;
        (** execution backend for the runner(s) ({!Backend.Interp} by
            default); {!Backend.Cached} is byte-identical in every
            outcome and artifact, only faster *)
    shards : int;
        (** shard count for supervised runs (0 = [4 * sup_workers]);
            ignored without [supervisor] *)
    supervisor : supervisor option;
        (** run campaigns as process-isolated shards executed by
            kfi-worker processes under a supervising coordinator
            ({!Shard.Supervisor}): worker death is survived by
            restart-with-backoff and exactly-once shard requeue, and the
            merged output is byte-identical to a serial run *)
  }

  val default : t
  (** [subsample 1, seed 42, no hardening/oracle/telemetry/progress/
      journal, jobs 1, Fleet.default_policy, backend Interp, shards 0,
      no supervisor]. *)

  val make :
    ?subsample:int ->
    ?seed:int ->
    ?hardening:bool ->
    ?oracle:Kfi_staticoracle.Oracle.t ->
    ?telemetry:Kfi_trace.Telemetry.t ->
    ?on_progress:(done_:int -> total:int -> unit) ->
    ?jobs:int ->
    ?journal:Kfi_injector.Journal.t ->
    ?policy:Kfi_injector.Fleet.policy ->
    ?metrics:Kfi_obs.Metrics.t ->
    ?backend:Kfi_isa.Backend.kind ->
    ?shards:int ->
    ?supervisor:supervisor ->
    unit ->
    t
  (** {!default} with the given fields replaced.  [oracle] takes the
      oracle value itself (e.g. {!Study.make_oracle}) and resolves its
      pruning hook here, once; given both [oracle] and [metrics], the
      oracle is attached to the registry
      ([Kfi_staticoracle.Oracle.set_metrics]) so its classify/slice
      spans land alongside the campaign's. *)
end

(** Prepared injection study: booted kernel, golden runs, profile. *)
module Study : sig
  type t = {
    runner : Kfi_injector.Runner.t;
    profile : Kfi_profiler.Sampler.profile;
    core : (string * int) list;
        (** top functions (>= 95% of kernel samples) *)
    mutable fleet : Kfi_injector.Fleet.t option;
        (** lazily booted worker-runner pool, reused across campaigns *)
  }

  val prepare : ?max_cycles:int -> unit -> t
  (** Boot the kernel, take the baseline snapshot, record golden runs
      and profile the workloads — everything an injection study needs. *)

  val build : t -> Kfi_kernel.Build.t

  val make_oracle : ?interprocedural:bool -> t -> Kfi_staticoracle.Oracle.t
  (** The static mutation oracle over this study's kernel; pass it to
      {!Config.make} to prune provably-equivalent targets without
      running them.  [interprocedural] (default true) enables the
      whole-kernel call graph and section summaries — strictly more
      provable equivalences; [false] is the per-function baseline. *)

  val fleet : t -> jobs:int -> Kfi_injector.Fleet.t
  (** The study's worker-runner pool, booted (or grown) to [jobs]
      runners.  Runs with [config.jobs > 1] use it implicitly; call this
      beforehand to pay the boot cost at a chosen time. *)

  val run_campaign :
    ?config:Config.t -> t -> Campaign.t -> Kfi_injector.Experiment.record list
  (** Run one campaign under [config] (default {!Config.default}). *)

  val run_campaigns :
    ?config:Config.t -> t -> unit -> Kfi_injector.Experiment.record list
  (** Campaigns A, B and C in sequence. *)

  val report :
    ?oracle:Kfi_staticoracle.Oracle.t ->
    ?telemetry:Kfi_trace.Telemetry.t ->
    t ->
    Kfi_injector.Experiment.record list ->
    string
  (** Every table and figure over the records; [oracle] adds the
      predicted-vs-observed confusion matrix, [telemetry] the campaign
      telemetry summary. *)

  val to_csv : Kfi_injector.Experiment.record list -> string
end

val boot_and_run : ?max_cycles:int -> string -> int * string
(** Boot and run one workload by name, returning (exit code, console). *)
