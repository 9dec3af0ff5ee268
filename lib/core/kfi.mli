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
    every run entry point.  Its types and values are
    {!Kfi_injector.Config}'s, documented there, except {!make}, which
    takes the oracle itself.  Build one with {!Config.make}, or update
    {!Config.default} with record syntax:
    [{ Kfi.Config.default with subsample = 10; jobs = 4 }]. *)
module Config : sig
  include module type of struct
    include Kfi_injector.Config
  end

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
  (** Campaigns A, B and C in sequence, each through {!run_campaign}.
      A shared [config.journal] keeps the three campaigns' entries apart
      by campaign letter. *)

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
