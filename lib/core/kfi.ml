(* kfi — characterization of (simulated) Linux kernel behavior under
   errors.  Reproduction of Gu, Kalbarczyk, Iyer & Yang, DSN 2003.

   This module is the public face of the library; see kfi.mli for the
   documented surface and the typical study. *)

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

(* Re-exports of the most used types *)
module Campaign = struct
  type t = Kfi_injector.Target.campaign = A | B | C | R
end

(* The execution backend, re-exported so CLIs and embedders never reach
   into Kfi_isa directly for it. *)
module Backend = Kfi_isa.Backend

module Config = struct
  include Kfi_injector.Config

  (* Shadow [make] to take the oracle value itself: the pruning hook is
     resolved here, once, instead of at every run entry point.  When both
     an oracle and a metrics registry are given, the oracle's
     classify/slice spans land in the same registry. *)
  let make ?subsample ?seed ?hardening ?oracle ?telemetry ?on_progress ?jobs
      ?journal ?policy ?metrics ?backend ?shards ?supervisor () =
    (match (oracle, metrics) with
     | Some o, Some _ -> Kfi_staticoracle.Oracle.set_metrics o metrics
     | _ -> ());
    Kfi_injector.Config.make ?subsample ?seed ?hardening
      ?oracle:(Option.map Kfi_staticoracle.Oracle.pruner oracle)
      ?telemetry ?on_progress ?jobs ?journal ?policy ?metrics ?backend
      ?shards ?supervisor ()
end

module Study = struct
  type t = {
    runner : Kfi_injector.Runner.t;
    profile : Kfi_profiler.Sampler.profile;
    core : (string * int) list; (* top functions (>= 95% of samples) *)
    mutable fleet : Kfi_injector.Fleet.t option;
        (* lazily booted worker-runner pool, reused across campaigns *)
  }

  (* Boot the kernel, take the baseline snapshot, record golden runs and
     profile the workloads.  Everything an injection study needs. *)
  let prepare ?max_cycles () =
    let runner = Kfi_injector.Runner.create ?max_cycles () in
    let profile =
      Kfi_profiler.Sampler.profile_all
        ~build:(Kfi_injector.Runner.build runner)
        ~machine:(Kfi_injector.Runner.machine runner)
        ~baseline:(Kfi_injector.Runner.baseline runner) ()
    in
    let core = Kfi_profiler.Sampler.top_functions profile ~coverage:0.95 in
    { runner; profile; core; fleet = None }

  let build t = Kfi_injector.Runner.build t.runner

  (* The static mutation oracle over this study's kernel; pass
     [~oracle:(Kfi.Study.make_oracle study)] to [Config.make] to prune
     provably-equivalent targets without running them. *)
  let make_oracle ?interprocedural t =
    Kfi_staticoracle.Oracle.create ?interprocedural (build t)

  let fleet t ~jobs =
    match t.fleet with
    | Some f ->
      Kfi_injector.Fleet.ensure f ~jobs;
      f
    | None ->
      let f = Kfi_injector.Fleet.create ~jobs t.runner in
      t.fleet <- Some f;
      f

  let run_campaign ?(config = Config.default) t campaign =
    match config.Config.supervisor with
    | Some _ ->
      (* process-isolated shards under the supervising coordinator *)
      Kfi_shard.Supervisor.run_campaign ~config t.runner t.profile campaign
    | None ->
      let fleet =
        if config.Config.jobs > 1 then Some (fleet t ~jobs:config.Config.jobs)
        else None
      in
      Kfi_injector.Experiment.run_campaign ~config ?fleet t.runner t.profile
        campaign

  let run_campaigns ?config t () =
    List.concat_map (run_campaign ?config t) [ Campaign.A; Campaign.B; Campaign.C ]

  let report ?oracle ?telemetry t records =
    Kfi_analysis.Report.full ?oracle ?telemetry ~build:(build t) ~profile:t.profile
      ~core:t.core records

  let to_csv = Kfi_injector.Experiment.to_csv
end

(* Convenience: boot and run one workload, returning (exit code, console). *)
let boot_and_run ?(max_cycles = 20_000_000) workload =
  let disk_image = Kfi_fsimage.Mkfs.create (Kfi_workload.Progs.fs_files ()) in
  let wl = Kfi_workload.Progs.index_of workload in
  let m, _ = Kfi_kernel.Build.boot_machine ~workload:wl ~disk_image () in
  let result =
    match Kfi_isa.Machine.run m ~max_cycles with
    | Kfi_isa.Machine.Snapshot_point -> Kfi_isa.Machine.run m ~max_cycles
    | other -> other
  in
  let code =
    match result with
    | Kfi_isa.Machine.Powered_off c -> c
    | _ -> -1
  in
  (code, Kfi_isa.Machine.console_contents m)
