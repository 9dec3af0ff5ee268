(** Campaign orchestration: select target functions from the profile
    (the paper's "top functions = 95% of samples" rule, widened per
    campaign), enumerate targets, run them, export results. *)

type record = {
  r_campaign : Target.campaign;
  r_target : Target.t;
  r_workload : int; (** index into {!Kfi_workload.Progs.names} *)
  r_outcome : Outcome.t;
  r_predicted : bool;
      (** the outcome came from the static oracle (the target was pruned
          as provably equivalent), not from a real run *)
  r_retries : int;
      (** harness retries consumed before the outcome: 0 normally, > 0
          after recovered deadline misses / runner faults, and the full
          retry budget on a quarantined {!Outcome.Harness_abort} *)
}

val injectable_subsystems : string list
(** The paper's four target subsystems: arch, fs, kernel, mm. *)

val campaign_functions :
  Runner.t -> Kfi_profiler.Sampler.profile -> Target.campaign -> string list
(** The function set of a campaign: branch campaigns reach beyond the
    core set to find enough conditional branches, as in the paper. *)

val workload_for : Kfi_profiler.Sampler.profile -> Target.t -> int
(** The driving workload for a target: half profile-matched, half
    pseudo-random (approximating whole-suite activity). *)

val plan :
  ?config:Config.t ->
  Runner.t ->
  Kfi_profiler.Sampler.profile ->
  Target.campaign ->
  Target.t list
(** The deterministic planning half of {!run_campaign}: enumerate the
    campaign's targets and subsample them under [config] — exactly the
    list {!run_campaign} would execute.  The shard supervisor splits
    this list; [run_targets ~config ... (plan ~config ...)] is
    {!run_campaign}. *)

val run_targets :
  ?config:Config.t ->
  ?fleet:Fleet.t ->
  Runner.t ->
  Kfi_profiler.Sampler.profile ->
  Target.campaign ->
  Target.t list ->
  record list
(** Run an already-enumerated target list under [config] —
    {!run_campaign} minus enumeration and subsampling.  For embedders
    that shard or filter the enumeration themselves, and for tests that
    need edge-case lists: on an empty list the progress callback fires
    exactly once ([~done_:0 ~total:0], the completion tick) and the
    telemetry stream still carries its campaign_start/campaign_end
    pair. *)

val run_campaign :
  ?config:Config.t ->
  ?fleet:Fleet.t ->
  Runner.t ->
  Kfi_profiler.Sampler.profile ->
  Target.campaign ->
  record list
(** Run one campaign under [config] (default {!Config.default}; see
    {!Config.t} for what each knob does).  With [config.jobs > 1] the
    targets run on a {!Fleet} of worker domains — [fleet] supplies a
    pre-booted pool to reuse across campaigns (its primary must be
    [runner]; it is grown to [jobs] runners if smaller), otherwise a
    temporary pool is booted.  Whatever [jobs] is, the returned records,
    the telemetry event stream and the progress ticks are identical to a
    serial run with the same seed: planning is serial, runners boot
    deterministically, and results are collected back into serial target
    order.

    With [config.journal] set, every completed injection is appended to
    the journal (fsync'd, in completion order, before the ordered
    collector sees it), and targets already present in the journal are
    replayed instead of re-run — so a campaign killed at any point and
    restarted over a [Journal.open_ ~resume:true] handle produces
    byte-identical records, CSV, progress ticks and telemetry.
    [config.policy] adds per-injection wall-clock deadlines, retry with
    backoff and quarantine as {!Outcome.Harness_abort} (see
    {!Fleet.policy}); progress ticks fire once per target plus a final
    100% tick in every path, including when all targets were pruned or
    journal-skipped.  An exception from a worker domain (say, a failed
    journal append) stops a [jobs > 1] run and is re-raised here; the
    journal holds every injection completed before it. *)

val csv_field : string -> string
(** RFC 4180 quoting: fields holding a comma, quote or line break are
    double-quoted with embedded quotes doubled; others pass through. *)

val to_csv : record list -> string
(** One row per experiment, for offline analysis.  Crash rows carry the
    reconstructed propagation path in the last column. *)
