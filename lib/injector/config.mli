(** Campaign run configuration: one record for every knob accepted by
    {!Experiment.run_campaign} and the [Kfi.Study] facade, replacing the
    optional-argument lists that used to be copy-pasted across every
    entry point. *)

(** How the [lib/shard] coordinator spawns, monitors and restarts
    [kfi-worker] processes.  Declared here (not in [lib/shard]) so it
    can ride {!t} without a dependency cycle. *)
type supervisor = {
  sup_workers : int;  (** worker processes to keep alive *)
  sup_shard_dir : string option;
      (** directory for per-shard journals; [None] = a fresh temp dir *)
  sup_worker_env : (string * string) list;
      (** extra environment entries for workers (chaos knobs in CI) *)
  sup_max_restarts : int;
      (** restarts per worker slot before the slot is retired *)
  sup_poison_deaths : int;
      (** consecutive zero-progress worker deaths on one shard before
          it is quarantined as {!Outcome.Harness_abort} *)
  sup_heartbeat_s : float;
      (** a worker silent this long while holding a shard is SIGKILLed
          (generous by default: a worker's first shard includes its
          kernel boot) *)
  sup_event_log : string option;
      (** supervisor event log (JSONL: spawn/assign/death/restart/
          requeue/quarantine/merge), for the CI artifact *)
  sup_on_pulse : (unit -> unit) option;
      (** called once per supervision-loop turn — where the tickless
          metrics {!Kfi_obs.Writer.maybe_tick} rides during the worker
          phase *)
}

val default_supervisor : supervisor
(** 2 workers, temp shard dir, auto-discovered worker binary, 10
    restarts per slot, 3 poison deaths, 120 s heartbeat, no event log,
    no pulse hook. *)

type t = {
  subsample : int;  (** keep every k-th target (1 = the full enumeration) *)
  seed : int;  (** fixes the per-byte bit choice *)
  hardening : bool;  (** the Section-7.4 interface assertions *)
  oracle : (Target.t -> Outcome.t option) option;
      (** the {e resolved} static-oracle pruning hook
          ([Kfi_staticoracle.Oracle.pruner oracle]); targets it resolves
          are recorded as predicted and never run on a machine.  The
          [Kfi.Config] facade resolves an oracle value into this hook
          once, at config-build time. *)
  telemetry : Kfi_trace.Telemetry.t option;
      (** receives one JSONL event per target plus campaign markers *)
  on_progress : (done_:int -> total:int -> unit) option;
      (** fires before every target and once more on completion *)
  jobs : int;
      (** worker domains; above 1 the campaign runs on a {!Fleet} and the
          records (and telemetry event stream) are byte-identical to a
          [jobs = 1] run with the same seed.  The fleet is fail-stop:
          a worker failure ends the run, which resumes from [journal];
          surviving lost workers is [supervisor]'s job *)
  journal : Journal.t option;
      (** crash-safe checkpointing: every completed injection is appended
          (fsync'd) to the journal as it finishes, and targets whose
          entries were loaded at [Journal.open_ ~resume:true] time are
          replayed instead of re-run — a SIGKILL'd campaign restarted
          with the same config produces byte-identical output *)
  policy : Fleet.policy;
      (** per-injection wall-clock deadline and retry/backoff/quarantine
          knobs (see {!Fleet.policy}) *)
  metrics : Kfi_obs.Metrics.t option;
      (** observability registry threaded to the runner(s), fleet and
          journal (phase-span histograms, throughput counters, fsync
          stalls).  Pure observation: records, CSV, telemetry JSONL and
          journal bytes are identical with or without it, at any job
          count — so it is deliberately absent from {!fingerprint} *)
  backend : Kfi_isa.Backend.kind;
      (** execution backend for the runner(s) ({!Kfi_isa.Backend.Interp}
          by default).  {!Kfi_isa.Backend.Cached} produces byte-identical
          outcomes, traces and artifacts — enforced by the backend.equiv
          fuzz property and the CI byte-identity gates — so it too is
          absent from {!fingerprint}: a journal written under one
          backend resumes cleanly under the other *)
  shards : int;
      (** content-addressed shards to split the campaign into when a
          {!supervisor} is set; 0 = auto ([4 * sup_workers], capped by
          the target count).  Purely an execution-layout knob — merged
          output is byte-identical at any shard count — so it is absent
          from {!fingerprint} *)
  supervisor : supervisor option;
      (** [Some] runs the campaign on process-isolated workers under
          the [lib/shard] coordinator: a SIGKILLed worker is restarted
          with exponential backoff, its shard requeued, and the merged
          output stays byte-identical to a serial in-process run *)
}

val default : t
(** [{ subsample = 1; seed = 42; hardening = false; oracle = None;
      telemetry = None; on_progress = None; jobs = 1; journal = None;
      policy = Fleet.default_policy; metrics = None;
      backend = Kfi_isa.Backend.Interp; shards = 0;
      supervisor = None }]. *)

val make :
  ?subsample:int ->
  ?seed:int ->
  ?hardening:bool ->
  ?oracle:(Target.t -> Outcome.t option) ->
  ?telemetry:Kfi_trace.Telemetry.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?jobs:int ->
  ?journal:Journal.t ->
  ?policy:Fleet.policy ->
  ?metrics:Kfi_obs.Metrics.t ->
  ?backend:Kfi_isa.Backend.kind ->
  ?shards:int ->
  ?supervisor:supervisor ->
  unit ->
  t
(** {!default} with the given fields replaced. *)

val fingerprint : t -> string
(** The string recorded in (and checked against) a journal's header
    frame: seed, subsample, hardening and oracle {e presence} — the
    knobs that change which targets exist or how they behave.  Resuming
    a journal written under a different fingerprint raises. *)
