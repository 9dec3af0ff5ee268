(* One record for every knob a campaign run accepts.  The run entry
   points (Experiment.run_campaign and the Kfi.Study facade) take a
   single [?config]; the pre-Config optional-argument spellings are
   gone.

   The [oracle] field holds the *resolved* pruning hook (a plain
   function), not the oracle value itself: the facade resolves
   [Kfi_staticoracle.Oracle.pruner] exactly once when the config is
   built, instead of at every entry point. *)

(* Process-isolated execution (lib/shard): how the supervising
   coordinator spawns, monitors and restarts kfi-worker processes.
   Lives here (not in lib/shard) so it can ride [t] without a
   dependency cycle; like [jobs]/[metrics]/[backend] it never affects
   which targets exist or what they observe, so it stays out of
   [fingerprint]. *)
type supervisor = {
  sup_workers : int; (* worker processes to keep alive *)
  sup_shard_dir : string option; (* per-shard journals; None = temp dir *)
  sup_worker_env : (string * string) list;
      (* extra environment for workers (chaos knobs in tests/CI) *)
  sup_max_restarts : int; (* per worker slot, before it is retired *)
  sup_poison_deaths : int;
      (* consecutive zero-progress worker deaths on one shard before it
         is quarantined as Harness_abort *)
  sup_heartbeat_s : float;
      (* a worker silent this long while holding a shard is SIGKILLed
         (generous: the first shard includes the worker's kernel boot) *)
  sup_event_log : string option; (* supervisor event JSONL *)
  sup_on_pulse : (unit -> unit) option;
      (* called once per supervision loop turn (metrics writer ticks) *)
}

let default_supervisor =
  {
    sup_workers = 2;
    sup_shard_dir = None;
    sup_worker_env = [];
    sup_max_restarts = 10;
    sup_poison_deaths = 3;
    sup_heartbeat_s = 120.;
    sup_event_log = None;
    sup_on_pulse = None;
  }

type t = {
  subsample : int;
  seed : int;
  hardening : bool;
  oracle : (Target.t -> Outcome.t option) option;
  telemetry : Kfi_trace.Telemetry.t option;
  on_progress : (done_:int -> total:int -> unit) option;
  jobs : int;
  journal : Journal.t option;
      (* crash-safe checkpointing: completed injections are appended
         (fsync'd) as they finish, and entries already present — loaded
         by [Journal.open_ ~resume:true] — are skipped on re-run *)
  policy : Fleet.policy;
      (* per-injection deadline / retry / quarantine knobs *)
  metrics : Kfi_obs.Metrics.t option;
      (* observability registry threaded to the runner(s), fleet and
         journal: phase spans, throughput counters, stall histograms.
         Pure observation — records, CSV, telemetry JSONL and the
         journal are byte-identical with or without it, which is why
         it stays out of [fingerprint] *)
  backend : Kfi_isa.Backend.kind;
      (* execution backend for the runner(s).  [Cached] is byte-identical
         to [Interp] in every outcome, trace and artifact (the
         backend.equiv fuzz property and the CI gates hold it to that),
         so it too stays out of [fingerprint]: a journal written under
         one backend resumes cleanly under the other *)
  shards : int;
      (* content-addressed shards to split the campaign into under a
         supervisor; 0 = auto (4 * workers).  Purely an execution-layout
         knob: merged output is byte-identical at any shard count *)
  supervisor : supervisor option;
      (* Some -> the campaign runs on isolated worker processes under
         the lib/shard coordinator instead of in-process *)
}

let default =
  {
    subsample = 1;
    seed = 42;
    hardening = false;
    oracle = None;
    telemetry = None;
    on_progress = None;
    jobs = 1;
    journal = None;
    policy = Fleet.default_policy;
    metrics = None;
    backend = Kfi_isa.Backend.Interp;
    shards = 0;
    supervisor = None;
  }

let make ?(subsample = default.subsample) ?(seed = default.seed)
    ?(hardening = default.hardening) ?oracle ?telemetry ?on_progress
    ?(jobs = default.jobs) ?journal ?(policy = default.policy) ?metrics
    ?(backend = default.backend) ?(shards = default.shards) ?supervisor () =
  {
    subsample;
    seed;
    hardening;
    oracle;
    telemetry;
    on_progress;
    jobs;
    journal;
    policy;
    metrics;
    backend;
    shards;
    supervisor;
  }

(* The fingerprint guarding a resumed journal: everything that changes
   which targets are enumerated or how they behave.  The oracle's
   *identity* cannot be fingerprinted (it is a closure), but its
   presence can — resuming a pruned run without the oracle (or vice
   versa) would change which entries exist. *)
let fingerprint t =
  Printf.sprintf "kfi-journal-v1 seed=%d subsample=%d hardening=%b oracle=%b"
    t.seed t.subsample t.hardening
    (t.oracle <> None)
