(** The experiment runner — the analogue of the paper's injection
    controller + crash handler + hardware watchdog loop (Figures 2/3).

    One {!t} boots the kernel once; each injection restores a snapshot
    ("reboots"), arms a debug register on the target instruction, flips
    the chosen bit when it is first reached, runs to a terminal state and
    classifies the outcome.

    The record itself is private: the snapshot plumbing ([baselines],
    golden-run bookkeeping, the attached {!Kfi_isa.Backend.t}) is
    internal state, reachable read-only through the accessors below. *)

open Kfi_isa

type golden = { g_exit : int; g_console : string; g_cycles : int }
(** Exit code, tty output and length in simulated cycles of a
    fault-free run (hardening off). *)

type t

val default_max_cycles : int

val create : ?max_cycles:int -> unit -> t
(** Build the file system, boot the kernel to its snapshot point, take
    the per-workload baselines and record the golden runs.  Each golden
    run follows [run_one]'s prefix (restore, {!poke_hardening}, run) and
    records a reach map: every kernel-text address the debug compare
    sees, plus the run's cycle count.  The maps for hardening on are
    recorded on first use.  Runs on the reference
    {!Kfi_isa.Backend.Interp} backend until {!set_backend} says
    otherwise.
    @raise Failure if the pristine kernel cannot complete a workload. *)

(** {2 Modes} *)

val set_hardening : t -> bool -> unit

val set_trace_level : t -> Trace.level -> unit
(** Flight-recorder level for subsequent runs ([Off] for raw speed,
    [Full] for event capture; see the bench's trace experiment). *)

val set_max_cycles : t -> int -> unit
(** Adjust the simulated-watchdog budget for subsequent runs (used by
    tests to force the {!Outcome.Hang} path deterministically). *)

val set_metrics : t -> Kfi_obs.Metrics.t option -> unit
(** Attach (or detach) a metrics registry: each subsequent [run_one]
    observes its phase spans ([phase.restore] / [phase.execute] /
    [phase.classify], plus the [inj.wall] total) and bumps the
    [inj.*] / [outcome.*] counters.  Observation only — outcomes and
    every determinism-gated artifact are unaffected. *)

val set_backend : t -> Backend.kind -> unit
(** Swap the execution backend for subsequent runs.  A no-op when the
    kind is unchanged; otherwise the old backend is detached (hooks and
    dirty-page tracking removed) and a fresh one attached.  Outcomes are
    byte-identical across backends — only the wall clock moves. *)

val backend_kind : t -> Backend.kind

(** {2 Read-only views} *)

val build : t -> Kfi_kernel.Build.t
val machine : t -> Machine.t

val baseline : t -> Machine.snapshot
(** Pristine post-boot state (pre-init), used by the profiler. *)

val baselines : t -> Machine.snapshot array
(** Per-workload snapshots at the first user-mode instruction, so
    experiments inject into a running benchmark as in the paper. *)

val golden : t -> int -> golden
(** The fault-free run of one workload, recorded by {!create} with
    hardening off. *)

val hardening : t -> bool
val trace_level : t -> Trace.level
val max_cycles : t -> int

val last_wall : t -> float
(** Seconds spent restoring + executing in the last [run_one]. *)

val last_restore : t -> float
(** Of which restoring the snapshot. *)

val last_classify : t -> float
(** Seconds spent classifying the last run's outcome (golden compare,
    fsck, dump reading, propagation); 0 when the run was abandoned on a
    deadline. *)

val last_cycles : t -> int
(** Simulated cycles of the last run. *)

val last_injected_at : t -> int option
(** Cycle at which the last run's fault was injected. *)

(** {2 Running} *)

val poke_hardening : t -> unit
(** Write the hardening flag into (restored) guest memory; [run_one] does
    this automatically. *)

val fsck_severity : t -> Outcome.severity
(** Classify the machine's current disk with the manifest. *)

exception Deadline_exceeded of float
(** A wall-clock deadline (absolute [Unix.gettimeofday] seconds) passed
    before the simulated run reached a terminal state. *)

val run_one : ?deadline:float -> t -> workload:int -> Target.t -> Outcome.t
(** Run one injection experiment from the chosen workload's baseline.

    A target whose address the workload's golden run never reaches
    (under the current hardening mode) is resolved from the reach map
    without running, provided the golden run fits the current
    [max_cycles]: it returns {!Outcome.Not_activated} with
    {!last_cycles} set to the golden cycle count, {!last_injected_at}
    [= None] and the trace ring cleared, exactly what the full run would
    report.  The metrics still see every phase span (near zero) and
    [inj.count], plus an [inj.skipped] count.

    [deadline] is an absolute wall-clock bound on top of the simulated
    watchdog: the run is executed in short cycle slices and abandoned
    with {!Deadline_exceeded} once the host clock passes it.  The
    runner remains usable — injection hooks are cleared on every exit
    path and the next experiment restores a snapshot anyway. *)
