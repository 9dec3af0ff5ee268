(** The experiment runner — the analogue of the paper's injection
    controller + crash handler + hardware watchdog loop (Figures 2/3).

    One {!t} boots the kernel once; each injection restores a workload's
    start ("reboots"), arms a debug register on the target instruction,
    flips the chosen bit when it is first reached, runs to a terminal
    state and classifies the outcome.

    The record itself is private: the snapshot plumbing (the boot
    snapshot and the workload starts over it, golden-run bookkeeping,
    the attached {!Kfi_isa.Backend.t}) is internal state, reachable
    read-only through the accessors below. *)

open Kfi_isa

type golden = { g_exit : int; g_console : string; g_cycles : int }
(** Exit code, tty output and length in simulated cycles of a
    fault-free run (hardening off). *)

type proof = {
  pr_cycle : int;  (** where the state was first seen: cycles past the start *)
  pr_period : int;  (** cycles until it was seen again *)
  pr_eip : int32;  (** eip in that state *)
  pr_skipped : int;  (** cycles of later periods not executed *)
}
(** A run's proof that its machine state recurs, so the run repeats one
    period until the watchdog (see {!run_one}).  {!skip_recurrence}
    reports [pr_cycle] as an absolute cycle count. *)

type t

val default_max_cycles : int

val rung_spacing : int
(** Cycles between the boundaries of the golden checkpoint ladder's
    rungs (see {!run_one}). *)

val create : ?max_cycles:int -> unit -> t
(** Build the file system, boot the kernel to its snapshot point, take
    the boot snapshot ({!baseline}, the one full machine image), capture
    each workload's {!start} as a checkpoint over it and record the
    golden runs.  Each golden run follows [run_one]'s prefix (restore,
    {!poke_hardening}, run) and records:
    - a reach map: for every kernel-text address, the cycle offset at
      which the debug compare can first see it (if ever), plus the
      run's cycle count;
    - the complete checkpoint ladder: rung 0 is the {!start}, rung
      [j >= 1] the golden state, TLB included, at the first instruction
      boundary at or after [rung_spacing * j] cycles past it, with the
      flight recorder a [Ring] run has there.  Only a window of records
      before each boundary is traced, counted on from the instructions
      the run decoded; a rung whose window holds fewer than a ring is
      left out.  Consecutive rungs share their unchanged pages and
      blocks;
    - per interval between boundaries, the kernel-text bytes the run
      read: every byte of each instruction it executed and every byte
      it loaded.
    The maps and ladders for hardening on are recorded the same way on
    first use.  Runs on the reference {!Kfi_isa.Backend.Interp} backend
    until {!set_backend} says otherwise.
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
    dirty tracking removed) and a fresh one attached, with an empty
    block cache.  The golden ladders stay: {!create} recorded them with
    the golden runs, and no injected run adds to them.  Outcomes are
    byte-identical across backends — only the wall clock moves. *)

val backend_kind : t -> Backend.kind

(** {2 Read-only views} *)

val build : t -> Kfi_kernel.Build.t
val machine : t -> Machine.t

val baseline : t -> Machine.snapshot
(** Pristine post-boot state (pre-init): the profiler's start, and the
    base of every checkpoint the runner keeps. *)

val start : t -> int -> Machine.checkpoint
(** A workload's state at its first user-mode instruction, so
    experiments inject into a running benchmark as in the paper.  A
    checkpoint over {!baseline} with an empty TLB: restore it with
    [Machine.restore_checkpoint ~base:(baseline t)]. *)

val ladder : t -> workload:int -> Machine.checkpoint option array
(** The golden checkpoint ladder of a workload under the current
    hardening mode (recorded now if the mode's golden run has not
    been): [ladder t ~workload].(j) is rung [j] (see {!create}), [None]
    for a rung left out. *)

val golden : t -> int -> golden
(** The fault-free run of one workload, recorded by {!create} with
    hardening off. *)

val hardening : t -> bool
val trace_level : t -> Trace.level
val max_cycles : t -> int

val last_cycles : t -> int
(** Simulated cycles of the last run. *)

val last_injected_at : t -> int option
(** Cycle at which the last run's fault was injected. *)

val last_proof : t -> proof option
(** The last run's proof that its state recurs, when it found one. *)

val last_rejoin : t -> int option
(** Where the last run first matched the golden state, in cycles past
    the start (a rung boundary after the injection), when it did (see
    {!run_one}).  The error was masked by then, so this bounds its
    masking latency. *)

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
(** Run one injection experiment from the chosen workload's {!start}.

    A target whose address the workload's golden run never reaches
    (under the current hardening mode) is resolved from the reach map
    without running, provided the golden run fits the current
    [max_cycles]: it returns {!Outcome.Not_activated} with
    {!last_cycles} set to the golden cycle count, {!last_injected_at}
    [= None] and the trace ring cleared, exactly what the full run would
    report.  The metrics still see every phase span (near zero) and
    [inj.count], plus an [inj.skipped] count.

    Any other target restores one rung of the (hardening, workload)
    golden checkpoint ladder with a single
    [Machine.restore_checkpoint ~base:(baseline t)].  On the cached
    backend the run restores the latest rung at or before the target's
    first-mark cycle (by its actual cycle) and inside [max_cycles]; a
    run traced at [Ring] keeps the rung's flight recorder, an [Off] run
    empties it, and a [Full] run, like every run on the interpreter,
    starts at rung 0.  Cycle counts, the watchdog limit and the deadline
    slices stay counted from the start, so every record is what the
    plain run reports.  The metrics count runs that started above rung
    0 in [inj.ladder] and their skipped cycles in
    [inj.prefix_skipped_cycles], and gauge the rungs above rung 0 in
    [ladder.rungs] and their footprint in [ladder.bytes].

    The same runs, at [Off] or [Ring], rejoin the golden run.  After
    the injection they pause at each rung boundary and compare their
    state with the rung's ({!Kfi_isa.Machine.matches}, the flipped byte
    masked).  On a match ({!last_rejoin}), the run is the golden run
    until the golden run next reads the flipped byte.  So it restores
    the latest rung no later than the start of the interval holding
    that read, puts the flip back and goes on comparing.  With no read left, or for a register
    flip, it restores a rung near the end and runs the tail.  The
    flight recorder keeps its own count plus the golden records in
    between, the last fault's cycle is the rung's when the golden run
    faulted in between, and a restore is left out when the ring it
    carries would not be the run's.  Records, flight recorder and final
    machine state are the plain run's.  The metrics count runs that
    matched in [inj.rejoined], the restores in [inj.rejoin_episodes]
    and the cycles they skipped in [inj.rejoin_skipped_cycles].

    [deadline] is an absolute wall-clock bound on top of the simulated
    watchdog: the run is executed in short cycle slices and abandoned
    with {!Deadline_exceeded} once the host clock passes it.  The
    runner remains usable — injection hooks are cleared on every exit
    path and the next experiment restores a checkpoint anyway.

    A hang costs the whole watchdog budget, so on the cached backend a
    run that the injection has left with the timer tick masked tries to
    prove it cannot end before the watchdog.  The trigger is a
    deadline-slice pause after DR0 fired at which the tick has been due
    for at least a whole slice with interrupts masked; the 1st, 2nd,
    4th, ... such pause tries {!skip_recurrence} until one succeeds.  A
    proven run skips whole periods and runs a short tail into the
    watchdog, so its outcome, cycle count, flight recorder and final
    machine state are the full run's; {!last_proof} keeps the proof.
    Interpreter runs, and runs traced at [Full], never skip.  The metrics
    count proven runs in [inj.hang_proven] and the cycles not executed
    in [inj.hang_skipped_cycles], and time every run in
    [inj.wall.<category>] besides [inj.wall]. *)

(** {2 Provable hangs} *)

type recurrence =
  | Proven of proof  (** whole periods were skipped *)
  | Unproven  (** no recurrence found; the machine ran on normally *)
  | Reset of Trap.t  (** a triple fault during the search ended the run *)

val skip_recurrence : Machine.t -> base:Machine.snapshot -> limit:int -> recurrence
(** Remember the registers, eip, eflags and mode, and step the reference
    interpreter (under [Machine.run]'s stop checks and the absolute
    cycle [limit]) until they recur, at most a few thousand steps.  Take
    a checkpoint over [base] there, step until they recur again, and
    compare the two states with {!Kfi_isa.Machine.same_state}.  When
    they match and no [rdtsc] ran in the period, the run repeats that
    period until [limit]: add whole periods to the cycle counter (and to
    a timer not yet due), leaving a tail of at least one period that
    also refills the flight recorder, and advance the recorder's count
    by the records skipped.  Running the machine on to [limit] then
    leaves exactly the state the full run leaves.  Needs dirty tracking
    synchronized to [base] (the cached backend after restoring it);
    never tries with a debug register armed or at trace level [Full]. *)
