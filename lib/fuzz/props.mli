(** The cross-layer property library for the kfi-fuzz harness. *)

open Kfi_isa

val gen_insn : Insn.t Kfi_fuzz.Gen.t
(** Every constructor, canonically-encodable operands only. *)

val shrink_insn : Insn.t Kfi_fuzz.Shrink.t
(** Towards [Nop]. *)

val arb_insns : min:int -> max:int -> Insn.t list Kfi_fuzz.Fuzz.arb

val roundtrip_with : ?name:string -> (bytes -> int -> Decode.result) -> Kfi_fuzz.Fuzz.t
(** The encode/decode round-trip property over an arbitrary decoder —
    the test suite plants a decoder bug here to prove the harness
    catches and shrinks it. *)

val isa_roundtrip : Kfi_fuzz.Fuzz.t
val isa_decode_total : Kfi_fuzz.Fuzz.t
val asm_assemble_decode : Kfi_fuzz.Fuzz.t
val cpu_snapshot_restore : Kfi_fuzz.Fuzz.t
val cpu_trace_transparent : Kfi_fuzz.Fuzz.t

val backend_equiv : Kfi_fuzz.Fuzz.t
(** The execution-backend differential: interp and cached agree on run
    outcome, registers, memory digest and trace for random programs and
    random debug-register-triggered text injections, across an
    incremental snapshot restore. *)

val backend_loop_equiv : Kfi_fuzz.Fuzz.t
(** Loop-summary differential: store, copy and counter loops as kcc
    compiles the kernel's, with random strides, bounds, overlaps, page
    crossings, unmapped next pages, timer, trace level and pauses inside
    the loop; the cached run must leave the interpreter's state and
    flight recorder at every pause.  Counts the cases that summarised a
    loop. *)

val mmu_translate_ref : Kfi_fuzz.Fuzz.t
val oracle_equivalent_sound : Kfi_fuzz.Fuzz.t
val slice_sound : Kfi_fuzz.Fuzz.t
val runner_ladder_equiv : Kfi_fuzz.Fuzz.t
(** Checkpoint-ladder differential: a short random sequence of targets
    on the cached backend (which captures and reuses golden
    checkpoints), then the last one again on the interpreter (which
    never does); outcome, cycle counts, injection cycle, tty, flight
    recorder and the final registers, last fault cycle, memory and disk
    must agree.  It counts the cases whose cached run started from a
    checkpoint above the baseline: its evidence that it is not
    vacuous. *)

val runner_rejoin_equiv : Kfi_fuzz.Fuzz.t
(** Rejoin differential: one A/B/C flip (weighted to B) on its
    campaign's workload, with random hardening, trace level and watchdog
    budget, on the cached backend (which rejoins the golden run when a
    masked run matches a rung) and on the interpreter (which never
    does); everything {!runner_ladder_equiv} compares must agree.  It
    counts the cases whose cached run matched the golden state. *)

val fs_fsck_total : Kfi_fuzz.Fuzz.t
val journal_torn_resume : Kfi_fuzz.Fuzz.t

val shard_record_once : Kfi_fuzz.Fuzz.t
(** The supervisor's record path ({!Kfi_shard.Supervisor.record},
    [unjournaled], [quarantine]) driven without processes: a random
    split of a random entry list is streamed by two worker slots under a
    random schedule of slot moves, worker deaths, re-run duplicates,
    quarantines and coordinator restarts.  The campaign journal ends up
    holding each planned key exactly once, and with no quarantine its
    key-sorted entries equal a serially written journal's. *)

val csv_rfc4180 : Kfi_fuzz.Fuzz.t
val telemetry_json_roundtrip : Kfi_fuzz.Fuzz.t

val obs_merge_assoc : Kfi_fuzz.Fuzz.t
(** Metric snapshot merge is associative and commutative (bucket counts
    exact, float sums up to reordering) and a merged histogram's
    quantile stays within one bucket of the exact sample quantile. *)

val all : Kfi_fuzz.Fuzz.t list
(** Registry, in the order the CLI runs them. *)

val find : string -> Kfi_fuzz.Fuzz.t option
