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

val fs_fsck_total : Kfi_fuzz.Fuzz.t
val journal_torn_resume : Kfi_fuzz.Fuzz.t

val shard_merge_deterministic : Kfi_fuzz.Fuzz.t
(** Random contiguous shard splits of a random entry list, written under
    two random worker-death schedules (die after k entries, optionally
    leaving a torn partial frame, resume, repeat), then merged in
    planned order — both merged journals are byte-identical to the
    serially-written one. *)

val csv_rfc4180 : Kfi_fuzz.Fuzz.t
val telemetry_json_roundtrip : Kfi_fuzz.Fuzz.t

val obs_merge_assoc : Kfi_fuzz.Fuzz.t
(** Metric snapshot merge is associative and commutative (bucket counts
    exact, float sums up to reordering) and a merged histogram's
    quantile stays within one bucket of the exact sample quantile. *)

val all : Kfi_fuzz.Fuzz.t list
(** Registry, in the order the CLI runs them. *)

val find : string -> Kfi_fuzz.Fuzz.t option
