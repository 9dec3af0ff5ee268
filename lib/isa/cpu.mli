(** The simulated CPU: fetch/decode/execute with paging, traps, debug
    registers and a cycle counter.

    Documented divergences from real IA-32 (none affect the failure
    mechanics under study):
    - flat address space; [lret] always raises #GP;
    - an error code is pushed for {e every} exception, giving uniform
      trap frames: [old_esp; old_eflags; old_mode; eip; error_code]
      (error code on top), on the kernel stack ([esp0] when the trap
      comes from user mode);
    - control register 6 holds the kernel stack pointer for traps from
      user mode (standing in for TSS.esp0);
    - byte-register operands name the low byte of the full register;
    - custom privileged instructions [diskrd]/[diskwr] transfer one disk
      block (ebx = block number, edi = destination / esi = source). *)

type mode = Kernel | User

exception Triple_fault of Trap.t
(** Exception delivery itself failed (no IDT handler, or the kernel stack
    is unusable): machine reset.  Mirrors a crash that the paper's LKCD
    dump machinery failed to capture. *)

type t = {
  regs : int32 array;              (** 8 GPRs in x86 order *)
  mutable eip : int32;
  mutable eflags : int;
  mutable mode : mode;
  mutable cr0 : int32;
  mutable cr2 : int32;             (** page-fault address *)
  mutable cr3 : int32;             (** page-directory base; writes flush the TLB *)
  mutable esp0 : int32;            (** kernel stack for traps from user mode *)
  mutable cycles : int;            (** the performance counter (rdtsc) *)
  mutable halted : bool;
  mutable exit_code : int option;  (** set by a write to the poweroff port *)
  mutable snapshot_request : bool; (** set by a write to the snapshot port *)
  dr : int32 array;                (** debug registers dr0..dr3 *)
  mutable dr7 : int;               (** bit n enables dr(n) *)
  mutable on_debug_hit : (t -> int -> unit) option;
      (** injector hook: called with the matching dr index just before the
          target instruction executes *)
  phys : Phys.t;
  mmu : Mmu.t;
  console : Buffer.t;              (** combined transcript (klog + tty) *)
  tty : Buffer.t;                  (** user-visible output only *)
  disk : Devices.Disk.t;
  mutable timer_period : int;      (** cycles between timer IRQs; 0 = off *)
  mutable next_timer : int;
  idt_base : int;                  (** physical address of the IDT array *)
  icache : (int, Insn.t * int) Hashtbl.t;
  code_frames : Bytes.t;
  code_index : (int, int list) Hashtbl.t;
  mutable on_code_invalidate : (int -> unit) option;
      (** execution-backend hook: decoded code cached for this frame is
          stale ([-1] = everything); fired whenever a marked frame is
          written or invalidated *)
  scratch : int32 array;
  mutable last_fault_cycle : int;
      (** cycle count at the most recent exception — the crash-latency
          endpoint for faults *)
  mutable cycle_reads : int;
      (** [rdtsc] instructions executed so far on this CPU (both backends
          run them through {!execute}): a run that leaves it unchanged
          never read the cycle counter *)
  mutable decoded : int;
      (** instructions {!step} has fetched and decoded so far: over a
          run of steps at trace level {!Trace.Ring}, exactly the records
          the flight recorder adds (the block engine does not count its
          own) *)
  trace : Trace.t;
      (** the flight recorder, fed from {!step}; level {!Trace.Off}
          (the default) costs one compare per instruction *)
}

val create : phys:Phys.t -> disk:Devices.Disk.t -> idt_base:int -> t

val flush_icache : t -> unit
(** Invalidate the decoded-instruction cache (after external writes).
    Fires {!field-on_code_invalidate} with [-1]. *)

val invalidate_code_page : t -> int -> unit
(** Drop the cached decode state for one physical frame only, firing
    {!field-on_code_invalidate} for it.  A no-op on unmarked frames.
    Used by the write path and by incremental (dirty-page) restore so a
    surviving cache is only trimmed, never thrown away. *)

val mark_code_page : t -> int -> unit
(** Declare that an execution backend holds decoded state for this
    frame, so the next write to it reaches {!field-on_code_invalidate}.
    That clears the mark: a backend that keeps its state past the write
    marks the frame again. *)

val poke_phys : t -> int -> int -> unit
(** Write one byte of physical memory from outside the guest (the
    injector's bit flip), keeping the instruction cache coherent. *)

val step : t -> unit
(** Execute a single instruction, delivering any resulting exception to
    the guest kernel.  Faulting instructions are rolled back and
    restarted x86-style.
    @raise Triple_fault when delivery itself fails. *)

val set_timer : t -> int -> unit
(** Program the timer IRQ period in cycles (0 disables it). *)

(** {2 Execution-backend plumbing}

    The pieces of the step path that the cached (basic-block) backend
    reuses so its per-instruction semantics are the interpreter's own.
    Not for general use. *)

val translate : t -> write:bool -> int32 -> int
(** MMU translation in the current mode.  @raise Mmu.Page_fault *)

val execute : t -> Insn.t -> unit
(** Execute one decoded instruction; [eip] must already point past it. *)

val deliver : t -> Trap.t -> unit
(** Deliver an exception/interrupt to the guest kernel.
    @raise Triple_fault when delivery itself fails. *)

val debug_match : t -> int
(** Index of the armed debug register matching [eip], or [-1]. *)

val insn_mem : t -> Insn.t -> int
(** Effective address of the instruction's explicit memory operand for
    the flight recorder ([-1] when it has none). *)

val compile_insn : Insn.t -> t -> unit
(** Pre-resolve the execute dispatch and operand addressing for one
    decoded instruction.  The returned closure has exactly the semantics
    of [execute insn]; rare forms fall back to [execute] itself. *)

val mem_thunk : Insn.t -> t -> int
(** Pre-resolved {!insn_mem} for the same instruction. *)

val no_mem : t -> int
(** The shared thunk {!mem_thunk} returns for instructions without a
    memory operand (constant [-1]); compare with [==] to skip the call. *)

type rollback =
  | Rb_none  (** provably cannot raise: no rollback state at all *)
  | Rb_free  (** faults only before any register/eflags write *)
  | Rb_push  (** faults only after the single esp decrement: undo is +4 *)
  | Rb_full  (** save the register file and eflags up front *)

val insn_rollback : Insn.t -> rollback
(** What the block engine must save before running this instruction's
    {!compile_insn} closure to roll it back exactly on a fault. *)
