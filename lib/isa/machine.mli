(** A whole machine: CPU + physical memory + disk, with snapshot/restore
    (the injector's "reboot") and a watchdog-bounded run loop (the
    paper's hardware watchdog monitor). *)

type t

val default_phys_size : int
val default_idt_base : int

val create : ?phys_size:int -> ?idt_base:int -> disk:Devices.Disk.t -> unit -> t

val cpu : t -> Cpu.t
val phys : t -> Phys.t
val disk : t -> Devices.Disk.t

val console_contents : t -> string
(** The combined transcript: kernel log + tty, in write order. *)

val tty_contents : t -> string
(** User-program output only (the fail-silence comparison stream). *)

(** Why a bounded run stopped. *)
type run_result =
  | Powered_off of int  (** the guest wrote an exit code to the poweroff port *)
  | Halted              (** [hlt] with no exit code: the crash-handler convention *)
  | Watchdog            (** cycle budget exhausted: a hang *)
  | Reset of Trap.t     (** triple fault: a crash the dump machinery missed *)
  | Snapshot_point      (** the guest requested a snapshot pause *)

val run : t -> max_cycles:int -> run_result
(** Execute until one of the {!run_result} conditions occurs. *)

type snapshot
(** Full machine state: memory, disk, registers, devices, console, the
    flight recorder and the last fault's cycle. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Restore a snapshot, with an empty TLB: every run from a snapshot
    starts the same way. *)

(** {2 Delta checkpoints} *)

type checkpoint
(** The state of a run that began by restoring a snapshot, kept as a
    delta against it: the memory pages and disk blocks written since
    that differ from it, plus the TLB and the full CPU state except the
    debug registers, which are the snapshot's. *)

val checkpoint : t -> base:snapshot -> checkpoint
(** Capture the current state against [base], which must be the last
    snapshot restored.  Needs dirty tracking on memory and disk, as the
    cached backend turns on.
    @raise Invalid_argument if memory is not tracked against [base]. *)

val restore_checkpoint : t -> base:snapshot -> checkpoint -> unit
(** Restore [base], write the delta through the tracked write paths (so
    the next restore undoes it), drop decoded code for the rewritten
    pages, then set the TLB and the CPU state. *)

val checkpoint_cycles : checkpoint -> int
(** The cycle counter at capture. *)

val same_state : base:snapshot -> checkpoint -> checkpoint -> bool
(** Whether two checkpoints over [base] hold the same state as far as the
    guest can tell: registers, eip, eflags and mode, the control
    registers, halt and exit code, the timer period and the cycles left
    until the timer is due (0 once it is), console and tty, the TLB,
    every memory page and every disk block.  The cycle counter, the
    flight recorder and the last fault's cycle are left out: no
    instruction reads them, except the cycle counter through [rdtsc],
    which the caller must rule out.  So are the debug registers, which a
    checkpoint takes from [base] and no instruction writes. *)

val checkpoint_bytes : checkpoint -> int
(** Approximate heap footprint: pages, blocks, TLB, console and ring. *)
