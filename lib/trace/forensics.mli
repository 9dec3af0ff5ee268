(** Crash forensics over the flight recorder: symbolized trace listings,
    kernel stack backtraces, propagation-path reconstruction and the
    simulated LKCD "oops dump", which also shows the live code around
    the crash and the task table — the stand-in for the paper's lcrash
    and KDB analysis of real dump images.  The one crash and trace
    report: [kfi-trace], [kfi-boot --debug]/[--trace] and the examples
    all print through it. *)

open Kfi_isa

val location : Kfi_kernel.Build.t -> int32 -> (string * string) option
(** [(function, subsystem)] containing an address, if any. *)

val symbolize : Kfi_kernel.Build.t -> int32 -> string
(** ["fn+0xoff/0xsize"] for text addresses, ["0x…"] otherwise. *)

val insn_text : Machine.t -> int32 -> string
(** Disassembly of the instruction at an address, read through the MMU so
    injected corruption shows as it executed; "(bad)" / "(unreadable)"
    when it does not decode or cannot be fetched. *)

(** One hop of a propagation path: a maximal run of consecutively traced
    instructions inside one function. *)
type hop = {
  h_fn : string;
  h_subsys : string;
  h_eip : int32;   (** first traced eip inside the function *)
  h_cycle : int;   (** cycle of that first instruction *)
}

val propagation_path :
  Kfi_kernel.Build.t -> Trace.t -> from_cycle:int -> hop list
(** The kernel-mode execution path recorded at or after [from_cycle],
    collapsed to function-level hops.  With a bounded ring the earliest
    hops of a long-latency crash are lost; callers that know the
    injection site should prepend it. *)

val subsys_path : hop list -> string list
(** Subsystem-level view (consecutive same-subsystem hops merged). *)

val hop_pairs : hop list -> (string * string) list
(** [(function, subsystem)] pairs of a path. *)

val path_to_string : (string * string) list -> string
(** ["fn(subsys) -> fn(subsys) -> …"]. *)

val trace_listing : ?n:int -> Kfi_kernel.Build.t -> Machine.t -> string
(** The last [n] (default 32) recorded instructions, one line each:
    cycle, mode, eip, symbol, disassembly, memory operand. *)

(** How a backtrace frame was found: the current eip, a return address
    on the frame-pointer chain, or a kernel-text word found by scanning
    the stack. *)
type how = Eip | Frame | Scan

type frame = { fr_eip : int32; fr_how : how }

val backtrace : ?max_depth:int -> Kfi_kernel.Build.t -> Machine.t -> frame list
(** The current eip, then up to [max_depth] (default 16) return
    addresses from the current task's kernel stack (the
    [Layout.task_size]-aligned block holding esp): the cdecl ebp chain
    while each frame lies inside that stack, its return address inside
    [Build.text_size] and the frame pointer grows.  When the chain gives
    fewer than two frames, the kernel-text words from esp up the stack
    follow, tagged [Scan] (again at most [max_depth]).  Memory is read
    through the direct map. *)

val backtrace_listing : Kfi_kernel.Build.t -> Machine.t -> string
(** {!backtrace} rendered in kernel "Call Trace:" style, each frame
    tagged [eip], [frame] or [scan]. *)

val cause_banner : vector:int -> cr2:int32 -> string
(** The 2.4-era oops banner for a trap vector ([-1] = no dump record). *)

val oops :
  ?dump:Kfi_kernel.Build.dump ->
  ?injected_at:int ->
  ?inject_desc:string ->
  ?trace_n:int ->
  Kfi_kernel.Build.t ->
  Machine.t ->
  string
(** The full simulated-LKCD dump: cause banner, register file, dump
    record, backtrace, the live code around the crash eip (the dump's,
    else the CPU's), the task table, symbolized instruction trace,
    machine events and the propagation path from [injected_at]. *)
