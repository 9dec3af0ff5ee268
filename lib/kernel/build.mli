(** Assemble the mini-kernel into an image and boot it on a machine.

    Image layout (virtual): text at 0xC0100000 (the address range seen in
    the paper's listings), then a page-aligned data section.  The boot
    loader here stands in for firmware + bootstrap assembly: it installs
    kernel page tables with text pages read-only and page 0 unmapped
    (NULL traps), programs the timer and starts the CPU at
    [kernel_entry]. *)

open Kfi_isa

type t = {
  asm : Kfi_asm.Assembler.result;
  text_size : int;   (** bytes of text (page aligned) *)
  image_size : int;
  funcs : Kfi_asm.Assembler.fn_info list;
  by_off : Kfi_asm.Assembler.fn_info array;
      (** [funcs] sorted by offset: the index {!find_function} searches *)
}

val all_funcs : unit -> Kfi_kcc.Ast.func list
(** Every C-level kernel function, in link order. *)

val build : unit -> t
(** Assemble the kernel (cached: the image is deterministic). *)

val build_fresh : unit -> t
(** Re-assemble from scratch, bypassing the cache (benchmarks). *)

val symbol : t -> string -> int32
(** Address of a kernel symbol.
    @raise Kfi_asm.Assembler.Undefined_symbol. *)

val boot_machine :
  ?workload:int -> disk_image:bytes -> unit -> Machine.t * t
(** A machine with the kernel loaded and ready to run.  [disk_image] is
    an ext2-lite image from [Mkfs]; [workload] selects the /bin program
    init will exec. *)

val set_workload : Machine.t -> int -> unit
(** Poke a workload id into the bootinfo page of a (restored) machine. *)

(** The guest crash-dump record (the LKCD stand-in). *)
type dump = {
  d_vector : int;
  d_error : int32;
  d_eip : int32;
  d_cr2 : int32;
  d_cycles : int;
  d_esp : int32;
  d_task : int32;
}

val read_dump : Machine.t -> dump option
(** The crash record, if the guest crash handler wrote one. *)

val find_function : t -> int32 -> Kfi_asm.Assembler.fn_info option
(** Map an address to the kernel function containing it (a binary search
    of [by_off]).  The one address-to-function lookup: the profiler, the
    static oracle, crash classification and forensics all use it. *)

val subsystem_sizes : t -> (string * int) list
(** Text bytes per subsystem, descending (the Figure 1 measure). *)
