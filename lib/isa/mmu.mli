(** Hardware-walked two-level page tables (i386-style) with a small
    direct-mapped TLB.

    PDE/PTE format: bit 0 present, bit 1 writable, bit 2 user-accessible,
    bits 12..31 frame number.  Permissions of the directory and table
    entries combine with AND, as on x86. *)

val page_size : int
val page_shift : int

val pte_present : int
val pte_writable : int
val pte_user : int

exception Page_fault of int32 * int32
(** [(vaddr, error_code)]: missing mapping or permission violation.  The
    error code uses the x86 convention (bit 0 = page was present,
    bit 1 = write, bit 2 = user mode). *)

type t

val create : Phys.t -> t

val flush : t -> unit
(** Drop every TLB entry (the effect of reloading CR3). *)

type tlb
(** A copy of the TLB's valid entries.  They are visible to the guest: a
    page-table update takes effect only once the entry is flushed or
    evicted, so a mid-run checkpoint must keep them.  Copies of TLBs
    holding the same entries are equal. *)

val save : t -> tlb

val load : t -> tlb -> unit
(** Replace the TLB's contents with a saved copy. *)

val holds : t -> tlb -> bool
(** Whether the TLB holds exactly the saved entries. *)

val tlb_bytes : tlb -> int
(** The heap footprint of a {!tlb}. *)

val translate : t -> cr3:int32 -> user:bool -> write:bool -> int32 -> int
(** Translate a virtual address to a physical one, filling the TLB.
    @raise Page_fault on a missing mapping or permission violation. *)

val generation : t -> int
(** A counter bumped on every TLB fill, entry invalidation or flush.
    While it is unchanged, any translation that previously hit the TLB
    would resolve identically again. *)

val probe : t -> user:bool -> int32 -> int
(** Side-effect-free TLB probe for read/fetch access: the physical
    address on a permitted hit, [-1] otherwise (fall back to
    {!translate}).  Mirrors the hit path of {!translate} exactly. *)

val read8 : t -> cr3:int32 -> user:bool -> int32 -> int
val write8 : t -> cr3:int32 -> user:bool -> int32 -> int -> unit
val read32 : t -> cr3:int32 -> user:bool -> int32 -> int32
val write32 : t -> cr3:int32 -> user:bool -> int32 -> int32 -> unit
(** Page-crossing 32-bit accesses split into byte accesses. *)
