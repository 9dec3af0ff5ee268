(** Physical memory: a flat little-endian byte array, with optional
    dirty-page tracking so a restore touches O(dirty pages) instead of
    the whole image (the cached execution backend's snapshot protocol).
    Only the snapshot the memory is synchronized to restores
    incrementally; other states are kept as {!delta}s over it. *)

type t

exception Bad_physical_address of int
(** Raised on access outside the installed memory (a machine-check-like
    condition that escalates to a reset). *)

val page_size : int
val page_shift : int
(** Tracking granularity; equal to the MMU page size. *)

val create : int -> t
(** [create size] allocates zeroed physical memory. *)

val size : t -> int

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read32 : t -> int -> int32
val write32 : t -> int -> int32 -> unit

val blit_in : t -> dst:int -> bytes -> unit
(** Copy a byte string into memory (the boot loader's DMA). *)

val blit_out : t -> src:int -> len:int -> bytes
(** Copy a region out of memory. *)

val holds : t -> int -> bytes -> bool
(** [holds t addr b]: memory from [addr] on holds exactly the bytes of
    [b] ([false] when they would run past the end).  Allocates nothing:
    the block cache re-checks its decoded bytes with it on a hot path. *)

val copy : t -> t
(** Snapshot of the full contents.  Under tracking, the live memory is
    resynchronized to the new snapshot (it equals it at this instant), so
    a later {!restore} to it is O(dirty pages). *)

val restore : t -> from:t -> int list option
(** Restore contents from a snapshot taken with {!copy}.  Returns the
    pages that were actually rewritten — [Some pages] when the restore
    was incremental (tracking on, and [from] is the snapshot the memory
    is synchronized to), [None] for a full copy, which synchronizes a
    tracked memory to [from].  Callers use the page list to invalidate
    derived caches (decoded instructions, basic blocks) with the same
    granularity. *)

val set_tracking : t -> bool -> unit
(** Turn dirty-page tracking on or off.  Turning it off drops all
    tracking state (the next restore is a full copy). *)

val tracking : t -> bool

val dirty_pages : t -> int list
(** Pages written since the last sync point (sorted, deduplicated). *)

val delta : t -> base:t -> (int * bytes) list
(** [(page, contents)] for every page written since the last restore to
    [base] whose contents differ from [base]'s: writing them back (with
    {!blit_in}) after a restore to [base] rebuilds the present contents.
    @raise Invalid_argument unless tracking is on and the memory was
    last synchronized to [base]. *)
