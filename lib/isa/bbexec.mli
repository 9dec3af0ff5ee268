(** The cached backend's execution core: basic blocks of pre-decoded,
    pre-compiled instructions keyed by physical address.  A write to a
    page that holds decoded code (reported through
    {!Cpu.t.on_code_invalidate}) bumps that page's epoch; a block
    dispatched after its page's epoch moved is re-checked against the
    bytes it was decoded from, kept on a match and rebuilt otherwise.
    Per-instruction semantics are bit-for-bit the interpreter's; anything
    the fast path cannot prove identical falls back to a literal
    {!Cpu.step}.  At a loop head (a block re-dispatched within a few
    cycles, a few times in a row) the engine hands the loop to
    {!Loopsum}, which applies an affine loop's remaining iterations on
    the current page at once; a loop that does not qualify, or whose
    summary skips fewer than {!Loopsum.min_skip} cycles, backs off for
    that head.  Never with a debug register armed or at trace
    level {!Trace.Full}. *)

type t

val create : Cpu.t -> t
(** Attach a block cache to the CPU: installs the page-write hook
    (replacing any previous one). *)

val detach : t -> unit
(** Remove the hook and drop every block. *)

val flush : t -> unit
(** Drop every block (the hook's [-1] path: a full restore). *)

val invalidate_page : t -> int -> unit
(** A physical page's bytes may have changed: its blocks are re-checked
    before they next run ([-1] = drop every block). *)

val run : t -> max_cycles:int -> Machine.run_result
(** The {!Machine.run} contract, a block at a time. *)

type stats = {
  st_blocks : int;               (** blocks currently cached *)
  st_built : int;                (** blocks decoded since creation *)
  st_hits : int;                 (** dispatches that found a cached block *)
  st_reverified : int;
      (** blocks kept after a write to their page: their bytes still
          matched memory *)
  st_invalidated_pages : int;    (** page writes reported by the hook *)
  st_fallback_timer : int;
      (** dispatches handed to {!Cpu.step} because the timer IRQ was due *)
  st_fallback_debug : int;
      (** ... because the block holds an armed debug address *)
  st_fallback_fetch : int;
      (** ... because the fetch faulted, its mapping moved, or it points
          past physical memory *)
  st_fallback_undecodable : int;
      (** ... because the entry instruction does not decode within its
          page *)
  st_loops : int;
      (** loops summarised: iterations applied at once instead of
          executed (see {!Loopsum}) *)
  st_loop_skipped_cycles : int;  (** the cycles those summaries did not execute *)
  st_loop_scans : int;
      (** summaries over scanned entries: their loop reads a run of equal
          words (a uniform load), which bounds them *)
  st_loop_backoffs : int;
      (** loop heads backed off because the loop itself ended their
          summary before {!Loopsum.min_skip} cycles *)
}

val stats : t -> stats
