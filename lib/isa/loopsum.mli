(** Loop summaries: the block engine applies the rest of an affine loop's
    iterations on the current page at once instead of executing them.

    An affine loop is one whose every carried register and live-in
    memory cell moves by a fixed step per iteration, whose accesses
    stay at one address or move by a fixed stride, and whose exit test
    compares such values.  A load from a moving address that read the
    same word in both observed iterations counts as that constant for as
    long as the words it will read hold it, which the plan checks word
    by word.  The kernel's [clear_page], [memset], [memcpy] word loop and
    [copy_page] are such loops, and so are its page-table scans
    ([copy_page_tables], [free_page_tables], [pgd_alloc]) over entries
    that read 0.  The analysis steps two iterations on {!Cpu.step};
    applying a summary replays the skipped iterations' stores, and the
    loads they store, on the physical words the observed iterations
    accessed, moved by their strides, and leaves the registers, eflags,
    cycle counter and flight recorder exactly as the plain run leaves
    them at the loop head. *)

val window : int
(** A block dispatched again within this many cycles ... *)

val streak : int
(** ... this many times in a row is a loop head. *)

val min_skip : int
(** A summary that its loop ends after fewer cycles than this backs its
    head off. *)

type outcome =
  | Unfit  (** the loop does not qualify: the caller backs off *)
  | Paused  (** only this moment does not (a tick or the limit) *)
  | Summarised of {
      skipped : int;  (** the cycles not executed, 0 when none were *)
      short : bool;
          (** the loop itself ended the summary before {!min_skip}
              cycles: the caller backs off *)
      uniform : bool;  (** the loop reads a run of equal words *)
    }

val summarize : Cpu.t -> limit:int -> code_gen:(unit -> int) -> outcome
(** At a loop head: an instruction boundary at which the machine-run
    checks (halt, snapshot request, the absolute cycle [limit]) and the
    timer check have passed, with no debug register armed and the
    flight recorder below {!Trace.Full}.  Steps two iterations and, if
    the loop qualifies, applies its summary up to the first iteration
    at which a branch would go the other way, a moving access would
    leave its page or reach a cell the loop keeps, a moving store would
    reach a word a uniform load reads, such a load would read a
    different word, the tick would come due (IF set) or [limit] would
    pass.  [code_gen] changes whenever a page holding decoded code is
    written.  Every instruction stepped or skipped leaves the plain
    run's state. *)
