(** Loop summaries: the block engine applies the rest of an affine loop's
    iterations on the current page at once instead of executing them.

    An affine loop is one whose every carried register and live-in
    memory cell moves by a fixed step per iteration, whose accesses
    stay at one address or move by a fixed stride, and whose exit test
    compares such values.  The kernel's [clear_page], [memset],
    [memcpy] word loop and [copy_page] are such loops.  The analysis
    steps two iterations on {!Cpu.step}; applying a summary replays the
    skipped iterations' stores through {!Cpu.wr32}/{!Cpu.wr8} (and the
    loads they store through {!Cpu.rd32}), and leaves the registers,
    eflags, cycle counter and flight recorder exactly as the plain run
    leaves them at the loop head. *)

val window : int
(** A block dispatched again within this many cycles ... *)

val streak : int
(** ... this many times in a row is a loop head. *)

val summarize : Cpu.t -> limit:int -> code_gen:(unit -> int) -> int
(** At a loop head: an instruction boundary at which the machine-run
    checks (halt, snapshot request, the absolute cycle [limit]) and the
    timer check have passed, with no debug register armed and the
    flight recorder below {!Trace.Full}.  Steps two iterations and, if
    the loop qualifies, applies its summary up to the first iteration
    at which a branch would go the other way, a moving access would
    leave its page or reach a cell the loop keeps, the tick would come
    due (IF set) or [limit] would pass.  [code_gen] changes whenever a
    page holding decoded code is written.  Returns the cycles skipped,
    0 when none were, or -1 when the loop does not qualify (the caller
    backs off).  Every instruction stepped or skipped leaves the plain
    run's state. *)
