(* The experiment runner: the analogue of the paper's injection controller
   + crash handler + hardware watchdog loop (Figures 2 and 3).

   One [t] boots the kernel once to its post-boot snapshot, the only full
   machine image it keeps; each workload's start is a checkpoint over it.
   Each injection restores a start ("reboots" into the running
   benchmark), arms a debug register on the target instruction, flips the
   chosen bit when the instruction is first reached, and classifies the
   outcome. *)

open Kfi_isa
module L = Kfi_kernel.Layout
module Build = Kfi_kernel.Build

type golden = { g_exit : int; g_console : string; g_cycles : int }

(* A run's state seen twice, [pr_period] cycles apart, first at cycle
   [pr_cycle] with eip [pr_eip]; [pr_skipped] cycles of the periods that
   followed were not executed. *)
type proof = { pr_cycle : int; pr_period : int; pr_eip : int32; pr_skipped : int }

(* What one fault-free run of a workload executed, and the checkpoints
   kept along it.  [r_first] holds, per kernel-text byte, the cycle
   offset (4 bytes, little-endian) of the first step on which the debug
   compare in [Cpu.step] could see that address, [never] if none.
   [r_cycles] is the run's length, [max_int] when it ended without a
   terminal state (so it never proves anything); [r_len] is what it
   recorded either way.  [r_rungs.(j)] is rung [j >= 1] of the
   checkpoint ladder once captured; rung 0 is the workload's start. *)
type reach = {
  r_first : Bytes.t;
  r_cycles : int;
  r_len : int;
  r_rungs : Machine.checkpoint option array;
}

let never = -1l

(* Where an address's first-mark cycle lives in [r_first] (out of range
   outside the kernel text). *)
let map_offset addr = 4 * ((Int32.to_int addr land 0xFFFFFFFF) - L.kernel_text_base)

(* Rung [j] is the golden state at the first instruction boundary at or
   after [rung_spacing * j] cycles past the workload's start. *)
let rung_spacing = 65_536

type t = {
  build : Build.t;
  machine : Machine.t;
  baseline : Machine.snapshot;
      (* pristine post-boot state (pre-init): the profiler's start and
         the base of every checkpoint *)
  starts : Machine.checkpoint array;
      (* per-workload states at the first user-mode instruction, so
         experiments inject into a running benchmark, as in the paper
         (the injector never sees the program-load path) *)
  golden : golden array; (* per workload *)
  reach : reach option array array;
      (* [reach.(h).(w)]: the golden reach map and checkpoint ladder of
         workload [w] with hardening off ([h = 0], recorded at boot) or
         on ([h = 1], recorded on first use) *)
  manifest : (string * Digest.t) list;
  mutable max_cycles : int;
  mutable hardening : bool;
      (* enable the kernel's interface assertions (Section 7.4 ablation) *)
  mutable trace_level : Trace.level;
      (* flight-recorder level during injections; Ring by default so
         crash records carry a propagation path *)
  mutable last_wall : float;
      (* seconds spent restoring + executing in the last run_one *)
  mutable last_restore : float;   (* of which restoring the snapshot *)
  mutable last_classify : float;
      (* seconds classifying the last run's outcome (golden compare,
         fsck, dump reading, propagation) — after [last_wall] stops *)
  mutable last_cycles : int;      (* simulated cycles of the last run *)
  mutable last_injected_at : int option;
      (* cycle at which the last run's fault was injected *)
  mutable last_skipped : int;
      (* golden-prefix cycles the last run did not replay: its rung's
         offset, 0 when it started from rung 0 *)
  mutable last_proof : proof option;
      (* the last run's proof that its state recurs, if it had one *)
  mutable metrics : Kfi_obs.Metrics.t option;
      (* observability registry: per-phase latency histograms and
         outcome counters; never feeds back into any outcome *)
  mutable backend : Backend.t;
      (* how cycles execute and how snapshot state moves between
         experiments; swapped whole by [set_backend] *)
}

let default_max_cycles = 8_000_000

let boot_to_snapshot machine ~max_cycles =
  match Machine.run machine ~max_cycles with
  | Machine.Snapshot_point -> ()
  | other ->
    failwith
      (Printf.sprintf "kernel failed to reach the snapshot point: %s"
         (match other with
          | Machine.Powered_off n -> Printf.sprintf "powered off %d" n
          | Machine.Halted -> "halted"
          | Machine.Watchdog -> "watchdog"
          | Machine.Reset t -> "reset: " ^ Trap.name t.Trap.vector
          | Machine.Snapshot_point -> assert false))

(* step until the CPU first drops to user mode (init has exec'd the
   workload binary) *)
let run_to_user machine ~max_cycles =
  let cpu = Machine.cpu machine in
  let limit = cpu.Cpu.cycles + max_cycles in
  let rec loop () =
    if cpu.Cpu.mode = Cpu.User then ()
    else if cpu.Cpu.halted || cpu.Cpu.cycles >= limit then
      failwith "workload never reached user mode"
    else begin
      Cpu.step cpu;
      loop ()
    end
  in
  loop ()

let write_hardening build machine on =
  let addr = Build.symbol build "assert_hardening" in
  let pa = (Int32.to_int addr land 0xFFFFFFFF) - L.page_offset in
  Phys.write32 (Machine.phys machine) pa (if on then 1l else 0l)

(* The fault-free run of one workload, with exactly [run_one]'s prefix
   (restore the start, write the hardening flag, run) and
   [Machine.run]'s exit checks, stepped one instruction at a time so the
   reach map can be recorded.  Marking is conservative: the pre-step eip,
   and on a step where the timer IRQ is due the timer gate's handler,
   which is what the debug compare sees after delivery.  Each address
   keeps the cycle offset of its first mark, so no debug compare sees it
   earlier.  Too many or too early marks only skip less; a missing or
   late one would misclassify a target. *)
let golden_run build machine ~base ~start ~hardening ~max_cycles =
  Machine.restore_checkpoint machine ~base start;
  write_hardening build machine hardening;
  let cpu = Machine.cpu machine in
  let first = Bytes.make (4 * build.Build.text_size) '\255' in
  let start = cpu.Cpu.cycles in
  let mark a =
    let off = map_offset a in
    (* most steps revisit a marked address: one byte settles that *)
    if off >= 0 && off < Bytes.length first && Bytes.unsafe_get first off = '\255'
       && Bytes.get_int32_le first off = never
    then Bytes.set_int32_le first off (Int32.of_int (min (cpu.Cpu.cycles - start) 0xFFFF_FFFE))
  in
  let timer_gate = cpu.Cpu.idt_base + (Trap.number Trap.Timer_irq * 4) in
  let limit = start + max_cycles in
  let rec loop () =
    if cpu.Cpu.snapshot_request then Machine.Snapshot_point
    else if cpu.Cpu.halted then
      match cpu.Cpu.exit_code with
      | Some code -> Machine.Powered_off code
      | None -> Machine.Halted
    else if cpu.Cpu.cycles >= limit then Machine.Watchdog
    else begin
      mark cpu.Cpu.eip;
      if cpu.Cpu.cycles >= cpu.Cpu.next_timer && Flags.get cpu.Cpu.eflags Flags.if_ then
        mark
          (try Phys.read32 cpu.Cpu.phys timer_gate
           with Phys.Bad_physical_address _ -> 0l);
      Cpu.step cpu;
      loop ()
    end
  in
  let result = try loop () with Cpu.Triple_fault trap -> Machine.Reset trap in
  let r_len = cpu.Cpu.cycles - start in
  let r_cycles =
    match result with Machine.Watchdog | Machine.Snapshot_point -> max_int | _ -> r_len
  in
  let r_rungs = Array.make ((r_len / rung_spacing) + 1) None in
  (result, { r_first = first; r_cycles; r_len; r_rungs })

let create ?(max_cycles = default_max_cycles) () =
  let disk_image = Kfi_fsimage.Mkfs.create (Kfi_workload.Progs.fs_files ()) in
  let machine, build = Build.boot_machine ~disk_image () in
  boot_to_snapshot machine ~max_cycles;
  let baseline = Machine.snapshot machine in
  let nworkloads = List.length Kfi_workload.Progs.names in
  (* A checkpoint needs the writes since the restore of its base, so the
     starts are taken under dirty tracking, which the interpreter then
     runs without.  The TLB is flushed first: a start, like a snapshot,
     begins with an empty one. *)
  let phys = Machine.phys machine and disk = Machine.disk machine in
  Phys.set_tracking phys true;
  Devices.Disk.set_tracking disk true;
  let starts =
    Array.init nworkloads (fun w ->
        Machine.restore machine baseline;
        Build.set_workload machine w;
        run_to_user machine ~max_cycles;
        Mmu.flush (Machine.cpu machine).Cpu.mmu;
        Machine.checkpoint machine ~base:baseline)
  in
  Phys.set_tracking phys false;
  Devices.Disk.set_tracking disk false;
  let runs =
    Array.init nworkloads (fun w ->
        match
          golden_run build machine ~base:baseline ~start:starts.(w) ~hardening:false ~max_cycles
        with
        | Machine.Powered_off 0, reach ->
          let g_console = Machine.tty_contents machine in
          ({ g_exit = 0; g_console; g_cycles = reach.r_cycles }, Some reach)
        | Machine.Powered_off code, _ ->
          failwith (Printf.sprintf "golden run for workload %d exited %d" w code)
        | _ -> failwith (Printf.sprintf "golden run for workload %d did not complete" w))
  in
  {
    build;
    machine;
    baseline;
    starts;
    golden = Array.map fst runs;
    reach = [| Array.map snd runs; Array.make nworkloads None |];
    manifest = Kfi_workload.Progs.manifest ();
    max_cycles;
    hardening = false;
    trace_level = Trace.Ring;
    last_wall = 0.;
    last_restore = 0.;
    last_classify = 0.;
    last_cycles = 0;
    last_injected_at = None;
    last_skipped = 0;
    last_proof = None;
    metrics = None;
    backend = Backend.create Backend.Interp machine;
  }

let fsck_severity t =
  let image = Devices.Disk.image (Machine.disk t.machine) in
  Outcome.severity_of_fsck (Kfi_fsimage.Fsck.check ~manifest:t.manifest image)

let crash_location t eip =
  match Build.find_function t.build eip with
  | Some f -> (Some f.Kfi_asm.Assembler.f_name, Some f.Kfi_asm.Assembler.f_subsys)
  | None -> (None, None)

let set_hardening t on = t.hardening <- on

let set_trace_level t lvl = t.trace_level <- lvl

let set_max_cycles t n = t.max_cycles <- n

let set_metrics t m = t.metrics <- m

(* Swapping detaches the old backend first (hooks and dirty tracking
   off) so the machine is only ever owned by one backend.  The first
   restore after a swap to [Cached] is a full copy that resynchronizes
   the dirty tracking; every later one is O(dirty pages).  The rungs
   captured by runs go with the block cache: a fresh backend starts with
   the workloads' starts only. *)
let set_backend t kind =
  if Backend.kind t.backend <> kind then begin
    Backend.detach t.backend;
    t.backend <- Backend.create kind t.machine;
    Array.iter
      (Array.iter (Option.iter (fun r -> Array.fill r.r_rungs 0 (Array.length r.r_rungs) None)))
      t.reach
  end

let backend_kind t = Backend.kind t.backend

let max_cycles t = t.max_cycles

(* Read-only views of the boot products and the last run's timings (the
   record itself is private to this module). *)
let build t = t.build
let machine t = t.machine
let baseline t = t.baseline
let start t w = t.starts.(w)
let golden t w = t.golden.(w)
let hardening t = t.hardening
let trace_level t = t.trace_level
let last_cycles t = t.last_cycles
let last_injected_at t = t.last_injected_at
let last_proof t = t.last_proof

(* The full corruption-site -> crash-site path from the flight recorder.
   A bounded ring can lose the earliest hops and the crash handler's own
   frames can follow the faulting function, so the known endpoints are
   pinned: the injection site is prepended and the crash site appended
   when the recording does not already start/end there.  With tracing
   off this degenerates to the two endpoints. *)
let propagation t ~injected_at (target : Target.t) ~crash_fn ~crash_subsys =
  let cpu = Machine.cpu t.machine in
  let recorded =
    Kfi_trace.Forensics.propagation_path t.build cpu.Cpu.trace
      ~from_cycle:injected_at
    |> Kfi_trace.Forensics.hop_pairs
  in
  let path =
    match recorded with
    | (fn, _) :: _ when fn = target.Target.t_fn -> recorded
    | _ -> (target.Target.t_fn, target.Target.t_subsys) :: recorded
  in
  match (crash_fn, crash_subsys) with
  | Some cfn, Some csub ->
    (* cut at the first hop in the crashing function: everything after is
       the crash handler running, not error propagation *)
    let rec cut acc = function
      | [] -> None
      | (fn, sub) :: _ when fn = cfn -> Some (List.rev ((fn, sub) :: acc))
      | h :: tl -> cut (h :: acc) tl
    in
    (match cut [] path with Some p -> p | None -> path @ [ (cfn, csub) ])
  | _ -> path

let poke_hardening t = write_hardening t.build t.machine t.hardening

(* The reach map for [workload] under the current hardening mode; the
   hardened ones cost a golden run each, so they wait for first use.
   They are recorded with at least the default budget, so a reduced
   [max_cycles] in force at first use does not spoil them for good. *)
let reach_for t ~workload =
  let h = if t.hardening then 1 else 0 in
  match t.reach.(h).(workload) with
  | Some r -> r
  | None ->
    let _, r =
      golden_run t.build t.machine ~base:t.baseline ~start:t.starts.(workload)
        ~hardening:t.hardening ~max_cycles:(max t.max_cycles default_max_cycles)
    in
    t.reach.(h).(workload) <- Some r;
    r

(* Until DR0 fires, an injection replays the golden run exactly.  So a
   target the golden run never fetches is [Not_activated] without
   running, provided the whole golden run fits the watchdog budget (a
   shorter budget cuts the full run short: its cycle count differs). *)
let never_reached t r (target : Target.t) =
  let off = map_offset target.Target.t_addr in
  if r.r_cycles < t.max_cycles && off >= 0 && off < Bytes.length r.r_first
     && Bytes.get_int32_le r.r_first off = never
  then Some r.r_cycles
  else None

(* The earliest cycle offset at which the debug compare can see the
   target: its first mark, the recorded length when it has none, 0 when
   it lies outside the map. *)
let first_hit r (target : Target.t) =
  let off = map_offset target.Target.t_addr in
  if off < 0 || off >= Bytes.length r.r_first then 0
  else
    let c = Bytes.get_int32_le r.r_first off in
    if c = never then r.r_len else Int32.to_int c land 0xFFFF_FFFF

(* The golden checkpoint ladder.  Until DR0 fires an injection is the
   golden run, so its state at each rung boundary is the rung: runs on
   the cached backend traced at [Ring] capture the missing rungs below
   their target's first hit as they pass them, and later runs start from
   the latest rung at or before theirs.  Rungs carry a [Ring]-level
   flight recorder, so a [Full] run (which also records events) starts
   at rung 0, and an [Off] run empties the ring. *)
let ladder_usable t = Backend.kind t.backend = Backend.Cached && t.trace_level <> Trace.Full

let ladder_capturing t = Backend.kind t.backend = Backend.Cached && t.trace_level = Trace.Ring

(* The latest rung a run may start from: rung 0, or one captured, at or
   before the target's first hit and inside the watchdog budget, both
   judged by the rung's actual cycle, which a disk transfer can carry
   past its boundary. *)
let pick_rung t r ~start ~first =
  let rec find j =
    if j < 1 then start
    else
      match r.r_rungs.(j) with
      | Some k
        when let off = Machine.checkpoint_cycles k - Machine.checkpoint_cycles start in
             off <= first && off < t.max_cycles ->
        k
      | _ -> find (j - 1)
  in
  find (min (Array.length r.r_rungs - 1) (first / rung_spacing))

exception Deadline_exceeded of float
(* the wall-clock budget (seconds) that was exceeded *)

(* Slice size for deadline polling.  The simulated watchdog budget is
   checked in simulated cycles by [Machine.run]; a *wall-clock* deadline
   needs the host clock consulted periodically, so the run is cut into
   slices — [Machine.run]'s budget is relative and resumable, making
   this safe.  ~200k cycles is a few milliseconds of host time. *)
let deadline_slice = 200_000

(* ----- provable hangs -----

   A run that keeps the timer tick masked is often a kernel loop whose
   whole machine state repeats.  The machine is deterministic and, short
   of [rdtsc], blind to the cycle counter, so a state seen twice with no
   counter read in between repeats that period until the watchdog.  Whole
   periods can then be added to the counter instead of executed. *)

type recurrence = Proven of proof | Unproven | Reset of Trap.t

(* Steps one search for a recurring register state may take; the loops
   seen in hangs repeat every 41 to 341 cycles. *)
let recurrence_steps = 4096

(* Remember the registers, eip, eflags and mode, and step the reference
   interpreter under [Machine.run]'s stop checks until they recur.  Take
   a checkpoint there, step until they recur again, and compare the whole
   state (memory, disk, devices, TLB: [Machine.same_state]).  If the two
   match and no [rdtsc] ran between them, skip whole periods, leaving a
   tail of at least one period that also refills the flight recorder,
   and advance the recorder's count by the records skipped.  The tail
   re-executes every write of a period, so what the run leaves at the
   watchdog is what the full run leaves.  A timer not yet due keeps its
   distance; one already due stays due.  Nothing is tried with a debug
   register armed (its hook is host code) or at trace level [Full],
   whose event ring a tail cannot be trusted to refill. *)
let skip_recurrence machine ~base ~limit =
  let cpu = Machine.cpu machine in
  let regs = Array.copy cpu.Cpu.regs
  and eip = cpu.Cpu.eip
  and eflags = cpu.Cpu.eflags
  and mode = cpu.Cpu.mode in
  let rec search n =
    n > 0 && (not cpu.Cpu.halted) && (not cpu.Cpu.snapshot_request) && cpu.Cpu.cycles < limit
    && begin
      Cpu.step cpu;
      (Int32.equal cpu.Cpu.eip eip && cpu.Cpu.eflags = eflags && cpu.Cpu.mode = mode
       && cpu.Cpu.regs = regs)
      || search (n - 1)
    end
  in
  let trace = cpu.Cpu.trace in
  match
    if cpu.Cpu.dr7 <> 0 || Trace.level trace = Trace.Full || not (search recurrence_steps)
    then None
    else begin
      let k = Machine.checkpoint machine ~base in
      let c1 = cpu.Cpu.cycles and seen = Trace.seen trace and reads = cpu.Cpu.cycle_reads in
      if search recurrence_steps && cpu.Cpu.cycle_reads = reads
         && Machine.same_state ~base k (Machine.checkpoint machine ~base)
      then Some (c1, Trace.seen trace - seen)
      else None
    end
  with
  | exception Cpu.Triple_fault trap -> Reset trap
  | None -> Unproven
  | Some (c1, records) ->
    let period = cpu.Cpu.cycles - c1 in
    let tail = if records = 0 then 1 else max 1 ((Trace.capacity trace + records - 1) / records) in
    let n = max 0 (((limit - cpu.Cpu.cycles) / period) - tail) in
    let skipped = n * period in
    if cpu.Cpu.next_timer <> max_int && cpu.Cpu.next_timer > cpu.Cpu.cycles then
      cpu.Cpu.next_timer <- cpu.Cpu.next_timer + skipped;
    cpu.Cpu.cycles <- cpu.Cpu.cycles + skipped;
    Trace.advance trace (n * records);
    Proven { pr_cycle = c1; pr_period = period; pr_eip = eip; pr_skipped = skipped }

(* Run the machine to completion of the *simulated* watchdog budget,
   counted from [start], checking [deadline] (absolute [gettimeofday]
   seconds) between slices ending at multiples of [deadline_slice]
   cycles past [start].  [stop_at ()] names a further cycle to pause at;
   [on_stop] runs at every pause.  Raises [Deadline_exceeded] if the host
   clock passes the deadline first.

   On the cached backend, a pause after the injection ([injected ()])
   at which the timer tick has been due, and masked, for at least a
   whole slice is a hang candidate: the 1st, 2nd, 4th, 8th, ... such
   pause tries [skip_recurrence], until one proof succeeds. *)
let run_with_deadline t ~start ~deadline ~stop_at ~on_stop ~injected =
  let cpu = Machine.cpu t.machine in
  let limit = start + t.max_cycles in
  let masked = ref 0 in
  let try_proof () =
    if t.last_proof = None && Backend.kind t.backend = Backend.Cached && injected ()
       && (not (Flags.get cpu.Cpu.eflags Flags.if_))
       && cpu.Cpu.next_timer <= cpu.Cpu.cycles - deadline_slice
    then begin
      incr masked;
      if !masked land (!masked - 1) <> 0 then None
      else
        match skip_recurrence t.machine ~base:t.baseline ~limit with
        | Proven p ->
          t.last_proof <- Some { p with pr_cycle = p.pr_cycle - start };
          None
        | Unproven -> None
        | Reset trap -> Some (Machine.Reset trap)
    end
    else None
  in
  let rec go () =
    (match deadline with
     | Some d when Unix.gettimeofday () > d -> raise (Deadline_exceeded d)
     | _ -> ());
    let slice_end = start + ((((cpu.Cpu.cycles - start) / deadline_slice) + 1) * deadline_slice) in
    let stop = min limit (min slice_end (stop_at ())) in
    match Backend.run t.backend ~max_cycles:(stop - cpu.Cpu.cycles) with
    | Machine.Watchdog when cpu.Cpu.cycles < limit ->
      (* only a pause, not the real watchdog: keep going *)
      on_stop ();
      (match try_proof () with Some r -> r | None -> go ())
    | r -> r
  in
  go ()

(* While DR0 has not fired, pause at each missing rung boundary at or
   before the target's first hit and capture the rung there: the first
   instruction boundary at or after it, since the previous pause was
   before it. *)
let rung_capture t r ~start_cycles ~first ~injected_at =
  let cpu = Machine.cpu t.machine in
  let n = Array.length r.r_rungs in
  let prev = ref cpu.Cpu.cycles in
  let stop_at () =
    let rec next j =
      if !injected_at <> None || j >= n || j * rung_spacing > first then max_int
      else if r.r_rungs.(j) = None then start_cycles + (j * rung_spacing)
      else next (j + 1)
    in
    next (((cpu.Cpu.cycles - start_cycles) / rung_spacing) + 1)
  in
  let on_stop () =
    let j = (cpu.Cpu.cycles - start_cycles) / rung_spacing in
    if !injected_at = None && j >= 1 && j < n && j * rung_spacing <= first
       && !prev < start_cycles + (j * rung_spacing) && r.r_rungs.(j) = None
    then r.r_rungs.(j) <- Some (Machine.checkpoint t.machine ~base:t.baseline);
    prev := cpu.Cpu.cycles
  in
  (stop_at, on_stop)

(* Run one injection experiment in full.  [deadline], if given, is an
   absolute wall-clock time past which the run is abandoned with
   [Deadline_exceeded]; the machine is left mid-flight but every
   injection restores a checkpoint first, so the runner stays usable. *)
let run_full ?deadline t ~workload ~reach (target : Target.t) ~wall0 =
  let start = t.starts.(workload) in
  let start_cycles = Machine.checkpoint_cycles start in
  let first = if ladder_usable t then first_hit reach target else 0 in
  Machine.restore_checkpoint t.machine ~base:t.baseline (pick_rung t reach ~start ~first);
  t.last_restore <- Unix.gettimeofday () -. wall0;
  poke_hardening t;
  let cpu = Machine.cpu t.machine in
  t.last_skipped <- cpu.Cpu.cycles - start_cycles;
  (* the start carries the (empty, Off) boot-time trace state: arm the
     recorder afresh so each injection's trace is isolated; a later rung
     carries the ring a [Ring] run has recorded by then *)
  Trace.set_level cpu.Cpu.trace t.trace_level;
  if t.last_skipped = 0 || t.trace_level = Trace.Off then Trace.clear cpu.Cpu.trace;
  let injected_at = ref None in
  let stop_at, on_stop =
    if ladder_capturing t then rung_capture t reach ~start_cycles ~first ~injected_at
    else ((fun () -> max_int), ignore)
  in
  cpu.Cpu.dr.(0) <- target.Target.t_addr;
  cpu.Cpu.dr7 <- 1;
  cpu.Cpu.on_debug_hit <-
    Some
      (fun c _ ->
        (match target.Target.t_kind with
         | Target.Text ->
           (* flip the bit in kernel text (direct-mapped) *)
           let pa =
             (Int32.to_int target.Target.t_addr land 0xFFFFFFFF) - L.page_offset
             + target.Target.t_byte
           in
           let old = Phys.read8 c.Cpu.phys pa in
           Cpu.poke_phys c pa (old lxor (1 lsl target.Target.t_bit))
         | Target.Register ->
           (* flip a bit in a general-purpose register (Xception-style) *)
           let r = target.Target.t_byte land 7 in
           c.Cpu.regs.(r) <-
             Int32.logxor c.Cpu.regs.(r)
               (Int32.shift_left 1l (target.Target.t_bit land 31)));
        c.Cpu.dr7 <- 0;
        injected_at := Some c.Cpu.cycles);
  let result =
    (* the finally block also runs when [Deadline_exceeded] (or any
       other exception) aborts the run: injection hooks must never leak
       into the next experiment on this runner *)
    Fun.protect
      ~finally:(fun () ->
        cpu.Cpu.on_debug_hit <- None;
        cpu.Cpu.dr7 <- 0;
        t.last_wall <- Unix.gettimeofday () -. wall0;
        t.last_cycles <- cpu.Cpu.cycles - start_cycles;
        (* stale on the deadline-abandoned path otherwise: the
           classification below never runs then *)
        t.last_classify <- 0.;
        t.last_injected_at <- !injected_at)
      (fun () ->
        run_with_deadline t ~start:start_cycles ~deadline ~stop_at ~on_stop
          ~injected:(fun () -> !injected_at <> None))
  in
  let golden = t.golden.(workload) in
  let classify0 = Unix.gettimeofday () in
  let outcome =
  match !injected_at with
  | None -> Outcome.Not_activated
  | Some t0 -> (
    let latency_from cycle = max 1 (cycle - t0) in
    match result with
    | Machine.Powered_off code ->
      let console = Machine.tty_contents t.machine in
      if code = golden.g_exit && String.equal console golden.g_console then begin
        (* output clean; the file system must also have survived *)
        match fsck_severity t with
        | Outcome.Normal -> Outcome.Not_manifested
        | sev -> Outcome.Fail_silence_violation ("file system damaged", sev)
      end
      else begin
        let why =
          if code <> golden.g_exit then Printf.sprintf "exit code %d" code
          else "console output differs"
        in
        Outcome.Fail_silence_violation (why, fsck_severity t)
      end
    | Machine.Halted -> (
      (* the guest crash handler wrote a dump *)
      match Build.read_dump t.machine with
      | Some d ->
        let cause =
          Outcome.cause_of_dump ~vector:d.Build.d_vector ~cr2:d.Build.d_cr2
        in
        let latency =
          if d.Build.d_vector = 255 then latency_from d.Build.d_cycles
          else latency_from cpu.Cpu.last_fault_cycle
        in
        let crash_fn, crash_subsys = crash_location t d.Build.d_eip in
        Outcome.Crash
          {
            cause;
            latency;
            crash_fn;
            crash_subsys;
            dumped = true;
            severity = fsck_severity t;
            crash_eip = d.Build.d_eip;
            crash_cr2 = d.Build.d_cr2;
            propagation = propagation t ~injected_at:t0 target ~crash_fn ~crash_subsys;
          }
      | None ->
        (* halted without a dump record: treat like an undumped crash *)
        Outcome.Crash
          {
            cause = Outcome.Other_trap (-1);
            latency = latency_from cpu.Cpu.cycles;
            crash_fn = None;
            crash_subsys = None;
            dumped = false;
            severity = fsck_severity t;
            crash_eip = cpu.Cpu.eip;
            crash_cr2 = cpu.Cpu.cr2;
            propagation =
              propagation t ~injected_at:t0 target ~crash_fn:None ~crash_subsys:None;
          })
    | Machine.Reset trap ->
      (* triple fault: the dump itself failed (hang/unknown crash) *)
      let cause =
        Outcome.cause_of_dump ~vector:(Trap.number trap.Trap.vector) ~cr2:cpu.Cpu.cr2
      in
      let crash_fn, crash_subsys = crash_location t cpu.Cpu.eip in
      Outcome.Crash
        {
          cause;
          latency = latency_from cpu.Cpu.last_fault_cycle;
          crash_fn;
          crash_subsys;
          dumped = false;
          severity = fsck_severity t;
          crash_eip = cpu.Cpu.eip;
          crash_cr2 = cpu.Cpu.cr2;
          propagation = propagation t ~injected_at:t0 target ~crash_fn ~crash_subsys;
        }
    | Machine.Watchdog -> Outcome.Hang (fsck_severity t)
    | Machine.Snapshot_point -> failwith "unexpected snapshot point during experiment")
  in
  t.last_classify <- Unix.gettimeofday () -. classify0;
  outcome

(* Rungs captured over all ladders, and their approximate footprint. *)
let ladder_size t =
  let n = ref 0 and bytes = ref 0 in
  Array.iter
    (Array.iter
       (Option.iter (fun r ->
            Array.iter
              (Option.iter (fun k ->
                   incr n;
                   bytes := !bytes + Machine.checkpoint_bytes k))
              r.r_rungs)))
    t.reach;
  (!n, !bytes)

(* The block cache's counters published per injection, as metric name
   and [Bbexec.stats] field. *)
let bb_counters =
  Bbexec.
    [
      ("bb.built", fun s -> s.st_built);
      ("bb.reverified", fun s -> s.st_reverified);
      ("bb.invalidated_pages", fun s -> s.st_invalidated_pages);
      ("bb.fallback.timer", fun s -> s.st_fallback_timer);
      ("bb.fallback.debug", fun s -> s.st_fallback_debug);
      ("bb.fallback.fetch", fun s -> s.st_fallback_fetch);
      ("bb.fallback.undecodable", fun s -> s.st_fallback_undecodable);
    ]

(* Resolve a target the golden run never reaches straight from its
   reach map, leaving exactly what a full run would report: the golden
   cycle count, no injection cycle, and a fresh (empty) trace ring. *)
let run_one ?deadline t ~workload (target : Target.t) =
  let wall0 = Unix.gettimeofday () in
  let bb0 = match t.metrics with None -> None | Some _ -> Backend.stats t.backend in
  let reach = reach_for t ~workload in
  let skipped = never_reached t reach target in
  t.last_skipped <- 0;
  t.last_proof <- None;
  let outcome =
    match skipped with
    | None -> run_full ?deadline t ~workload ~reach target ~wall0
    | Some cycles ->
      let trace = (Machine.cpu t.machine).Cpu.trace in
      Trace.set_level trace t.trace_level;
      Trace.clear trace;
      t.last_restore <- 0.;
      t.last_wall <- Unix.gettimeofday () -. wall0;
      t.last_classify <- 0.;
      t.last_cycles <- cycles;
      t.last_injected_at <- None;
      Outcome.Not_activated
  in
  (* phase spans + outcome counters; pure observation — nothing here
     feeds back into the outcome or any determinism-gated artifact *)
  (match t.metrics with
   | None -> ()
   | Some m ->
     let module M = Kfi_obs.Metrics in
     M.observe m "phase.restore" t.last_restore;
     M.observe m "phase.execute"
       (Float.max 0. (t.last_wall -. t.last_restore));
     M.observe m "phase.classify" t.last_classify;
     M.observe m "inj.wall" (t.last_wall +. t.last_classify);
     M.observe m ("inj.wall." ^ Outcome.category outcome) (t.last_wall +. t.last_classify);
     M.incr m "inj.count";
     if skipped <> None then M.incr m "inj.skipped";
     if t.last_skipped > 0 then begin
       M.incr m "inj.ladder";
       M.incr m ~by:t.last_skipped "inj.prefix_skipped_cycles"
     end;
     Option.iter
       (fun p ->
         M.incr m "inj.hang_proven";
         M.incr m ~by:p.pr_skipped "inj.hang_skipped_cycles")
       t.last_proof;
     let rungs, bytes = ladder_size t in
     M.set_gauge m "ladder.rungs" (float_of_int rungs);
     M.set_gauge m "ladder.bytes" (float_of_int bytes);
     if t.last_injected_at <> None then M.incr m "inj.activated";
     M.incr m ("outcome." ^ Outcome.category outcome);
     (* the interpreter has no block cache, so its runs add nothing *)
     match (bb0, Backend.stats t.backend) with
     | Some s0, Some s1 ->
       List.iter
         (fun (name, field) ->
           let d = field s1 - field s0 in
           if d > 0 then M.incr m ~by:d name)
         bb_counters
     | _ -> ());
  outcome
