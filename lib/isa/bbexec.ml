(* The cached backend's execution core: basic blocks of pre-decoded,
   pre-compiled instructions keyed by physical address.

   A block is a straight-line run of instructions decoded once from
   physical memory, ending at the first control transfer (or anything
   else that can move eip, change paging, or touch a device port), at a
   page boundary, or after [max_block] instructions.  Blocks never span
   pages, so coherence is per physical page: the CPU's write guard and
   the incremental-restore path report writes to a page holding decoded
   code through [Cpu.on_code_invalidate], which bumps that page's epoch.
   A block keeps every byte its decoder read and the epoch at which they
   last matched memory; dispatching it after its page's epoch moved
   compares those bytes with memory again and rebuilds the block only if
   they differ.  Most such writes touch data sharing a page with code,
   or restore the bytes a run changed, so the block survives them.

   Per-instruction semantics are the interpreter's own: the machine-run
   checks (snapshot request, halt, watchdog limit), the timer-IRQ and
   debug-register checks, the register/eip/eflags rollback protocol and
   the fault handlers observe the same state at the same instruction
   boundaries as [Machine.run]/[Cpu.step].  Anything the fast path
   cannot prove identical — a due timer, a block overlapping an armed
   debug address, a translation that faults or lands off the block —
   falls back to a literal [Cpu.step] call.  The speed comes from what
   decode-time and block-entry resolution removes: the per-step icache
   hash lookup, re-decode, the trace path's second translation and
   opcode re-read (a pre-packed trace word per instruction), the
   per-step debug-register compare (a per-block range check), the
   execute dispatch (pre-compiled closures), the per-fetch MMU
   translation (a TLB-generation compare while the TLB is quiet), the
   per-step eip and cycle-counter updates (everything that reads or
   perturbs them ends a block, so both are maintained lazily and the
   timer/watchdog compares collapse into one entry-time bound) and the
   rollback register save (a per-instruction rollback class; only
   read-modify-write forms and the [execute] fallback save anything).

   A block dispatched again within [Loopsum.window] cycles,
   [Loopsum.streak] times in a row, is a loop head: [Loopsum.summarize]
   applies the rest of an affine loop's iterations on the current page
   at once.  A head whose loop does not qualify, or whose summary the
   loop itself ends after fewer than [Loopsum.min_skip] cycles, backs
   off, waiting out twice as many heads after each such attempt. *)

let max_block = 64

(* Per-instruction metadata, one word: bits 0-7 the first opcode byte
   (for the flight recorder), bits 8-9 the rollback class
   ([Cpu.insn_rollback]: 0 none, 1 free, 2 push, 3 full), bit 10 "has a
   memory operand" (call the recorder thunk), bit 11 "block ender". *)
let rb_shift = 8
let rb_mask = 3 lsl rb_shift
let rb_full = 3 lsl rb_shift
let meta_mem = 0x400
let meta_eip = 0x800 (* block ender: closure reads/leaves the authoritative eip *)

type block = {
  b_exec : (Cpu.t -> unit) array; (* compiled bodies, one per instruction *)
  b_mem : (Cpu.t -> int) array;   (* flight-recorder memory operands *)
  b_meta : int array;             (* opcode byte + flag bits, see above *)
  b_offs : int array;             (* byte offset of each insn in the block *)
  b_len : int;                    (* total bytes *)
  b_n : int;
  b_bytes : Bytes.t;
      (* every byte the decoder read from the entry on: the block's
         instructions and whatever ended it (an undecodable or
         page-crossing instruction) *)
  mutable b_epoch : int;          (* page epoch at which [b_bytes] last matched *)
  mutable b_eip0 : int32;         (* entry eip the memoized eips were built for *)
  mutable b_eips : int32 array;   (* pre-boxed eips, [b_n + 1] entries; [||] = unset *)
  mutable b_user : bool;          (* mode the memoized trace words encode *)
  mutable b_tws : int array;      (* pre-packed [Trace.record_tw] words *)
  mutable b_last : int;           (* cycle of its last dispatch *)
  mutable b_streak : int;         (* dispatches in a row within [Loopsum.window] *)
  mutable b_fails : int;          (* loop attempts in a row that backed off here *)
  mutable b_wait : int;           (* loop heads to pass before the next one *)
}

let empty_block =
  {
    b_exec = [||];
    b_mem = [||];
    b_meta = [||];
    b_offs = [||];
    b_len = 0;
    b_n = 0;
    b_bytes = Bytes.empty;
    b_epoch = 0;
    b_eip0 = 0l;
    b_eips = [||];
    b_user = false;
    b_tws = [||];
    b_last = min_int / 2;
    b_streak = 0;
    b_fails = 0;
    b_wait = 0;
  }

(* Direct-mapped front of the block table: most dispatches are to a
   recently executed block, and this avoids the hashing C call. *)
let d_size = 8192

type t = {
  cpu : Cpu.t;
  cache : (int, block) Hashtbl.t; (* physical address of first insn -> block *)
  epochs : int array;             (* per physical page: writes reported by the hook *)
  d_keys : int array;             (* pa0 per slot, -1 = empty *)
  d_vals : block array;
  save : int array;               (* rollback register save, native ints *)
  (* Per-block execution scalars, held here instead of in local refs so a
     block dispatch allocates nothing (classic-mode ocamlopt heap-boxes
     refs that are live across an exception handler). *)
  mutable cur : int;              (* index of the executing instruction *)
  mutable st : int;               (* 0 = running, 1 = stop, 2 = stop + step fallback *)
  mutable mgen : int;             (* TLB generation the block was verified against *)
  mutable sv_efl : int;           (* eflags save for full-rollback instructions *)
  mutable gen : int; (* bumped on any page write: executing blocks re-check *)
  mutable built : int;
  mutable hits : int;
  mutable reverified : int;
  mutable invalidated_pages : int;
  (* dispatches handed to the reference [Cpu.step], by reason *)
  mutable fb_timer : int;
  mutable fb_debug : int;
  mutable fb_fetch : int;
  mutable fb_undecodable : int;
  mutable loops : int;            (* loop summaries applied *)
  mutable loop_skipped : int;     (* cycles they did not execute *)
  mutable loop_scans : int;       (* ... of loops reading a run of equal words *)
  mutable loop_backoffs : int;    (* heads backed off for a short summary *)
}

type stats = {
  st_blocks : int;
  st_built : int;
  st_hits : int;
  st_reverified : int;
  st_invalidated_pages : int;
  st_fallback_timer : int;
  st_fallback_debug : int;
  st_fallback_fetch : int;
  st_fallback_undecodable : int;
  st_loops : int;
  st_loop_skipped_cycles : int;
  st_loop_scans : int;
  st_loop_backoffs : int;
}

let stats t =
  {
    st_blocks = Hashtbl.length t.cache;
    st_built = t.built;
    st_hits = t.hits;
    st_reverified = t.reverified;
    st_invalidated_pages = t.invalidated_pages;
    st_fallback_timer = t.fb_timer;
    st_fallback_debug = t.fb_debug;
    st_fallback_fetch = t.fb_fetch;
    st_fallback_undecodable = t.fb_undecodable;
    st_loops = t.loops;
    st_loop_skipped_cycles = t.loop_skipped;
    st_loop_scans = t.loop_scans;
    st_loop_backoffs = t.loop_backoffs;
  }

let flush t =
  Hashtbl.reset t.cache;
  Array.fill t.d_keys 0 d_size (-1);
  t.gen <- t.gen + 1

(* The hook clears the page's mark, so later writes stay silent until a
   build or a re-check marks it again; both record the epoch they saw. *)
let invalidate_page t page =
  if page < 0 then flush t
  else begin
    t.epochs.(page) <- t.epochs.(page) + 1;
    t.invalidated_pages <- t.invalidated_pages + 1;
    t.gen <- t.gen + 1
  end

let create cpu =
  let t =
    {
      cpu;
      cache = Hashtbl.create 4096;
      epochs = Array.make ((Phys.size cpu.Cpu.phys + Mmu.page_size - 1) lsr Mmu.page_shift) 0;
      d_keys = Array.make d_size (-1);
      d_vals = Array.make d_size empty_block;
      save = Array.make 8 0;
      cur = 0;
      st = 0;
      mgen = 0;
      sv_efl = 0;
      gen = 0;
      built = 0;
      hits = 0;
      reverified = 0;
      invalidated_pages = 0;
      fb_timer = 0;
      fb_debug = 0;
      fb_fetch = 0;
      fb_undecodable = 0;
      loops = 0;
      loop_skipped = 0;
      loop_scans = 0;
      loop_backoffs = 0;
    }
  in
  cpu.Cpu.on_code_invalidate <- Some (invalidate_page t);
  t

let detach t =
  (match t.cpu.Cpu.on_code_invalidate with
   | Some _ -> t.cpu.Cpu.on_code_invalidate <- None
   | None -> ());
  flush t

(* Anything that can move eip non-sequentially, halt, flush the MMU,
   write a device port, write the IF flag, or read the cycle counter ends
   a block; the instruction itself is still part of it (executed last,
   then control returns to the dispatcher).  The IF/cycle cases ([Sti],
   [Cli], [Rdtsc], the disk ops' DMA penalty) are what let the execution
   loop hoist the per-instruction timer/watchdog checks and the cycle
   counter itself to the block level: within a block, cycles advance by
   exactly one per instruction and the timer-enable state is frozen. *)
let block_ender (insn : Insn.t) =
  match insn with
  | Insn.Jmp _ | Insn.Jmp8 _ | Insn.Jcc _ | Insn.Jcc8 _ | Insn.Call _
  | Insn.Call_rm _ | Insn.Jmp_rm _ | Insn.Ret | Insn.Lret | Insn.Int_ _
  | Insn.Int3 | Insn.Ud2 | Insn.Iret | Insn.Hlt | Insn.Out_al
  | Insn.Mov_cr_r _ | Insn.Diskrd | Insn.Diskwr
  | Insn.Sti | Insn.Cli | Insn.Rdtsc -> true
  | _ -> false

exception Page_end

(* Decode a block starting at physical [pa0], reading only bytes of that
   page.  An instruction that crosses the page edge, fails to decode, or
   runs off physical memory is left out: the dispatcher re-executes from
   that point through the reference [Cpu.step], which re-derives the
   exact fault or cross-page fetch the interpreter would.  The bytes of
   such an instruction are kept with the block all the same: they decide
   where it ends. *)
let build t pa0 =
  let cpu = t.cpu in
  let phys = cpu.Cpu.phys in
  let page_lim = min (Phys.size phys) ((pa0 lor (Mmu.page_size - 1)) + 1) in
  let rev = ref [] in
  let n = ref 0 in
  let off = ref 0 in
  let stop = ref false in
  let read_end = ref pa0 in
  while (not !stop) && !n < max_block && pa0 + !off < page_lim do
    let base = pa0 + !off in
    let fetch i =
      let a = base + i in
      if a >= page_lim then raise Page_end;
      if a >= !read_end then read_end := a + 1;
      Phys.read8 phys a
    in
    match Decode.decode fetch with
    | exception Page_end -> stop := true
    | Decode.Invalid -> stop := true
    | Decode.Ok (insn, len) ->
      rev := (insn, Phys.read8 phys base, !off) :: !rev;
      incr n;
      off := !off + len;
      if block_ender insn then stop := true
  done;
  let items = Array.of_list (List.rev !rev) in
  let n = Array.length items in
  let page = pa0 lsr Mmu.page_shift in
  let mems = Array.map (fun (insn, _, _) -> Cpu.mem_thunk insn) items in
  let b =
    {
      b_exec = Array.map (fun (insn, _, _) -> Cpu.compile_insn insn) items;
      b_mem = mems;
      b_meta =
        Array.mapi
          (fun i (insn, op, _) ->
            op
            lor ((match Cpu.insn_rollback insn with
                  | Cpu.Rb_none -> 0
                  | Cpu.Rb_free -> 1
                  | Cpu.Rb_push -> 2
                  | Cpu.Rb_full -> 3)
                 lsl rb_shift)
            lor (if mems.(i) != Cpu.no_mem then meta_mem else 0)
            lor (if block_ender insn then meta_eip else 0))
          items;
      b_offs = Array.map (fun (_, _, off) -> off) items;
      b_len = !off;
      b_n = n;
      b_bytes = Phys.blit_out phys ~src:pa0 ~len:(!read_end - pa0);
      b_epoch = t.epochs.(page);
      b_eip0 = 0l;
      b_eips = [||];
      b_user = false;
      b_tws = [||];
      b_last = min_int / 2;
      b_streak = 0;
      b_fails = 0;
      b_wait = 0;
    }
  in
  Hashtbl.replace t.cache pa0 b;
  Cpu.mark_code_page cpu page;
  t.built <- t.built + 1;
  b

let u32 v = Int32.to_int v land 0xFFFFFFFF

(* Restore the state the interpreter's fault path would observe after
   instruction [idx] of [b] raised: per-insn rollback class ([Rb_full]
   restores the register file and eflags from the entry-time save,
   [Rb_push] undoes the single esp decrement, the rest wrote nothing),
   the pre-instruction eip, and — unless the instruction is a block
   ender, whose closure runs with the authoritative counter and may
   advance it (disk DMA) — the lazily maintained cycle count.  Kept
   out of [exec_block] so the handlers don't capture a closure. *)
let rollback t b eips c0 idx =
  let cpu = t.cpu in
  let meta = Array.unsafe_get b.b_meta idx in
  if meta land meta_eip = 0 then cpu.Cpu.cycles <- c0 + idx;
  (match (meta land rb_mask) lsr rb_shift with
   | 3 ->
     for k = 0 to 7 do
       Array.unsafe_set cpu.Cpu.regs k (Int32.of_int (Array.unsafe_get t.save k))
     done;
     cpu.Cpu.eflags <- t.sv_efl
   | 2 -> cpu.Cpu.regs.(Insn.esp) <- Int32.add cpu.Cpu.regs.(Insn.esp) 4l
   | _ -> ());
  cpu.Cpu.eip <- Array.unsafe_get eips idx

(* Execute the instructions of [b] in sequence, stopping (with the block
   state consistent for the dispatcher) at the first event the fast path
   does not handle inline.  Observable behavior mirrors [Cpu.step] for
   every instruction; the per-instruction work is what remains after the
   block-entry hoists described at the top of the file. *)
let exec_block t b pa0 limit =
  let cpu = t.cpu in
  let eip0 = cpu.Cpu.eip in
  let n = b.b_n in
  (* Debug registers cannot change inside a straight-line block (only the
     injector hook writes them, and a hit exits the block), so one range
     check at entry decides the whole block.  A block that contains an
     armed address runs through the reference step — one instruction per
     dispatch, each with the interpreter's own debug compare and hook
     ordering.  Only the (single) block overlapping the injection target
     pays this, and only until the hit disarms the register. *)
  let dbg =
    match cpu.Cpu.on_debug_hit with
    | None -> false
    | Some _ ->
      cpu.Cpu.dr7 <> 0
      &&
      let ieip0 = u32 eip0 in
      let hit = ref false in
      for i = 0 to 3 do
        if cpu.Cpu.dr7 land (1 lsl i) <> 0 then begin
          let a = u32 cpu.Cpu.dr.(i) in
          if a >= ieip0 && a < ieip0 + b.b_len then hit := true
        end
      done;
      !hit
  in
  if dbg then begin
    t.fb_debug <- t.fb_debug + 1;
    Cpu.step cpu
  end
  else begin
    (* Pre-boxed eip for every instruction boundary plus the packed trace
       word per instruction, memoized on the entry address and mode:
       re-entering a block at the same eip (the overwhelmingly common
       case) turns the per-instruction eip update into a pointer store
       instead of an Int32 allocation, and the trace record into three
       unboxed array stores. *)
    let user = match cpu.Cpu.mode with Cpu.User -> true | Cpu.Kernel -> false in
    if
      not
        (Array.length b.b_eips > 0 && Int32.equal b.b_eip0 eip0 && b.b_user = user)
    then begin
      let a =
        Array.init (n + 1) (fun i ->
            Int32.add eip0
              (Int32.of_int (if i < n then Array.unsafe_get b.b_offs i else b.b_len)))
      in
      b.b_tws <-
        Array.init n (fun i ->
            Trace.pack_tw
              ~ieip:(Int32.to_int (Array.unsafe_get a i))
              ~op:(Array.unsafe_get b.b_meta i land 0xff)
              ~user);
      b.b_eips <- a;
      b.b_eip0 <- eip0;
      b.b_user <- user
    end;
    let eips = b.b_eips and tws = b.b_tws in
    (* More block-entry hoists: the trace level and CPU mode only change
       across traps, CR writes or host calls, all of which end the block
       or leave it through a fault. *)
    let tr = cpu.Cpu.trace in
    let tracing = Trace.enabled tr in
    let mmu = cpu.Cpu.mmu in
    t.mgen <- Mmu.generation mmu;
    let gen0 = t.gen in
    let regs = cpu.Cpu.regs in
    let save = t.save in
    let c0 = cpu.Cpu.cycles in
    (* Within a block, the cycle counter advances by exactly one per
       retired instruction (IF writers, cycle readers and the disk ops
       all end blocks), so instruction [idx] retires at cycle [c0 + idx]
       and the per-instruction timer/watchdog compares collapse into one
       entry-time bound: the index of the first instruction that may NOT
       run.  [Machine.run] checks the limit and [exec_some] the timer
       before dispatching, so [k >= 1]. *)
    let k =
      let f = limit - c0 in
      let f =
        if cpu.Cpu.eflags land Flags.if_ <> 0 then
          let ft = cpu.Cpu.next_timer - c0 in
          if ft < f then ft else f
        else f
      in
      if f < n then f else n
    in
    (* [st]: 0 = running; 1 = stop; 2 = stop, then one reference
       [Cpu.step].  The fallback step runs after the loop: the
       reference step handles its own faults, and anything it lets
       escape (a failing trap delivery) must not be caught here. *)
    t.st <- 0;
    t.cur <- 0;
    (* [cpu.eip] and [cpu.cycles] are maintained lazily inside the loop:
       no straight-line closure reads either, so the stores are skipped
       and every exit path syncs [eips.(idx)] / [c0 + idx] instead.
       Block enders sync both before their closure runs (the closure may
       read eip — x86 push/branch semantics — or, for the disk ops, read
       and advance the cycle counter). *)
    (try
       while t.st = 0 do
         let idx = t.cur in
         (* While the TLB generation is unchanged, the fetch translation
            that produced [pa0] would resolve identically for every
            instruction of the block; after any fill or flush, re-verify
            against the TLB exactly as the interpreter's fetch would. *)
         let ok =
           Mmu.generation mmu = t.mgen
           ||
           match Mmu.probe mmu ~user (Array.unsafe_get eips idx) with
           | -1 -> (
             match Cpu.translate cpu ~write:false (Array.unsafe_get eips idx) with
             | pa ->
               pa = pa0 + Array.unsafe_get b.b_offs idx
               && begin
                 t.mgen <- Mmu.generation mmu;
                 true
               end
             | exception (Mmu.Page_fault _ | Phys.Bad_physical_address _) -> false)
           | pa ->
             pa = pa0 + Array.unsafe_get b.b_offs idx
             && begin
               t.mgen <- Mmu.generation mmu;
               true
             end
         in
         if not ok then begin
           (* Fetch faulted or the mapping moved: reference path. *)
           cpu.Cpu.eip <- Array.unsafe_get eips idx;
           cpu.Cpu.cycles <- c0 + idx;
           t.st <- 2
         end
         else begin
           let meta = Array.unsafe_get b.b_meta idx in
           if tracing then
             Trace.record_tw tr ~cycle:(c0 + idx)
               ~tw:(Array.unsafe_get tws idx)
               ~mem:
                 (if meta land meta_mem = 0 then -1
                  else (Array.unsafe_get b.b_mem idx) cpu);
           if meta land rb_mask = rb_full then begin
             (* Full rollback state, only for read-modify-write forms and
                the [execute] fallback; the other classes roll back from
                the current state (see [Cpu.insn_rollback]). *)
             t.sv_efl <- cpu.Cpu.eflags;
             for k = 0 to 7 do
               Array.unsafe_set save k (Int32.to_int (Array.unsafe_get regs k))
             done
           end;
           if meta land meta_eip = 0 then begin
             (Array.unsafe_get b.b_exec idx) cpu;
             t.cur <- idx + 1;
             (* A write to a page holding decoded code (self-modifying
                text, the injector's own bit flip, or data sharing a page
                with code) bumps [gen] through the page hook; re-enter the
                dispatcher, which re-checks the next block against the
                bytes now in memory.  [idx + 1 >= k] covers both the block
                end and the timer/watchdog bound. *)
             if idx + 1 >= k || t.gen <> gen0 then begin
               cpu.Cpu.eip <- Array.unsafe_get eips (idx + 1);
               cpu.Cpu.cycles <- c0 + idx + 1;
               t.st <- 1
             end
           end
           else begin
             (* Block ender: its closure needs eip pointing past it
                (x86 semantics) and the cycle counter live, and leaves
                the authoritative values. *)
             cpu.Cpu.cycles <- c0 + idx;
             cpu.Cpu.eip <- Array.unsafe_get eips (idx + 1);
             (Array.unsafe_get b.b_exec idx) cpu;
             (* re-read, not [+ idx + 1]: the closure may itself advance
                the counter (the disk DMA's 500-cycle transfer penalty) *)
             cpu.Cpu.cycles <- cpu.Cpu.cycles + 1;
             t.cur <- idx + 1;
             t.st <- 1
           end
         end
       done
     with
     | Mmu.Page_fault (addr, code) ->
       t.st <- 1;
       rollback t b eips c0 t.cur;
       cpu.Cpu.cr2 <- addr;
       cpu.Cpu.last_fault_cycle <- cpu.Cpu.cycles;
       Cpu.deliver cpu { vector = Trap.Page_fault; error = code };
       cpu.Cpu.cycles <- cpu.Cpu.cycles + 1
     | Trap.Fault trp ->
       t.st <- 1;
       rollback t b eips c0 t.cur;
       cpu.Cpu.last_fault_cycle <- cpu.Cpu.cycles;
       Cpu.deliver cpu trp;
       cpu.Cpu.cycles <- cpu.Cpu.cycles + 1
     | Phys.Bad_physical_address _ ->
       (* Machine-check-like: the reference step does NOT roll back — it
          raises with eip already advanced past the faulting instruction
          (the advance precedes [execute]).  The only raiser inside the
          [try] is an exec closure, so [t.cur] is still its index. *)
       let idx = t.cur in
       if Array.unsafe_get b.b_meta idx land meta_eip = 0 then
         cpu.Cpu.cycles <- c0 + idx;
       cpu.Cpu.eip <- Array.unsafe_get eips (idx + 1);
       Trace.record_event tr ~cycle:cpu.Cpu.cycles ~kind:Trace.ev_triple_fault
         ~a:(Trap.number Trap.General_protection) ~b:0;
       raise (Cpu.Triple_fault { vector = Trap.General_protection; error = 0l }));
    if t.st = 2 then begin
      t.fb_fetch <- t.fb_fetch + 1;
      Cpu.step cpu
    end
  end

(* [b]'s page was written since its bytes last matched: keep it if they
   still do, otherwise decode the entry again. *)
let recheck t b pa0 slot =
  let page = pa0 lsr Mmu.page_shift in
  if Phys.holds t.cpu.Cpu.phys pa0 b.b_bytes then begin
    b.b_epoch <- t.epochs.(page);
    Cpu.mark_code_page t.cpu page;
    t.reverified <- t.reverified + 1;
    b
  end
  else begin
    let b = build t pa0 in
    t.d_vals.(slot) <- b;
    b
  end

(* A loop head: summarise the loop ([Loopsum]) unless this head is
   backing off; run the block when that executed nothing. *)
let loop t b pa0 limit =
  b.b_streak <- 0;
  let cpu = t.cpu in
  let c = cpu.Cpu.cycles in
  if b.b_wait > 0 then b.b_wait <- b.b_wait - 1
  else begin
    let back_off =
      match Loopsum.summarize cpu ~limit ~code_gen:(fun () -> t.gen) with
      | Loopsum.Paused -> false
      | Loopsum.Unfit -> true
      | Loopsum.Summarised { skipped; short; uniform } ->
        if skipped > 0 then begin
          t.loops <- t.loops + 1;
          t.loop_skipped <- t.loop_skipped + skipped;
          if uniform then t.loop_scans <- t.loop_scans + 1
        end;
        if short then t.loop_backoffs <- t.loop_backoffs + 1
        else b.b_fails <- 0;
        short
    in
    if back_off then begin
      b.b_fails <- b.b_fails + 1;
      b.b_wait <- (1 lsl min b.b_fails 12) - 1
    end
  end;
  if cpu.Cpu.cycles = c then exec_block t b pa0 limit

let dispatch t pa0 limit =
  if pa0 >= Phys.size t.cpu.Cpu.phys then begin
    (* A mapping points outside physical memory: the reference step
       raises the interpreter's machine check. *)
    t.fb_fetch <- t.fb_fetch + 1;
    Cpu.step t.cpu
  end
  else begin
    let slot = pa0 land (d_size - 1) in
    let b =
      if Array.unsafe_get t.d_keys slot = pa0 then begin
        t.hits <- t.hits + 1;
        Array.unsafe_get t.d_vals slot
      end
      else begin
        let b =
          match Hashtbl.find_opt t.cache pa0 with
          | Some b ->
            t.hits <- t.hits + 1;
            b
          | None -> build t pa0
        in
        t.d_keys.(slot) <- pa0;
        t.d_vals.(slot) <- b;
        b
      end
    in
    let b =
      if b.b_epoch = Array.unsafe_get t.epochs (pa0 lsr Mmu.page_shift) then b
      else recheck t b pa0 slot
    in
    if b.b_n = 0 then begin
      t.fb_undecodable <- t.fb_undecodable + 1;
      Cpu.step t.cpu
    end
    else begin
      (* a loop head: dispatched again within a window, a few times in
         a row; never with a debug register armed or events recorded *)
      let cpu = t.cpu in
      let c = cpu.Cpu.cycles in
      b.b_streak <- (if c - b.b_last <= Loopsum.window then b.b_streak + 1 else 0);
      b.b_last <- c;
      if b.b_streak >= Loopsum.streak && cpu.Cpu.dr7 = 0
         && Trace.level cpu.Cpu.trace <> Trace.Full
      then loop t b pa0 limit
      else exec_block t b pa0 limit
    end
  end

(* Make some forward progress (at least one instruction or event).  The
   machine-level stop conditions are re-checked by the caller. *)
let exec_some t limit =
  let cpu = t.cpu in
  if cpu.Cpu.cycles >= cpu.Cpu.next_timer && cpu.Cpu.eflags land Flags.if_ <> 0
  then begin
    t.fb_timer <- t.fb_timer + 1;
    Cpu.step cpu
  end
  else
    (* No debug pre-check: an armed address can only hit inside the block
       containing it, and [exec_block] routes such blocks through the
       reference step, which performs the compare (and fires the hook)
       before executing — the interpreter's own ordering. *)
    match Mmu.probe cpu.Cpu.mmu ~user:(cpu.Cpu.mode = Cpu.User) cpu.Cpu.eip with
    | -1 -> (
      match Cpu.translate cpu ~write:false cpu.Cpu.eip with
      | exception (Mmu.Page_fault _ | Phys.Bad_physical_address _) ->
        (* Fetch faults: deliver through the reference path. *)
        t.fb_fetch <- t.fb_fetch + 1;
        Cpu.step cpu
      | pa0 -> dispatch t pa0 limit)
    | pa0 -> dispatch t pa0 limit

(* The [Machine.run] contract, block at a time. *)
let run t ~max_cycles =
  let cpu = t.cpu in
  let limit = cpu.Cpu.cycles + max_cycles in
  let rec loop () =
    if cpu.Cpu.snapshot_request then begin
      cpu.Cpu.snapshot_request <- false;
      Machine.Snapshot_point
    end
    else if cpu.Cpu.halted then begin
      match cpu.Cpu.exit_code with
      | Some code -> Machine.Powered_off code
      | None -> Machine.Halted
    end
    else if cpu.Cpu.cycles >= limit then Machine.Watchdog
    else begin
      exec_some t limit;
      loop ()
    end
  in
  try loop () with Cpu.Triple_fault trap -> Machine.Reset trap
