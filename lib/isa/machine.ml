(* A whole machine: CPU + memory + disk, with snapshot/restore (used by the
   injector to "reboot" between experiments) and a watchdog-bounded run
   loop (the paper's hardware watchdog monitor). *)

type run_result =
  | Powered_off of int       (* guest wrote an exit code to the poweroff port *)
  | Halted                   (* hlt: the crash-handler convention *)
  | Watchdog                 (* cycle budget exhausted: hang *)
  | Reset of Trap.t          (* triple fault: crash without a dump *)
  | Snapshot_point           (* guest requested a snapshot pause *)

let run_cpu cpu ~max_cycles =
  let limit = cpu.Cpu.cycles + max_cycles in
  let rec loop () =
    if cpu.Cpu.snapshot_request then begin
      cpu.Cpu.snapshot_request <- false;
      Snapshot_point
    end
    else if cpu.Cpu.halted then begin
      match cpu.Cpu.exit_code with
      | Some code -> Powered_off code
      | None -> Halted
    end
    else if cpu.Cpu.cycles >= limit then Watchdog
    else begin
      Cpu.step cpu;
      loop ()
    end
  in
  try loop () with Cpu.Triple_fault trap -> Reset trap

(* Everything but memory and disk: registers, control and debug
   registers, timer, devices' output, the flight recorder and the last
   fault's cycle. *)
type cpu_state = {
  s_regs : int32 array;
  s_eip : int32;
  s_eflags : int;
  s_mode : Cpu.mode;
  s_cr0 : int32;
  s_cr2 : int32;
  s_cr3 : int32;
  s_esp0 : int32;
  s_cycles : int;
  s_halted : bool;
  s_exit_code : int option;
  s_dr : int32 array;
  s_dr7 : int;
  s_timer_period : int;
  s_next_timer : int;
  s_console : string;
  s_tty : string;
  s_trace : Trace.snapshot;
  s_last_fault_cycle : int;
}

let save_cpu c =
  {
    s_regs = Array.copy c.Cpu.regs;
    s_eip = c.Cpu.eip;
    s_eflags = c.Cpu.eflags;
    s_mode = c.Cpu.mode;
    s_cr0 = c.Cpu.cr0;
    s_cr2 = c.Cpu.cr2;
    s_cr3 = c.Cpu.cr3;
    s_esp0 = c.Cpu.esp0;
    s_cycles = c.Cpu.cycles;
    s_halted = c.Cpu.halted;
    s_exit_code = c.Cpu.exit_code;
    s_dr = Array.copy c.Cpu.dr;
    s_dr7 = c.Cpu.dr7;
    s_timer_period = c.Cpu.timer_period;
    s_next_timer = c.Cpu.next_timer;
    s_console = Buffer.contents c.Cpu.console;
    s_tty = Buffer.contents c.Cpu.tty;
    s_trace = Trace.snapshot c.Cpu.trace;
    s_last_fault_cycle = c.Cpu.last_fault_cycle;
  }

let load_cpu c s =
  Array.blit s.s_regs 0 c.Cpu.regs 0 8;
  c.Cpu.eip <- s.s_eip;
  c.Cpu.eflags <- s.s_eflags;
  c.Cpu.mode <- s.s_mode;
  c.Cpu.cr0 <- s.s_cr0;
  c.Cpu.cr2 <- s.s_cr2;
  c.Cpu.cr3 <- s.s_cr3;
  c.Cpu.esp0 <- s.s_esp0;
  c.Cpu.cycles <- s.s_cycles;
  c.Cpu.halted <- s.s_halted;
  c.Cpu.exit_code <- s.s_exit_code;
  Array.blit s.s_dr 0 c.Cpu.dr 0 4;
  c.Cpu.dr7 <- s.s_dr7;
  c.Cpu.timer_period <- s.s_timer_period;
  c.Cpu.next_timer <- s.s_next_timer;
  Buffer.clear c.Cpu.console;
  Buffer.add_string c.Cpu.console s.s_console;
  Buffer.clear c.Cpu.tty;
  Buffer.add_string c.Cpu.tty s.s_tty;
  Trace.restore c.Cpu.trace s.s_trace;
  c.Cpu.last_fault_cycle <- s.s_last_fault_cycle

(* Full machine state, for experiment isolation. *)
type snapshot = { s_phys : Phys.t; s_disk : Devices.Disk.t; s_cpu : cpu_state }

(* A delta checkpoint: the state of a run that began by restoring [base],
   as the pages and disk blocks that differ from [base] plus the CPU
   state and the TLB.  A snapshot's restore flushes the TLB, but a run
   that continues from a checkpoint must see the entries the run had,
   stale ones included.  The debug registers are [base]'s: they belong
   to whoever armed them for the run, not to the state being kept.
   Pages are sorted, [k_page_ids.(i)] holding [k_page_data.(i)]. *)
type checkpoint = {
  k_page_ids : int array;
  k_page_data : Bytes.t array;
  k_blocks : (int * Bytes.t) list;
  k_tlb : Mmu.tlb;
  k_cpu : cpu_state;
}

(* [settled]: the checkpoint last captured or restored.  Since then the
   memory's settled pages hold its pages, or [base]'s where it lists
   none (see [Phys.settle]). *)
type t = { cpu : Cpu.t; mutable settled : checkpoint option }

let default_phys_size = 16 * 1024 * 1024
let default_idt_base = 0x2000

let create ?(phys_size = default_phys_size) ?(idt_base = default_idt_base) ~disk () =
  let phys = Phys.create phys_size in
  { cpu = Cpu.create ~phys ~disk ~idt_base; settled = None }

let cpu t = t.cpu
let phys t = t.cpu.Cpu.phys
let disk t = t.cpu.Cpu.disk
let console_contents t = Buffer.contents t.cpu.Cpu.console
let tty_contents t = Buffer.contents t.cpu.Cpu.tty
let run t ~max_cycles = run_cpu t.cpu ~max_cycles

let snapshot t =
  let c = t.cpu in
  {
    s_phys = Phys.copy c.Cpu.phys;
    s_disk = Devices.Disk.copy c.Cpu.disk;
    s_cpu = save_cpu c;
  }

(* Memory and disk, with the decoded caches trimmed to match. *)
let restore_storage c s =
  let restored = Phys.restore c.Cpu.phys ~from:s.s_phys in
  Devices.Disk.restore c.Cpu.disk ~from:s.s_disk;
  Mmu.flush c.Cpu.mmu;
  (* An incremental restore names the pages it rewrote: trim the decoded
     caches with the same granularity so they survive across experiments. *)
  match restored with
  | None -> Cpu.flush_icache c
  | Some pages -> List.iter (Cpu.invalidate_code_page c) pages

let restore t s =
  restore_storage t.cpu s;
  load_cpu t.cpu s.s_cpu

(* The page [p] of [k], if it lists one. *)
let find_page k p =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let q = k.k_page_ids.(mid) in
      if q = p then Some k.k_page_data.(mid) else if q < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length k.k_page_ids)

let settled_page t p = match t.settled with Some k -> find_page k p | None -> None

let settled_block t b =
  match t.settled with Some k -> List.assoc_opt b k.k_blocks | None -> None

(* Capture against [base], sharing every page and block equal to the
   settled checkpoint's, then settle on the capture: a ladder of
   checkpoints taken one after the other stores each unchanged page
   once, and compares only the pages written since the last one. *)
let checkpoint t ~base =
  let c = t.cpu in
  let disk = c.Cpu.disk in
  let pages = Array.of_list (Phys.delta c.Cpu.phys ~base:base.s_phys ~settled:(settled_page t)) in
  let k =
    {
      k_page_ids = Array.map fst pages;
      k_page_data = Array.map snd pages;
      k_blocks =
        List.map
          (fun b ->
            let data = Devices.Disk.read_block disk b in
            match settled_block t b with
            | Some d when Bytes.equal d data -> (b, d)
            | _ -> (b, data))
          (Devices.Disk.written_blocks disk);
      k_tlb = Mmu.save c.Cpu.mmu;
      k_cpu = { (save_cpu c) with s_dr = Array.copy base.s_cpu.s_dr; s_dr7 = base.s_cpu.s_dr7 };
    }
  in
  Phys.settle c.Cpu.phys;
  t.settled <- Some k;
  k

(* Restore [base], then write the delta through the tracked write paths
   so the next restore undoes it, dropping decoded code for the
   rewritten pages, and set the TLB and the CPU state last. *)
let restore_checkpoint t ~base k =
  let c = t.cpu in
  restore_storage c base;
  Array.iteri
    (fun i p ->
      Phys.blit_in c.Cpu.phys ~dst:(p lsl Phys.page_shift) k.k_page_data.(i);
      Cpu.invalidate_code_page c p)
    k.k_page_ids;
  List.iter (fun (b, data) -> Devices.Disk.write_block c.Cpu.disk b data) k.k_blocks;
  Mmu.load c.Cpu.mmu k.k_tlb;
  load_cpu c k.k_cpu;
  Phys.settle c.Cpu.phys;
  t.settled <- Some k

let checkpoint_cycles k = k.k_cpu.s_cycles
let checkpoint_seen k = Trace.snapshot_seen k.k_cpu.s_trace
let checkpoint_last_fault k = k.k_cpu.s_last_fault_cycle

let due_in ~cycles next = if next = max_int then max_int else max 0 (next - cycles)
let due s = due_in ~cycles:s.s_cycles s.s_next_timer

(* Whether two checkpoints over [base] hold states the guest cannot tell
   apart: everything a checkpoint keeps except the cycle counter, the
   flight recorder and the last fault's cycle, which no instruction
   reads, and the debug registers, which are [base]'s in both.  The
   timer is compared by the cycles left until it is due (0 once due; an
   idle timer never is).  A checkpoint's pages are exactly those that
   differ from [base]; its blocks are those written since [base], so a
   block only one of them lists must equal [base]'s. *)
let same_state ~base a b =
  let x = a.k_cpu and y = b.k_cpu in
  let block_in k blk =
    match List.assoc_opt blk k.k_blocks with
    | Some data -> data
    | None -> Devices.Disk.read_block base.s_disk blk
  in
  let same_blocks k k' =
    List.for_all (fun (blk, data) -> Bytes.equal data (block_in k' blk)) k.k_blocks
  in
  x.s_regs = y.s_regs && Int32.equal x.s_eip y.s_eip && x.s_eflags = y.s_eflags
  && x.s_mode = y.s_mode && x.s_cr0 = y.s_cr0 && x.s_cr2 = y.s_cr2 && x.s_cr3 = y.s_cr3
  && x.s_esp0 = y.s_esp0 && x.s_halted = y.s_halted && x.s_exit_code = y.s_exit_code
  && x.s_timer_period = y.s_timer_period && due x = due y
  && String.equal x.s_console y.s_console && String.equal x.s_tty y.s_tty
  && a.k_tlb = b.k_tlb
  && a.k_page_ids = b.k_page_ids
  && Array.for_all2 Bytes.equal a.k_page_data b.k_page_data
  && same_blocks a b && same_blocks b a

let buffer_is b s = Buffer.length b = String.length s && String.equal (Buffer.contents b) s

(* [same_state] between the live machine and [k], plus an equal cycle
   counter, without capturing the live state: CPU fields first, then
   the devices and the TLB, then each page and block that either side
   changed.  A settled page whose bytes [k] shares needs no compare.
   With [flip = (pa, x)] the byte at physical [pa] must hold [k]'s byte
   xor [x] instead. *)
let matches ?flip t ~base k =
  let c = t.cpu and x = k.k_cpu in
  let phys = c.Cpu.phys and disk = c.Cpu.disk in
  let skip, xor = match flip with Some (pa, v) -> (pa, v) | None -> (-1, 0) in
  let skip_page = if skip < 0 then -1 else skip lsr Phys.page_shift in
  (* a settled page holds the settled checkpoint's bytes ([Some]), or
     [base]'s ([None]) *)
  let settled_holds p d =
    p <> skip_page && (not (Phys.is_fresh phys p))
    && match (settled_page t p, d) with
       | Some s, Some d -> s == d
       | None, None -> true
       | _ -> false
  in
  let pages_ok () =
    Array.for_all2
      (fun p d ->
        Phys.is_dirty phys p && (settled_holds p (Some d) || Phys.page_holds phys p d ~skip ~xor))
      k.k_page_ids k.k_page_data
    && List.for_all
         (fun p ->
           Option.is_some (find_page k p)
           || settled_holds p None
           || Phys.page_is_base phys ~base:base.s_phys p ~skip ~xor)
         (Phys.dirty_pages phys)
  in
  let blocks_ok () =
    let written = Devices.Disk.written_blocks disk in
    let base_block b = Devices.Disk.read_block base.s_disk b in
    List.for_all
      (fun b ->
        Devices.Disk.block_equal disk b
          (match List.assoc_opt b k.k_blocks with Some d -> d | None -> base_block b))
      written
    && List.for_all (fun (b, d) -> List.mem b written || Bytes.equal d (base_block b)) k.k_blocks
  in
  c.Cpu.cycles = x.s_cycles && Int32.equal c.Cpu.eip x.s_eip && c.Cpu.eflags = x.s_eflags
  && c.Cpu.mode = x.s_mode && c.Cpu.regs = x.s_regs && c.Cpu.cr0 = x.s_cr0
  && c.Cpu.cr2 = x.s_cr2 && c.Cpu.cr3 = x.s_cr3 && c.Cpu.esp0 = x.s_esp0
  && c.Cpu.halted = x.s_halted && c.Cpu.exit_code = x.s_exit_code
  && c.Cpu.timer_period = x.s_timer_period
  && due_in ~cycles:c.Cpu.cycles c.Cpu.next_timer = due x
  && Phys.synced phys ~base:base.s_phys
  && Devices.Disk.synced disk ~base:base.s_disk
  && buffer_is c.Cpu.console x.s_console && buffer_is c.Cpu.tty x.s_tty
  && Mmu.holds c.Cpu.mmu k.k_tlb && pages_ok () && blocks_ok ()

(* The heap footprint of [k]'s pages and blocks not shared with [prev]'s,
   plus its TLB, console and ring. *)
let checkpoint_bytes ?prev k =
  let own found d = match found with Some d' -> d' != d | None -> true in
  let pages = ref 0 in
  Array.iteri
    (fun i p ->
      let d = k.k_page_data.(i) in
      if own (Option.bind prev (fun k' -> find_page k' p)) d then pages := !pages + Bytes.length d)
    k.k_page_ids;
  let blocks =
    List.fold_left
      (fun n (b, d) ->
        if own (Option.bind prev (fun k' -> List.assoc_opt b k'.k_blocks)) d then
          n + Bytes.length d
        else n)
      0 k.k_blocks
  in
  !pages + blocks + Mmu.tlb_bytes k.k_tlb
  + String.length k.k_cpu.s_console + String.length k.k_cpu.s_tty
  + Trace.snapshot_bytes k.k_cpu.s_trace
