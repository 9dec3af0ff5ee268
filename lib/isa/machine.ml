(* A whole machine: CPU + memory + disk, with snapshot/restore (used by the
   injector to "reboot" between experiments) and a watchdog-bounded run
   loop (the paper's hardware watchdog monitor). *)

type t = { cpu : Cpu.t }

let default_phys_size = 16 * 1024 * 1024
let default_idt_base = 0x2000

let create ?(phys_size = default_phys_size) ?(idt_base = default_idt_base) ~disk () =
  let phys = Phys.create phys_size in
  { cpu = Cpu.create ~phys ~disk ~idt_base }

let cpu t = t.cpu
let phys t = t.cpu.Cpu.phys
let disk t = t.cpu.Cpu.disk
let console_contents t = Buffer.contents t.cpu.Cpu.console
let tty_contents t = Buffer.contents t.cpu.Cpu.tty

type run_result =
  | Powered_off of int       (* guest wrote an exit code to the poweroff port *)
  | Halted                   (* hlt: the crash-handler convention *)
  | Watchdog                 (* cycle budget exhausted: hang *)
  | Reset of Trap.t          (* triple fault: crash without a dump *)
  | Snapshot_point           (* guest requested a snapshot pause *)

let run t ~max_cycles =
  let cpu = t.cpu in
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

(* A delta checkpoint: the state of a run that began by restoring [base],
   as the pages and disk blocks that differ from [base] plus the CPU
   state and the TLB.  A snapshot's restore flushes the TLB, but a run
   that continues from a checkpoint must see the entries the run had,
   stale ones included.  The debug registers are [base]'s: they belong
   to whoever armed them for the run, not to the state being kept. *)
type checkpoint = {
  k_pages : (int * Bytes.t) list;
  k_blocks : (int * Bytes.t) list;
  k_tlb : Mmu.tlb;
  k_cpu : cpu_state;
}

let checkpoint t ~base =
  let c = t.cpu in
  let disk = c.Cpu.disk in
  {
    k_pages = Phys.delta c.Cpu.phys ~base:base.s_phys;
    k_blocks =
      List.map (fun b -> (b, Devices.Disk.read_block disk b)) (Devices.Disk.written_blocks disk);
    k_tlb = Mmu.save c.Cpu.mmu;
    k_cpu = { (save_cpu c) with s_dr = Array.copy base.s_cpu.s_dr; s_dr7 = base.s_cpu.s_dr7 };
  }

(* Restore [base], then write the delta through the tracked write paths
   so the next restore undoes it, dropping decoded code for the
   rewritten pages, and set the TLB and the CPU state last. *)
let restore_checkpoint t ~base k =
  let c = t.cpu in
  restore_storage c base;
  List.iter
    (fun (p, data) ->
      Phys.blit_in c.Cpu.phys ~dst:(p lsl Phys.page_shift) data;
      Cpu.invalidate_code_page c p)
    k.k_pages;
  List.iter (fun (b, data) -> Devices.Disk.write_block c.Cpu.disk b data) k.k_blocks;
  Mmu.load c.Cpu.mmu k.k_tlb;
  load_cpu c k.k_cpu

let checkpoint_cycles k = k.k_cpu.s_cycles

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
  let due s = if s.s_next_timer = max_int then max_int else max 0 (s.s_next_timer - s.s_cycles) in
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
  && List.equal (fun (p, d) (q, e) -> p = q && Bytes.equal d e) a.k_pages b.k_pages
  && same_blocks a b && same_blocks b a

let checkpoint_bytes k =
  let sum f l = List.fold_left (fun n x -> n + Bytes.length (f x)) 0 l in
  sum snd k.k_pages + sum snd k.k_blocks + Mmu.tlb_bytes
  + String.length k.k_cpu.s_console + String.length k.k_cpu.s_tty
  + Trace.snapshot_bytes k.k_cpu.s_trace
