(* The simulated CPU: fetch/decode/execute, paging, traps, debug registers
   and a cycle counter.

   Conventions (documented divergences from real IA-32 are marked [!]):
   - Flat address space, no segmentation; [lret] always raises #GP [!].
   - Two privilege modes; privileged instructions in user mode raise #GP.
   - Exception delivery reads the handler address from a flat IDT array at
     physical [idt_base]; a zero entry escalates to a triple fault (machine
     reset, recorded as an undumped crash).  An error code is pushed for
     every vector [!], giving uniform entry stubs.
   - Trap frame (pushed on the kernel stack, esp0 when coming from user):
     [old_esp; old_eflags; old_mode; eip; error_code], error code on top.
   - Control registers: cr0 (unused flags), cr2 (page-fault address),
     cr3 (page directory base; writing flushes the TLB), cr6 = kernel stack
     pointer for traps from user mode (stands in for TSS.esp0) [!].
   - Byte-register operands name the low byte of the full register [!].
   - Custom privileged instructions [diskrd]/[diskwr] transfer one 1 KB
     block between the disk and a virtual address (ebx = block, edi = dest /
     esi = src); invalid block numbers raise #GP. *)

type mode = Kernel | User

exception Triple_fault of Trap.t
(* Exception delivery itself failed (no handler or kernel stack gone):
   machine reset.  Mirrors a crash that LKCD fails to dump. *)

type t = {
  regs : int32 array;
  mutable eip : int32;
  mutable eflags : int;
  mutable mode : mode;
  mutable cr0 : int32;
  mutable cr2 : int32;
  mutable cr3 : int32;
  mutable esp0 : int32;
  mutable cycles : int;
  mutable halted : bool;
  mutable exit_code : int option; (* set by a write to the poweroff port *)
  mutable snapshot_request : bool; (* set by a write to the snapshot port *)
  dr : int32 array;               (* debug registers dr0..dr3 *)
  mutable dr7 : int;              (* bit n enables dr(n) *)
  mutable on_debug_hit : (t -> int -> unit) option;
      (* called with the matching dr index before executing the target *)
  phys : Phys.t;
  mmu : Mmu.t;
  console : Buffer.t; (* combined transcript: printk + tty *)
  tty : Buffer.t;     (* user-program output only *)
  disk : Devices.Disk.t;
  mutable timer_period : int;     (* cycles between timer IRQs; 0 = off *)
  mutable next_timer : int;
  idt_base : int;                 (* physical address of the IDT array *)
  icache : (int, Insn.t * int) Hashtbl.t;
  code_frames : Bytes.t;          (* frame -> 1 if decoded code is cached there *)
  code_index : (int, int list) Hashtbl.t; (* frame -> icache keys in it *)
  mutable on_code_invalidate : (int -> unit) option;
      (* execution-backend hook: cached code for this frame is stale
         (-1 = everything); fired whenever a marked frame is written *)
  scratch : int32 array;          (* register snapshot for faulting restarts *)
  mutable last_fault_cycle : int; (* cycle count at the most recent exception *)
  mutable cycle_reads : int;      (* rdtsc instructions executed, ever *)
  mutable decoded : int;          (* instructions [step] fetched and decoded, ever *)
  trace : Trace.t;                (* flight recorder, fed from [step] *)
}

let create ~phys ~disk ~idt_base =
  let frames = Phys.size phys / Mmu.page_size in
  {
    regs = Array.make 8 0l;
    eip = 0l;
    eflags = 0;
    mode = Kernel;
    cr0 = 0l;
    cr2 = 0l;
    cr3 = 0l;
    esp0 = 0l;
    cycles = 0;
    halted = false;
    exit_code = None;
    snapshot_request = false;
    dr = Array.make 4 0l;
    dr7 = 0;
    on_debug_hit = None;
    phys;
    mmu = Mmu.create phys;
    console = Buffer.create 256;
    tty = Buffer.create 256;
    disk;
    timer_period = 0;
    next_timer = max_int;
    idt_base;
    icache = Hashtbl.create 4096;
    code_frames = Bytes.make frames '\000';
    code_index = Hashtbl.create 256;
    on_code_invalidate = None;
    scratch = Array.make 8 0l;
    last_fault_cycle = 0;
    cycle_reads = 0;
    decoded = 0;
    trace = Trace.create ();
  }

let u32 v = Int32.to_int v land 0xFFFFFFFF
let i32 v = Int32.of_int v
let ( +% ) = Int32.add
let ( -% ) = Int32.sub

let flush_icache cpu =
  Hashtbl.reset cpu.icache;
  Hashtbl.reset cpu.code_index;
  Bytes.fill cpu.code_frames 0 (Bytes.length cpu.code_frames) '\000';
  match cpu.on_code_invalidate with Some f -> f (-1) | None -> ()

(* Drop the cached decode state for one frame only: the write path after
   an injection or an incremental restore, where a full flush would throw
   away a cache that survives across experiments. *)
let invalidate_code_page cpu page =
  if page >= 0 && page < Bytes.length cpu.code_frames
     && Bytes.unsafe_get cpu.code_frames page <> '\000'
  then begin
    (match Hashtbl.find_opt cpu.code_index page with
     | Some pas ->
       List.iter (Hashtbl.remove cpu.icache) pas;
       Hashtbl.remove cpu.code_index page
     | None -> ());
    Bytes.unsafe_set cpu.code_frames page '\000';
    match cpu.on_code_invalidate with Some f -> f page | None -> ()
  end

(* Execution backends caching their own decoded state for a frame mark it
   here so guest writes reach them through [on_code_invalidate]. *)
let mark_code_page cpu page = Bytes.set cpu.code_frames page '\001'

let in_user cpu = cpu.mode = User

(* Memory access via the MMU, guarding the instruction cache against writes
   to frames that hold decoded instructions. *)

let translate cpu ~write vaddr =
  Mmu.translate cpu.mmu ~cr3:cpu.cr3 ~user:(in_user cpu) ~write vaddr

let guard_code cpu pa =
  let page = pa lsr Mmu.page_shift in
  if Bytes.unsafe_get cpu.code_frames page <> '\000' then
    invalidate_code_page cpu page

let rd8 cpu a = Phys.read8 cpu.phys (translate cpu ~write:false a)

let wr8 cpu a v =
  let pa = translate cpu ~write:true a in
  guard_code cpu pa;
  Phys.write8 cpu.phys pa v

let rd32 cpu a =
  if u32 a land (Mmu.page_size - 1) <= Mmu.page_size - 4 then
    Phys.read32 cpu.phys (translate cpu ~write:false a)
  else begin
    let b i = rd8 cpu (a +% i32 i) in
    let b0 = b 0 and b1 = b 1 and b2 = b 2 and b3 = b 3 in
    Int32.logor
      (i32 (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
      (Int32.shift_left (i32 b3) 24)
  end

let wr32 cpu a v =
  if u32 a land (Mmu.page_size - 1) <= Mmu.page_size - 4 then begin
    let pa = translate cpu ~write:true a in
    guard_code cpu pa;
    Phys.write32 cpu.phys pa v
  end
  else begin
    let x = u32 v in
    for i = 0 to 3 do
      wr8 cpu (a +% i32 i) ((x lsr (8 * i)) land 0xff)
    done
  end

(* Poke physical memory from outside the guest (loader, injector), keeping
   the instruction cache coherent. *)
let poke_phys cpu pa v =
  guard_code cpu pa;
  Phys.write8 cpu.phys pa v

(* Operand helpers *)

let ea cpu (m : Insn.mem) =
  let base = match m.base with Some r -> cpu.regs.(r) | None -> 0l in
  let index =
    match m.index with
    | Some (r, s) -> Int32.mul cpu.regs.(r) (i32 s)
    | None -> 0l
  in
  base +% index +% m.disp

let rd_rm cpu = function
  | Insn.Reg r -> cpu.regs.(r)
  | Insn.Mem m -> rd32 cpu (ea cpu m)

let wr_rm cpu rm v =
  match rm with
  | Insn.Reg r -> cpu.regs.(r) <- v
  | Insn.Mem m -> wr32 cpu (ea cpu m) v

let rdb_rm cpu = function
  | Insn.Reg r -> u32 cpu.regs.(r) land 0xff
  | Insn.Mem m -> rd8 cpu (ea cpu m)

let wrb_rm cpu rm v =
  match rm with
  | Insn.Reg r ->
    cpu.regs.(r) <- Int32.logor (Int32.logand cpu.regs.(r) 0xFFFFFF00l) (i32 (v land 0xff))
  | Insn.Mem m -> wr8 cpu (ea cpu m) v

let push cpu v =
  cpu.regs.(Insn.esp) <- cpu.regs.(Insn.esp) -% 4l;
  wr32 cpu cpu.regs.(Insn.esp) v

let pop cpu =
  let v = rd32 cpu cpu.regs.(Insn.esp) in
  cpu.regs.(Insn.esp) <- cpu.regs.(Insn.esp) +% 4l;
  v

let gp () = raise (Trap.Fault { vector = Trap.General_protection; error = 0l })

let require_kernel cpu = if cpu.mode = User then gp ()

(* Exception/interrupt delivery. *)
let deliver cpu (trap : Trap.t) =
  let vec = Trap.number trap.vector in
  let handler =
    try Phys.read32 cpu.phys (cpu.idt_base + (vec * 4))
    with Phys.Bad_physical_address _ -> 0l
  in
  if handler = 0l then begin
    Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_triple_fault ~a:vec ~b:0;
    raise (Triple_fault trap)
  end;
  Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_trap ~a:vec
    ~b:(u32 cpu.eip);
  if cpu.mode = User then
    Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_mode_kernel ~a:0
      ~b:(u32 cpu.eip);
  let old_esp = cpu.regs.(Insn.esp)
  and old_eflags = cpu.eflags
  and old_mode = cpu.mode
  and old_eip = cpu.eip in
  (try
     if cpu.mode = User then cpu.regs.(Insn.esp) <- cpu.esp0;
     cpu.mode <- Kernel;
     push cpu old_esp;
     push cpu (i32 old_eflags);
     push cpu (match old_mode with Kernel -> 0l | User -> 1l);
     push cpu old_eip;
     push cpu trap.error;
     cpu.eflags <- cpu.eflags land lnot Flags.if_;
     cpu.eip <- handler
   with Mmu.Page_fault _ | Phys.Bad_physical_address _ ->
     (* Kernel stack unusable: double fault, escalate. *)
     Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_triple_fault ~a:vec
       ~b:0;
     raise (Triple_fault trap))

let do_iret cpu =
  require_kernel cpu;
  let new_eip = pop cpu in
  let new_mode = pop cpu in
  let new_eflags = pop cpu in
  let new_esp = pop cpu in
  cpu.eip <- new_eip;
  cpu.mode <- (if Int32.logand new_mode 1l = 1l then User else Kernel);
  if cpu.mode = User then
    Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_mode_user ~a:0
      ~b:(u32 new_eip);
  cpu.eflags <- u32 new_eflags land 0xFFFF;
  cpu.regs.(Insn.esp) <- new_esp

(* Fetch + decode at eip, with a physically-keyed decoded-instruction
   cache.  Instructions that cross a page boundary are not cached.  A
   cached fetch reads no memory, so it reports its bytes to the read
   watch itself. *)
let fetch_decode cpu =
  let pa0 = translate cpu ~write:false cpu.eip in
  match Hashtbl.find_opt cpu.icache pa0 with
  | Some ((_, len) as res) ->
    Phys.touch cpu.phys pa0 len;
    res
  | None ->
    let in_page = Mmu.page_size - (pa0 land (Mmu.page_size - 1)) in
    let fetch i =
      if i < in_page then Phys.read8 cpu.phys (pa0 + i)
      else rd8 cpu (cpu.eip +% i32 i)
    in
    (match Decode.decode fetch with
     | Decode.Invalid ->
       raise (Trap.Fault { vector = Trap.Invalid_opcode; error = 0l })
     | Decode.Ok (insn, len) ->
       if len <= in_page then begin
         Hashtbl.replace cpu.icache pa0 (insn, len);
         let page = pa0 lsr Mmu.page_shift in
         Hashtbl.replace cpu.code_index page
           (pa0
            ::
            (match Hashtbl.find_opt cpu.code_index page with
             | Some pas -> pas
             | None -> []));
         Bytes.set cpu.code_frames page '\001'
       end;
       (insn, len))

let alu_exec cpu op a b =
  let open Insn in
  match op with
  | Add ->
    let r = a +% b in
    cpu.eflags <- Flags.of_add cpu.eflags a b r;
    Some r
  | Sub ->
    let r = a -% b in
    cpu.eflags <- Flags.of_sub cpu.eflags a b r;
    Some r
  | Cmp ->
    let r = a -% b in
    cpu.eflags <- Flags.of_sub cpu.eflags a b r;
    None
  | And ->
    let r = Int32.logand a b in
    cpu.eflags <- Flags.of_logic cpu.eflags r;
    Some r
  | Or ->
    let r = Int32.logor a b in
    cpu.eflags <- Flags.of_logic cpu.eflags r;
    Some r
  | Xor ->
    let r = Int32.logxor a b in
    cpu.eflags <- Flags.of_logic cpu.eflags r;
    Some r

let alu_rm cpu op rm b =
  match alu_exec cpu op (rd_rm cpu rm) b with
  | Some r -> wr_rm cpu rm r
  | None -> ()

let shift_exec cpu op v n =
  let n = n land 31 in
  if n = 0 then v
  else begin
    let r =
      match op with
      | Insn.Shl -> Int32.shift_left v n
      | Insn.Shr -> Int32.shift_right_logical v n
      | Insn.Sar -> Int32.shift_right v n
    in
    let last_out =
      match op with
      | Insn.Shl -> Int32.logand (Int32.shift_right_logical v (32 - n)) 1l
      | Insn.Shr | Insn.Sar -> Int32.logand (Int32.shift_right_logical v (n - 1)) 1l
    in
    cpu.eflags <- Flags.set (Flags.of_result cpu.eflags r) Flags.cf (last_out = 1l);
    r
  end

let out_byte cpu port v =
  if port = Devices.console_port then begin
    Buffer.add_char cpu.console (Char.chr (v land 0xff));
    Buffer.add_char cpu.tty (Char.chr (v land 0xff))
  end
  else if port = Devices.klog_port then Buffer.add_char cpu.console (Char.chr (v land 0xff))
  else if port = Devices.poweroff_port then begin
    cpu.halted <- true;
    cpu.exit_code <- Some (v land 0xff)
  end
  else if port = Devices.snapshot_port then cpu.snapshot_request <- true
  (* writes to unknown ports are ignored, like real hardware *)

let read_cr cpu = function
  | 0 -> cpu.cr0
  | 2 -> cpu.cr2
  | 3 -> cpu.cr3
  | 6 -> cpu.esp0
  | _ -> gp ()

let write_cr cpu n v =
  match n with
  | 0 -> cpu.cr0 <- v
  | 2 -> cpu.cr2 <- v
  | 3 ->
    cpu.cr3 <- v;
    Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_cr3 ~a:(u32 v) ~b:0;
    Mmu.flush cpu.mmu
  | 6 -> cpu.esp0 <- v
  | _ -> gp ()

let disk_transfer cpu ~write =
  require_kernel cpu;
  let block = u32 cpu.regs.(Insn.ebx) in
  if not (Devices.Disk.in_range cpu.disk block) then gp ();
  if write then begin
    let src = cpu.regs.(Insn.esi) in
    let buf = Bytes.create Devices.block_size in
    for i = 0 to Devices.block_size - 1 do
      Bytes.set buf i (Char.chr (rd8 cpu (src +% i32 i)))
    done;
    Devices.Disk.write_block cpu.disk block buf
  end
  else begin
    let dst = cpu.regs.(Insn.edi) in
    let buf = Devices.Disk.read_block cpu.disk block in
    for i = 0 to Devices.block_size - 1 do
      wr8 cpu (dst +% i32 i) (Char.code (Bytes.get buf i))
    done
  end;
  cpu.cycles <- cpu.cycles + 500

(* Execute one decoded instruction.  [cpu.eip] has already been advanced to
   the next instruction; relative branches are taken from there. *)
let execute cpu insn =
  let open Insn in
  match insn with
  | Nop -> ()
  | Hlt ->
    require_kernel cpu;
    cpu.halted <- true
  | Mov_ri (r, v) -> cpu.regs.(r) <- v
  | Mov_rm_r (rm, r) -> wr_rm cpu rm cpu.regs.(r)
  | Mov_r_rm (r, rm) -> cpu.regs.(r) <- rd_rm cpu rm
  | Mov_rm_i (rm, v) -> wr_rm cpu rm v
  | Movb_rm_r (rm, r) -> wrb_rm cpu rm (u32 cpu.regs.(r) land 0xff)
  | Movb_r_rm (r, rm) ->
    let v = rdb_rm cpu rm in
    cpu.regs.(r) <- Int32.logor (Int32.logand cpu.regs.(r) 0xFFFFFF00l) (i32 v)
  | Movzbl (r, rm) -> cpu.regs.(r) <- i32 (rdb_rm cpu rm)
  | Push_r r -> push cpu cpu.regs.(r)
  | Pop_r r -> cpu.regs.(r) <- pop cpu
  | Push_i v | Push_i8 v -> push cpu v
  | Inc_r r ->
    let a = cpu.regs.(r) in
    let old_cf = Flags.get cpu.eflags Flags.cf in
    let r' = a +% 1l in
    cpu.eflags <- Flags.set (Flags.of_add cpu.eflags a 1l r') Flags.cf old_cf;
    cpu.regs.(r) <- r'
  | Dec_r r ->
    let a = cpu.regs.(r) in
    let old_cf = Flags.get cpu.eflags Flags.cf in
    let r' = a -% 1l in
    cpu.eflags <- Flags.set (Flags.of_sub cpu.eflags a 1l r') Flags.cf old_cf;
    cpu.regs.(r) <- r'
  | Alu_rm_r (op, rm, r) -> alu_rm cpu op rm cpu.regs.(r)
  | Alu_r_rm (op, r, rm) ->
    let b = rd_rm cpu rm in
    (match alu_exec cpu op cpu.regs.(r) b with
     | Some v -> cpu.regs.(r) <- v
     | None -> ())
  | Alu_eax_i (op, v) ->
    (match alu_exec cpu op cpu.regs.(eax) v with
     | Some r -> cpu.regs.(eax) <- r
     | None -> ())
  | Alu_rm_i (op, rm, v) | Alu_rm_i8 (op, rm, v) -> alu_rm cpu op rm v
  | Test_rm_r (rm, r) ->
    let v = Int32.logand (rd_rm cpu rm) cpu.regs.(r) in
    cpu.eflags <- Flags.of_logic cpu.eflags v
  | Not_rm rm -> wr_rm cpu rm (Int32.lognot (rd_rm cpu rm))
  | Neg_rm rm ->
    let v = rd_rm cpu rm in
    let r = Int32.neg v in
    cpu.eflags <- Flags.set (Flags.of_sub cpu.eflags 0l v r) Flags.cf (v <> 0l);
    wr_rm cpu rm r
  | Mul_rm rm ->
    let a = Int64.of_int32 cpu.regs.(eax) |> Int64.logand 0xFFFFFFFFL in
    let b = Int64.of_int32 (rd_rm cpu rm) |> Int64.logand 0xFFFFFFFFL in
    let p = Int64.mul a b in
    cpu.regs.(eax) <- Int64.to_int32 p;
    cpu.regs.(edx) <- Int64.to_int32 (Int64.shift_right_logical p 32);
    let hi_nonzero = cpu.regs.(edx) <> 0l in
    cpu.eflags <- Flags.set (Flags.set cpu.eflags Flags.cf hi_nonzero) Flags.of_ hi_nonzero
  | Div_rm rm ->
    let divisor = Int64.logand (Int64.of_int32 (rd_rm cpu rm)) 0xFFFFFFFFL in
    if divisor = 0L then raise (Trap.Fault { vector = Trap.Divide_error; error = 0l });
    let dividend =
      Int64.logor
        (Int64.shift_left (Int64.logand (Int64.of_int32 cpu.regs.(edx)) 0xFFFFFFFFL) 32)
        (Int64.logand (Int64.of_int32 cpu.regs.(eax)) 0xFFFFFFFFL)
    in
    let q = Int64.unsigned_div dividend divisor in
    if Int64.unsigned_compare q 0xFFFFFFFFL > 0 then
      raise (Trap.Fault { vector = Trap.Divide_error; error = 0l });
    cpu.regs.(eax) <- Int64.to_int32 q;
    cpu.regs.(edx) <- Int64.to_int32 (Int64.unsigned_rem dividend divisor)
  | Imul_r_rm (r, rm) ->
    let p = Int64.mul (Int64.of_int32 cpu.regs.(r)) (Int64.of_int32 (rd_rm cpu rm)) in
    let lo = Int64.to_int32 p in
    let overflow = Int64.of_int32 lo <> p in
    cpu.regs.(r) <- lo;
    cpu.eflags <- Flags.set (Flags.set cpu.eflags Flags.cf overflow) Flags.of_ overflow
  | Shift_i (op, rm, n) -> wr_rm cpu rm (shift_exec cpu op (rd_rm cpu rm) n)
  | Shift_cl (op, rm) ->
    wr_rm cpu rm (shift_exec cpu op (rd_rm cpu rm) (u32 cpu.regs.(ecx) land 0xff))
  | Shrd (rm, r, n) ->
    let n = n land 31 in
    let v = rd_rm cpu rm in
    let res =
      if n = 0 then v
      else
        Int32.logor (Int32.shift_right_logical v n) (Int32.shift_left cpu.regs.(r) (32 - n))
    in
    cpu.eflags <- Flags.of_result cpu.eflags res;
    wr_rm cpu rm res
  | Lea (r, m) -> cpu.regs.(r) <- ea cpu m
  | Cdq ->
    cpu.regs.(edx) <- (if Int32.compare cpu.regs.(eax) 0l < 0 then -1l else 0l)
  | Jmp rel | Jmp8 rel -> cpu.eip <- cpu.eip +% rel
  | Jcc (c, rel) | Jcc8 (c, rel) ->
    if Flags.eval_cond cpu.eflags c then cpu.eip <- cpu.eip +% rel
  | Call rel ->
    push cpu cpu.eip;
    cpu.eip <- cpu.eip +% rel
  | Call_rm rm ->
    let target = rd_rm cpu rm in
    push cpu cpu.eip;
    cpu.eip <- target
  | Jmp_rm rm -> cpu.eip <- rd_rm cpu rm
  | Push_rm rm -> push cpu (rd_rm cpu rm)
  | Inc_rm rm ->
    let a = rd_rm cpu rm in
    let old_cf = Flags.get cpu.eflags Flags.cf in
    let r = a +% 1l in
    cpu.eflags <- Flags.set (Flags.of_add cpu.eflags a 1l r) Flags.cf old_cf;
    wr_rm cpu rm r
  | Dec_rm rm ->
    let a = rd_rm cpu rm in
    let old_cf = Flags.get cpu.eflags Flags.cf in
    let r = a -% 1l in
    cpu.eflags <- Flags.set (Flags.of_sub cpu.eflags a 1l r) Flags.cf old_cf;
    wr_rm cpu rm r
  | Ret -> cpu.eip <- pop cpu
  | Lret -> gp () (* far return is meaningless in the flat model *)
  | Leave ->
    cpu.regs.(esp) <- cpu.regs.(ebp);
    cpu.regs.(ebp) <- pop cpu
  | Int_ n ->
    if cpu.mode = User && n <> 0x80 && n <> 3 then gp ();
    deliver cpu { vector = Trap.of_number n; error = 0l }
  | Int3 -> deliver cpu { vector = Trap.Int3; error = 0l }
  | Ud2 -> raise (Trap.Fault { vector = Trap.Invalid_opcode; error = 0l })
  | Pusha ->
    let orig_esp = cpu.regs.(esp) in
    push cpu cpu.regs.(eax);
    push cpu cpu.regs.(ecx);
    push cpu cpu.regs.(edx);
    push cpu cpu.regs.(ebx);
    push cpu orig_esp;
    push cpu cpu.regs.(ebp);
    push cpu cpu.regs.(esi);
    push cpu cpu.regs.(edi)
  | Popa ->
    cpu.regs.(edi) <- pop cpu;
    cpu.regs.(esi) <- pop cpu;
    cpu.regs.(ebp) <- pop cpu;
    ignore (pop cpu);
    cpu.regs.(ebx) <- pop cpu;
    cpu.regs.(edx) <- pop cpu;
    cpu.regs.(ecx) <- pop cpu;
    cpu.regs.(eax) <- pop cpu
  | Iret -> do_iret cpu
  | Cli ->
    require_kernel cpu;
    cpu.eflags <- cpu.eflags land lnot Flags.if_
  | Sti ->
    require_kernel cpu;
    cpu.eflags <- cpu.eflags lor Flags.if_
  | In_al ->
    require_kernel cpu;
    cpu.regs.(eax) <- Int32.logand cpu.regs.(eax) 0xFFFFFF00l
  | Out_al ->
    require_kernel cpu;
    out_byte cpu (u32 cpu.regs.(edx) land 0xFFFF) (u32 cpu.regs.(eax) land 0xff)
  | Mov_cr_r (cr, r) ->
    require_kernel cpu;
    write_cr cpu cr cpu.regs.(r)
  | Mov_r_cr (r, cr) ->
    require_kernel cpu;
    cpu.regs.(r) <- read_cr cpu cr
  | Rdtsc ->
    cpu.cycle_reads <- cpu.cycle_reads + 1;
    cpu.regs.(eax) <- i32 (cpu.cycles land 0xFFFFFFFF);
    cpu.regs.(edx) <- i32 (cpu.cycles lsr 32)
  | Diskrd -> disk_transfer cpu ~write:false
  | Diskwr -> disk_transfer cpu ~write:true

(* The effective address of an instruction's explicit memory operand, for
   the flight recorder (-1 when it has none).  Stack traffic implied by
   push/pop/call/ret is deliberately not reported. *)
let insn_mem cpu insn =
  let open Insn in
  let of_rm = function Mem m -> u32 (ea cpu m) | Reg _ -> -1 in
  match insn with
  | Mov_rm_r (rm, _) | Mov_r_rm (_, rm) | Mov_rm_i (rm, _)
  | Movb_rm_r (rm, _) | Movb_r_rm (_, rm) | Movzbl (_, rm)
  | Alu_rm_r (_, rm, _) | Alu_r_rm (_, _, rm)
  | Alu_rm_i (_, rm, _) | Alu_rm_i8 (_, rm, _)
  | Test_rm_r (rm, _) | Not_rm rm | Neg_rm rm | Mul_rm rm | Div_rm rm
  | Imul_r_rm (_, rm) | Shift_i (_, rm, _) | Shift_cl (_, rm)
  | Shrd (rm, _, _) | Call_rm rm | Jmp_rm rm | Push_rm rm
  | Inc_rm rm | Dec_rm rm -> of_rm rm
  | _ -> -1

(* Record the instruction about to execute (trace level Ring or Full). *)
let trace_insn cpu insn =
  let op =
    try Phys.read8 cpu.phys (translate cpu ~write:false cpu.eip) with _ -> -1
  in
  Trace.record cpu.trace ~cycle:cpu.cycles ~eip:cpu.eip ~op
    ~user:(cpu.mode = User) ~mem:(insn_mem cpu insn)

let debug_match cpu =
  if cpu.dr7 = 0 then -1
  else begin
    let rec find i =
      if i > 3 then -1
      else if cpu.dr7 land (1 lsl i) <> 0 && cpu.dr.(i) = cpu.eip then i
      else find (i + 1)
    in
    find 0
  end

(* Execute a single instruction, delivering any resulting exception to the
   guest kernel.  Faulting instructions are restarted x86-style: registers
   and eip are rolled back before delivery. *)
let step cpu =
  if not cpu.halted then begin
    if cpu.cycles >= cpu.next_timer && Flags.get cpu.eflags Flags.if_ then begin
      cpu.next_timer <- cpu.cycles + cpu.timer_period;
      (try deliver cpu { vector = Trap.Timer_irq; error = 0l }
       with Mmu.Page_fault (addr, code) ->
         cpu.cr2 <- addr;
         raise (Triple_fault { vector = Trap.Page_fault; error = code }))
    end;
    (match cpu.on_debug_hit with
     | Some hook ->
       let m = debug_match cpu in
       if m >= 0 then begin
         Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_debug_hit ~a:m
           ~b:(u32 cpu.eip);
         hook cpu m
       end
     | None -> ());
    let saved_eip = cpu.eip and saved_eflags = cpu.eflags in
    Array.blit cpu.regs 0 cpu.scratch 0 8;
    (try
       let insn, len = fetch_decode cpu in
       cpu.decoded <- cpu.decoded + 1;
       if Trace.enabled cpu.trace then trace_insn cpu insn;
       cpu.eip <- cpu.eip +% i32 len;
       execute cpu insn
     with
     | Mmu.Page_fault (addr, code) ->
       Array.blit cpu.scratch 0 cpu.regs 0 8;
       cpu.eip <- saved_eip;
       cpu.eflags <- saved_eflags;
       cpu.cr2 <- addr;
       cpu.last_fault_cycle <- cpu.cycles;
       deliver cpu { vector = Trap.Page_fault; error = code }
     | Trap.Fault t ->
       Array.blit cpu.scratch 0 cpu.regs 0 8;
       cpu.eip <- saved_eip;
       cpu.eflags <- saved_eflags;
       cpu.last_fault_cycle <- cpu.cycles;
       deliver cpu t
     | Phys.Bad_physical_address _ ->
       (* A mapping points outside physical memory: machine-check-like. *)
       Trace.record_event cpu.trace ~cycle:cpu.cycles ~kind:Trace.ev_triple_fault
         ~a:(Trap.number Trap.General_protection) ~b:0;
       raise (Triple_fault { vector = Trap.General_protection; error = 0l }));
    cpu.cycles <- cpu.cycles + 1
  end

let set_timer cpu period =
  cpu.timer_period <- period;
  cpu.next_timer <- (if period = 0 then max_int else cpu.cycles + period)

(* ----- instruction pre-compilation (the cached backend's decode step) -----

   [compile_insn] resolves the execute dispatch and operand addressing
   once, at decode time, returning a closure with the exact semantics of
   [execute insn].  Only the hot straight-line instructions are
   specialized; everything else falls back to a closure over [execute]
   itself, so the reference interpreter remains the single source of
   truth for the rare forms.  [mem_thunk] is the same pre-resolution for
   the flight recorder's effective-address computation ([insn_mem]). *)

let compile_ea (m : Insn.mem) : t -> int32 =
  match (m.Insn.base, m.Insn.index) with
  | None, None ->
    let d = m.Insn.disp in
    fun _ -> d
  | Some b, None ->
    let d = m.Insn.disp in
    if d = 0l then (fun cpu -> cpu.regs.(b)) else fun cpu -> cpu.regs.(b) +% d
  | Some b, Some (i, s) ->
    let d = m.Insn.disp and s32 = i32 s in
    fun cpu -> cpu.regs.(b) +% Int32.mul cpu.regs.(i) s32 +% d
  | None, Some (i, s) ->
    let d = m.Insn.disp and s32 = i32 s in
    fun cpu -> Int32.mul cpu.regs.(i) s32 +% d

let no_mem : t -> int = fun _ -> -1

let mem_thunk (insn : Insn.t) : t -> int =
  let open Insn in
  let of_rm = function
    | Mem m ->
      let lea = compile_ea m in
      fun cpu -> u32 (lea cpu)
    | Reg _ -> no_mem
  in
  match insn with
  | Mov_rm_r (rm, _) | Mov_r_rm (_, rm) | Mov_rm_i (rm, _)
  | Movb_rm_r (rm, _) | Movb_r_rm (_, rm) | Movzbl (_, rm)
  | Alu_rm_r (_, rm, _) | Alu_r_rm (_, _, rm)
  | Alu_rm_i (_, rm, _) | Alu_rm_i8 (_, rm, _)
  | Test_rm_r (rm, _) | Not_rm rm | Neg_rm rm | Mul_rm rm | Div_rm rm
  | Imul_r_rm (_, rm) | Shift_i (_, rm, _) | Shift_cl (_, rm)
  | Shrd (rm, _, _) | Call_rm rm | Jmp_rm rm | Push_rm rm
  | Inc_rm rm | Dec_rm rm -> of_rm rm
  | _ -> no_mem

(* ALU forms with a register destination, shared across the rm/imm/eax
   spellings.  [src] is pre-resolved, and the [Flags.of_add]/[of_sub]/
   [of_logic] computations are flattened into the closure bodies (same
   bit math, no out-of-line calls); the [backend.equiv] fuzz property
   holds them to the interpreter's results bit for bit. *)

(* ZF/SF/PF of a result, as in [Flags.of_result]. *)
let zsp_bits ir =
  let p = ir land 0xff in
  let p = p lxor (p lsr 4) in
  let p = p lxor (p lsr 2) in
  let p = p lxor (p lsr 1) in
  (if ir = 0 then Flags.zf else 0)
  lor (if ir < 0 then Flags.sf else 0)
  lor (if p land 1 = 0 then Flags.pf else 0)

let arith_mask = lnot (Flags.zf lor Flags.sf lor Flags.pf lor Flags.cf lor Flags.of_)

let compile_alu_reg op d (src : t -> int32) : t -> unit =
  let open Insn in
  match op with
  | Add ->
    fun cpu ->
      let a = cpu.regs.(d) in
      let b = src cpu in
      let r = a +% b in
      let ia = Int32.to_int a and ib = Int32.to_int b and ir = Int32.to_int r in
      let fl = cpu.eflags land arith_mask lor zsp_bits ir in
      let fl =
        if ir land 0xFFFFFFFF < ia land 0xFFFFFFFF then fl lor Flags.cf else fl
      in
      let fl = if ia lxor ib >= 0 && ia lxor ir < 0 then fl lor Flags.of_ else fl in
      cpu.eflags <- fl;
      cpu.regs.(d) <- r
  | Sub ->
    fun cpu ->
      let a = cpu.regs.(d) in
      let b = src cpu in
      let r = a -% b in
      let ia = Int32.to_int a and ib = Int32.to_int b and ir = Int32.to_int r in
      let fl = cpu.eflags land arith_mask lor zsp_bits ir in
      let fl =
        if ia land 0xFFFFFFFF < ib land 0xFFFFFFFF then fl lor Flags.cf else fl
      in
      let fl = if ia lxor ib < 0 && ia lxor ir < 0 then fl lor Flags.of_ else fl in
      cpu.eflags <- fl;
      cpu.regs.(d) <- r
  | Cmp ->
    fun cpu ->
      let a = cpu.regs.(d) in
      let b = src cpu in
      let r = a -% b in
      let ia = Int32.to_int a and ib = Int32.to_int b and ir = Int32.to_int r in
      let fl = cpu.eflags land arith_mask lor zsp_bits ir in
      let fl =
        if ia land 0xFFFFFFFF < ib land 0xFFFFFFFF then fl lor Flags.cf else fl
      in
      let fl = if ia lxor ib < 0 && ia lxor ir < 0 then fl lor Flags.of_ else fl in
      cpu.eflags <- fl
  | And ->
    fun cpu ->
      let r = Int32.logand cpu.regs.(d) (src cpu) in
      cpu.eflags <- cpu.eflags land arith_mask lor zsp_bits (Int32.to_int r);
      cpu.regs.(d) <- r
  | Or ->
    fun cpu ->
      let r = Int32.logor cpu.regs.(d) (src cpu) in
      cpu.eflags <- cpu.eflags land arith_mask lor zsp_bits (Int32.to_int r);
      cpu.regs.(d) <- r
  | Xor ->
    fun cpu ->
      let r = Int32.logxor cpu.regs.(d) (src cpu) in
      cpu.eflags <- cpu.eflags land arith_mask lor zsp_bits (Int32.to_int r);
      cpu.regs.(d) <- r

(* Conditional branches with the condition resolved at compile time: each
   cond becomes a direct mask test on eflags, the same bits
   [Flags.eval_cond] reads.  SF <> OF (conds L/GE/LE/G) folds to one test:
   OF sits exactly four bits above SF, so xoring eflags with itself
   shifted right by four aligns them. *)
let compile_jcc (c : Insn.cond) rel : t -> unit =
  let open Insn in
  match c with
  | O -> fun cpu -> if cpu.eflags land Flags.of_ <> 0 then cpu.eip <- cpu.eip +% rel
  | NO -> fun cpu -> if cpu.eflags land Flags.of_ = 0 then cpu.eip <- cpu.eip +% rel
  | B -> fun cpu -> if cpu.eflags land Flags.cf <> 0 then cpu.eip <- cpu.eip +% rel
  | AE -> fun cpu -> if cpu.eflags land Flags.cf = 0 then cpu.eip <- cpu.eip +% rel
  | E -> fun cpu -> if cpu.eflags land Flags.zf <> 0 then cpu.eip <- cpu.eip +% rel
  | NE -> fun cpu -> if cpu.eflags land Flags.zf = 0 then cpu.eip <- cpu.eip +% rel
  | BE ->
    fun cpu ->
      if cpu.eflags land (Flags.cf lor Flags.zf) <> 0 then cpu.eip <- cpu.eip +% rel
  | A ->
    fun cpu ->
      if cpu.eflags land (Flags.cf lor Flags.zf) = 0 then cpu.eip <- cpu.eip +% rel
  | S -> fun cpu -> if cpu.eflags land Flags.sf <> 0 then cpu.eip <- cpu.eip +% rel
  | NS -> fun cpu -> if cpu.eflags land Flags.sf = 0 then cpu.eip <- cpu.eip +% rel
  | P -> fun cpu -> if cpu.eflags land Flags.pf <> 0 then cpu.eip <- cpu.eip +% rel
  | NP -> fun cpu -> if cpu.eflags land Flags.pf = 0 then cpu.eip <- cpu.eip +% rel
  | L ->
    fun cpu ->
      let fl = cpu.eflags in
      if (fl lxor (fl lsr 4)) land Flags.sf <> 0 then cpu.eip <- cpu.eip +% rel
  | GE ->
    fun cpu ->
      let fl = cpu.eflags in
      if (fl lxor (fl lsr 4)) land Flags.sf = 0 then cpu.eip <- cpu.eip +% rel
  | LE ->
    fun cpu ->
      let fl = cpu.eflags in
      if fl land Flags.zf <> 0 || (fl lxor (fl lsr 4)) land Flags.sf <> 0 then
        cpu.eip <- cpu.eip +% rel
  | G ->
    fun cpu ->
      let fl = cpu.eflags in
      if fl land Flags.zf = 0 && (fl lxor (fl lsr 4)) land Flags.sf = 0 then
        cpu.eip <- cpu.eip +% rel

let compile_insn (insn : Insn.t) : t -> unit =
  let open Insn in
  match insn with
  | Nop -> fun _ -> ()
  | Mov_ri (r, v) -> fun cpu -> cpu.regs.(r) <- v
  | Mov_r_rm (r, Reg s) -> fun cpu -> cpu.regs.(r) <- cpu.regs.(s)
  | Mov_r_rm (r, Mem m) ->
    let lea = compile_ea m in
    fun cpu -> cpu.regs.(r) <- rd32 cpu (lea cpu)
  | Mov_rm_r (Reg d, r) -> fun cpu -> cpu.regs.(d) <- cpu.regs.(r)
  | Mov_rm_r (Mem m, r) ->
    let lea = compile_ea m in
    fun cpu -> wr32 cpu (lea cpu) cpu.regs.(r)
  | Mov_rm_i (Reg d, v) -> fun cpu -> cpu.regs.(d) <- v
  | Mov_rm_i (Mem m, v) ->
    let lea = compile_ea m in
    fun cpu -> wr32 cpu (lea cpu) v
  | Movzbl (r, rm) -> fun cpu -> cpu.regs.(r) <- i32 (rdb_rm cpu rm)
  | Push_r r -> fun cpu -> push cpu cpu.regs.(r)
  | Pop_r r -> fun cpu -> cpu.regs.(r) <- pop cpu
  | Push_i v | Push_i8 v -> fun cpu -> push cpu v
  | Push_rm rm -> fun cpu -> push cpu (rd_rm cpu rm)
  | Inc_r r ->
    (* inc/dec preserve CF; OF for [a + 1] / [a - 1] is the wrap at the
       signed extreme (same result as the generic of_add/of_sub bits). *)
    fun cpu ->
      let a = cpu.regs.(r) in
      let r' = a +% 1l in
      let ia = Int32.to_int a and ir = Int32.to_int r' in
      let fl = cpu.eflags land (arith_mask lor Flags.cf) lor zsp_bits ir in
      cpu.eflags <- (if ia >= 0 && ir < 0 then fl lor Flags.of_ else fl);
      cpu.regs.(r) <- r'
  | Dec_r r ->
    fun cpu ->
      let a = cpu.regs.(r) in
      let r' = a -% 1l in
      let ia = Int32.to_int a and ir = Int32.to_int r' in
      let fl = cpu.eflags land (arith_mask lor Flags.cf) lor zsp_bits ir in
      cpu.eflags <- (if ia < 0 && ir >= 0 then fl lor Flags.of_ else fl);
      cpu.regs.(r) <- r'
  | Alu_rm_r (op, Reg d, s) -> compile_alu_reg op d (fun cpu -> cpu.regs.(s))
  | Alu_r_rm (op, r, Reg s) -> compile_alu_reg op r (fun cpu -> cpu.regs.(s))
  | Alu_r_rm (op, r, Mem m) ->
    let lea = compile_ea m in
    compile_alu_reg op r (fun cpu -> rd32 cpu (lea cpu))
  | Alu_rm_i (op, Reg d, v) | Alu_rm_i8 (op, Reg d, v) ->
    compile_alu_reg op d (fun _ -> v)
  | Alu_eax_i (op, v) -> compile_alu_reg op eax (fun _ -> v)
  | Test_rm_r (Reg d, r) ->
    fun cpu ->
      let v = Int32.logand cpu.regs.(d) cpu.regs.(r) in
      cpu.eflags <- Flags.of_logic cpu.eflags v
  | Lea (r, m) ->
    let lea = compile_ea m in
    fun cpu -> cpu.regs.(r) <- lea cpu
  | Jmp rel | Jmp8 rel -> fun cpu -> cpu.eip <- cpu.eip +% rel
  | Jcc (c, rel) | Jcc8 (c, rel) -> compile_jcc c rel
  | Call rel ->
    fun cpu ->
      push cpu cpu.eip;
      cpu.eip <- cpu.eip +% rel
  | Ret -> fun cpu -> cpu.eip <- pop cpu
  | Leave ->
    fun cpu ->
      cpu.regs.(esp) <- cpu.regs.(ebp);
      cpu.regs.(ebp) <- pop cpu
  | _ -> fun cpu -> execute cpu insn

(* How much pre-instruction state the block engine must save to be able
   to roll the instruction back on a fault, classified against the
   closures [compile_insn] actually builds:

   - [Rb_none]: provably cannot raise (no memory access, no privilege
     check, no trap) — pure register/eip/eflags arithmetic.
   - [Rb_free]: can fault, but the closure performs no register or
     eflags write before its first (and only) faulting operation, so the
     pre-instruction state is simply the current state.  [pop]-style
     sequences qualify: the memory read precedes the esp update.
   - [Rb_push]: the single [push]-style esp decrement precedes the only
     faulting write, so rolling back is adding the 4 back — no save.
   - [Rb_full]: anything else (read-modify-write forms, the [execute]
     fallback): save the register file and eflags up front.

   eip needs no saving in any class — the block engine knows every
   instruction's eip from the decoded block. *)
type rollback = Rb_none | Rb_free | Rb_push | Rb_full

let insn_rollback (insn : Insn.t) =
  let open Insn in
  match insn with
  | Nop | Mov_ri _ | Inc_r _ | Dec_r _ | Lea _ | Jmp _ | Jmp8 _ | Jcc _
  | Jcc8 _ | Alu_eax_i _ | Rdtsc
  | Mov_r_rm (_, Reg _)
  | Mov_rm_r (Reg _, _)
  | Mov_rm_i (Reg _, _)
  | Movzbl (_, Reg _)
  | Test_rm_r (Reg _, _)
  | Alu_rm_r (_, Reg _, _)
  | Alu_r_rm (_, _, Reg _)
  | Alu_rm_i (_, Reg _, _)
  | Alu_rm_i8 (_, Reg _, _) ->
    Rb_none
  | Mov_r_rm (_, Mem _)
  | Mov_rm_r (Mem _, _)
  | Mov_rm_i (Mem _, _)
  | Movzbl (_, Mem _)
  | Alu_r_rm (_, _, Mem _)
  | Pop_r _ | Ret ->
    Rb_free
  | Push_r _ | Push_i _ | Push_i8 _ | Call _ -> Rb_push
  | _ -> Rb_full
