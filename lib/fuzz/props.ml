(* The cross-layer property library for the kfi-fuzz harness.

   Every property is a [Kfi_fuzz.Fuzz.t]: a generator over the simulator
   stack (instruction streams, machines, page tables, disk images,
   journals, CSV rows, telemetry JSON) plus an invariant that the paper's
   experiments depend on.  Failures shrink and replay from
   [--seed S --replay N] alone. *)

open Kfi_isa
module Gen = Kfi_fuzz.Gen
module Shrink = Kfi_fuzz.Shrink
module Fuzz = Kfi_fuzz.Fuzz

let spf = Printf.sprintf

(* ---------- instruction generator (full constructor coverage) ---------- *)

let gen_reg = Gen.int_range 0 7
let gen_reg_no_esp = Gen.oneofl [ 0; 1; 2; 3; 5; 6; 7 ]
let gen_scale = Gen.oneofl [ 1; 2; 4; 8 ]

let gen_disp =
  Gen.oneof
    [
      Gen.oneofl [ 0l; 1l; -1l; 4l; -4l; 124l; -128l; 127l; 128l; 0x1000l; 0xC0100000l ];
      Gen.int32;
    ]

(* Only canonically-encodable operands: scale in {1,2,4,8}, esp never an
   index (both enforced by [Encode.emit_modrm] with [invalid_arg]). *)
let gen_mem rng =
  match Kfi_fuzz.Rng.int rng 4 with
  | 0 ->
      let d = gen_disp rng in
      Insn.mem d
  | 1 ->
      let b = gen_reg rng in
      let d = gen_disp rng in
      Insn.mem ~base:b d
  | 2 ->
      let i = gen_reg_no_esp rng in
      let s = gen_scale rng in
      let d = gen_disp rng in
      Insn.mem ~index:(i, s) d
  | _ ->
      let b = gen_reg rng in
      let i = gen_reg_no_esp rng in
      let s = gen_scale rng in
      let d = gen_disp rng in
      Insn.mem ~base:b ~index:(i, s) d

let gen_rm =
  Gen.oneof [ Gen.map (fun r -> Insn.Reg r) gen_reg; Gen.map (fun m -> Insn.Mem m) gen_mem ]

let gen_imm =
  Gen.oneof [ Gen.oneofl [ 0l; 1l; -1l; 0x7fl; 0x80l; 0xdeadbeefl ]; Gen.int32 ]

let gen_imm8 = Gen.map Int32.of_int (Gen.int_range (-128) 127)
let gen_cond = Gen.map Insn.cond_of_code (Gen.int_range 0 15)
let gen_alu = Gen.oneofl Insn.[ Add; Or; And; Sub; Xor; Cmp ]
let gen_shift = Gen.oneofl Insn.[ Shl; Shr; Sar ]
let gen_count = Gen.int_range 0 255

let gen_insn =
  let open Insn in
  Gen.oneof
    [
      Gen.oneofl
        [ Nop; Hlt; Ret; Lret; Leave; Int3; Ud2; Pusha; Popa; Iret; Cli; Sti;
          In_al; Out_al; Cdq; Rdtsc; Diskrd; Diskwr ];
      Gen.map2 (fun r v -> Mov_ri (r, v)) gen_reg gen_imm;
      Gen.map2 (fun rm r -> Mov_rm_r (rm, r)) gen_rm gen_reg;
      Gen.map2 (fun r rm -> Mov_r_rm (r, rm)) gen_reg gen_rm;
      Gen.map2 (fun rm v -> Mov_rm_i (rm, v)) gen_rm gen_imm;
      Gen.map2 (fun rm r -> Movb_rm_r (rm, r)) gen_rm gen_reg;
      Gen.map2 (fun r rm -> Movb_r_rm (r, rm)) gen_reg gen_rm;
      Gen.map2 (fun r rm -> Movzbl (r, rm)) gen_reg gen_rm;
      Gen.map (fun r -> Push_r r) gen_reg;
      Gen.map (fun r -> Pop_r r) gen_reg;
      Gen.map (fun v -> Push_i v) gen_imm;
      Gen.map (fun v -> Push_i8 v) gen_imm8;
      Gen.map (fun r -> Inc_r r) gen_reg;
      Gen.map (fun r -> Dec_r r) gen_reg;
      Gen.map3 (fun a rm r -> Alu_rm_r (a, rm, r)) gen_alu gen_rm gen_reg;
      Gen.map3 (fun a r rm -> Alu_r_rm (a, r, rm)) gen_alu gen_reg gen_rm;
      Gen.map2 (fun a v -> Alu_eax_i (a, v)) gen_alu gen_imm;
      Gen.map3 (fun a rm v -> Alu_rm_i (a, rm, v)) gen_alu gen_rm gen_imm;
      Gen.map3 (fun a rm v -> Alu_rm_i8 (a, rm, v)) gen_alu gen_rm gen_imm8;
      Gen.map2 (fun rm r -> Test_rm_r (rm, r)) gen_rm gen_reg;
      Gen.map (fun rm -> Not_rm rm) gen_rm;
      Gen.map (fun rm -> Neg_rm rm) gen_rm;
      Gen.map (fun rm -> Mul_rm rm) gen_rm;
      Gen.map (fun rm -> Div_rm rm) gen_rm;
      Gen.map2 (fun r rm -> Imul_r_rm (r, rm)) gen_reg gen_rm;
      Gen.map3 (fun s rm n -> Shift_i (s, rm, n)) gen_shift gen_rm gen_count;
      Gen.map2 (fun s rm -> Shift_cl (s, rm)) gen_shift gen_rm;
      Gen.map3 (fun rm r n -> Shrd (rm, r, n)) gen_rm gen_reg gen_count;
      Gen.map2 (fun r m -> Lea (r, m)) gen_reg gen_mem;
      Gen.map (fun rel -> Jmp rel) gen_imm;
      Gen.map (fun rel -> Jmp8 rel) gen_imm8;
      Gen.map2 (fun c rel -> Jcc (c, rel)) gen_cond gen_imm;
      Gen.map2 (fun c rel -> Jcc8 (c, rel)) gen_cond gen_imm8;
      Gen.map (fun rel -> Call rel) gen_imm;
      Gen.map (fun rm -> Call_rm rm) gen_rm;
      Gen.map (fun rm -> Jmp_rm rm) gen_rm;
      Gen.map (fun rm -> Push_rm rm) gen_rm;
      Gen.map (fun rm -> Inc_rm rm) gen_rm;
      Gen.map (fun rm -> Dec_rm rm) gen_rm;
      Gen.map (fun n -> Int_ n) gen_count;
      Gen.map2 (fun cr r -> Mov_cr_r (cr, r)) (Gen.int_range 0 7) gen_reg;
      Gen.map2 (fun r cr -> Mov_r_cr (r, cr)) gen_reg (Gen.int_range 0 7);
    ]

(* Shrinking towards [Nop]: the smallest interesting counterexample for
   any decoder/encoder defect is the single instruction that triggers it,
   with every other element reduced to nop. *)
let shrink_insn i = if i = Insn.Nop then Seq.empty else Seq.return Insn.Nop

let print_insns l = "[" ^ String.concat "; " (List.map Disasm.to_string l) ^ "]"

let arb_insns ~min ~max =
  Fuzz.arb
    ~shrink:(Shrink.list ~elem:shrink_insn)
    ~print:print_insns
    (Gen.list ~min ~max gen_insn)

(* ---------- isa.roundtrip ---------- *)

(* Parameterized over the decoder so the mutation smoke check in the test
   suite can plant a decoder bug and watch the harness catch it. *)
let roundtrip_with ?(name = "isa.roundtrip") decode_bytes =
  Fuzz.make ~name
    ~doc:"encode/decode/length round-trip on generated instruction streams"
    (arb_insns ~min:1 ~max:8)
    (fun insns ->
      let buf = Buffer.create 64 in
      List.iter (Encode.emit buf) insns;
      let b = Buffer.to_bytes buf in
      let rec go off = function
        | [] ->
            if off = Bytes.length b then Ok ()
            else Error (spf "stream length mismatch: decoded %d of %d bytes" off (Bytes.length b))
        | i :: rest -> (
            match decode_bytes b off with
            | Decode.Invalid -> Error (spf "invalid decode at offset %d" off)
            | Decode.Ok (i', len) ->
                if i' <> i then
                  Error
                    (spf "offset %d: decoded %s, encoded %s" off (Disasm.to_string i')
                       (Disasm.to_string i))
                else if len <> Encode.length i then
                  Error (spf "offset %d: length %d <> encoded %d" off len (Encode.length i))
                else go (off + len) rest)
      in
      go 0 insns)

let isa_roundtrip = roundtrip_with Decode.decode_bytes

(* ---------- isa.decode_total ---------- *)

let isa_decode_total =
  Fuzz.make ~name:"isa.decode_total"
    ~doc:"the decoder never raises or over-reads on arbitrary bytes"
    (Fuzz.arb
       ~shrink:Shrink.bytes
       ~print:(fun b ->
         String.concat " "
           (List.init (Bytes.length b) (fun i -> spf "%02x" (Char.code (Bytes.get b i)))))
       (Gen.bytes ~min:1 ~max:16))
    (fun raw ->
      (* pad with nops so a truncated multi-byte decode has room, like the
         decoder sees inside a mapped code page *)
      let b = Bytes.cat raw (Bytes.make 16 '\x90') in
      match Decode.decode_bytes b 0 with
      | Decode.Ok (_, len) ->
          if len >= 1 && len <= 16 then Ok ()
          else Error (spf "decoded length %d out of 1..16" len)
      | Decode.Invalid -> Ok ())

(* ---------- asm.assemble_decode ---------- *)

let asm_assemble_decode =
  Fuzz.make ~name:"asm.assemble_decode"
    ~doc:"assembled streams (with relaxed branches) decode back to their metadata"
    (Fuzz.arb
       ~shrink:(Shrink.pair (Shrink.list ~elem:shrink_insn) Shrink.nil)
       ~print:(fun (insns, back) ->
         spf "%s %s" (print_insns insns) (if back then "loop-back" else "fwd"))
       (Gen.pair (Gen.list ~min:0 ~max:6 gen_insn) Gen.bool))
    (fun (insns, back) ->
      let open Kfi_asm.Assembler in
      let items =
        [ Label "top" ]
        @ List.map (fun i -> Ins i) insns
        @ [ Jcc_sym (Insn.NE, (if back then "top" else "out")); Label "out"; Ins Insn.Ret ]
      in
      match assemble ~base:0x10000l items with
      | exception e -> Error (spf "assemble raised %s" (Printexc.to_string e))
      | r ->
          let rec go = function
            | [] -> Ok ()
            | info :: rest -> (
                match Decode.decode_bytes r.code info.i_off with
                | Decode.Invalid -> Error (spf "offset %d: invalid decode" info.i_off)
                | Decode.Ok (i', len) ->
                    if i' <> info.i_insn then
                      Error
                        (spf "offset %d: decoded %s, assembled %s" info.i_off
                           (Disasm.to_string i') (Disasm.to_string info.i_insn))
                    else if len <> info.i_len then
                      Error (spf "offset %d: length %d <> %d" info.i_off len info.i_len)
                    else go rest)
          in
          go r.insns)

(* ---------- machine properties ---------- *)

(* A bare-metal machine with the testbed layout: page dir at 0x1000, pt0
   at 0x3000 identity-mapping 4 MB kernel-only (page 0 unmapped), pt1 at
   0x4000 mapping 4..8 MB as user pages; IDT at 0x2000. *)
let pgdir = 0x1000
let idt_base = 0x2000
let code_base = 0x10000
let stack_top = 0x80000

let make_machine () =
  let disk = Devices.Disk.create ~blocks:16 in
  let m = Machine.create ~phys_size:(8 * 1024 * 1024) ~idt_base ~disk () in
  let phys = Machine.phys m in
  let pt0 = 0x3000 and pt1 = 0x4000 in
  Phys.write32 phys (pgdir + 0) (Int32.of_int (pt0 lor 0x3));
  Phys.write32 phys (pgdir + 4) (Int32.of_int (pt1 lor 0x7));
  for i = 0 to 1023 do
    Phys.write32 phys (pt0 + (i * 4))
      (if i = 0 then 0l else Int32.of_int ((i * Mmu.page_size) lor 0x3));
    Phys.write32 phys
      (pt1 + (i * 4))
      (Int32.of_int ((0x400000 + (i * Mmu.page_size)) lor 0x7))
  done;
  let cpu = Machine.cpu m in
  cpu.Cpu.cr3 <- Int32.of_int pgdir;
  cpu.Cpu.regs.(Insn.esp) <- Int32.of_int stack_top;
  cpu.Cpu.eip <- Int32.of_int code_base;
  m

let load_program m insns =
  let buf = Buffer.create 64 in
  List.iter (Encode.emit buf) insns;
  Buffer.add_char buf '\xF4' (* hlt backstop *);
  Phys.blit_in (Machine.phys m) ~dst:code_base (Buffer.to_bytes buf)

(* Architectural fingerprint of a machine: everything an injection
   campaign observes.  The trace ring is deliberately excluded — that is
   the point of [cpu.trace_transparent]. *)
let fingerprint m stop =
  let cpu = Machine.cpu m in
  let b = Buffer.create 256 in
  Array.iteri (fun i r -> Buffer.add_string b (spf "r%d=%lx;" i r)) cpu.Cpu.regs;
  Buffer.add_string b
    (spf "eip=%lx;efl=%x;mode=%s;cr0=%lx;cr2=%lx;cr3=%lx;cyc=%d;halt=%b;exit=%s;"
       cpu.Cpu.eip cpu.Cpu.eflags
       (match cpu.Cpu.mode with Cpu.Kernel -> "k" | Cpu.User -> "u")
       cpu.Cpu.cr0 cpu.Cpu.cr2 cpu.Cpu.cr3 cpu.Cpu.cycles cpu.Cpu.halted
       (match cpu.Cpu.exit_code with None -> "-" | Some n -> string_of_int n));
  Buffer.add_string b (spf "console=%S;tty=%S;stop=%s" (Machine.console_contents m)
       (Machine.tty_contents m) stop);
  Buffer.contents b

let run_steps m n =
  let cpu = Machine.cpu m in
  let stop = ref "steps" in
  (try
     for _ = 1 to n do
       if cpu.Cpu.halted || cpu.Cpu.exit_code <> None then raise Exit;
       Cpu.step cpu
     done
   with
  | Exit -> stop := "halt"
  | Cpu.Triple_fault t -> stop := spf "triple:%s" (Trap.name t.Trap.vector)
  | e -> stop := spf "exn:%s" (Printexc.to_string e));
  fingerprint m !stop

let arb_program =
  Fuzz.arb
    ~shrink:(Shrink.pair (Shrink.list ~elem:shrink_insn) Shrink.int)
    ~print:(fun (insns, n) -> spf "%s for %d steps" (print_insns insns) n)
    (Gen.pair (Gen.list ~min:1 ~max:12 gen_insn) (Gen.int_range 0 64))

let cpu_snapshot_restore =
  Fuzz.make ~name:"cpu.snapshot_restore"
    ~doc:"restoring a snapshot replays any program to an identical architectural state"
    arb_program
    (fun (insns, steps) ->
      let m = make_machine () in
      load_program m insns;
      let snap = Machine.snapshot m in
      let first = run_steps m steps in
      Machine.restore m snap;
      let second = run_steps m steps in
      if first = second then Ok ()
      else Error (spf "diverged:\n  run1 %s\n  run2 %s" first second))

let cpu_trace_transparent =
  Fuzz.make ~name:"cpu.trace_transparent"
    ~doc:"the flight recorder never perturbs architectural execution"
    arb_program
    (fun (insns, steps) ->
      let exec level =
        let m = make_machine () in
        load_program m insns;
        Trace.set_level (Machine.cpu m).Cpu.trace level;
        run_steps m steps
      in
      let off = exec Trace.Off in
      let ring = exec Trace.Ring in
      let full = exec Trace.Full in
      if off <> ring then Error (spf "Ring diverged:\n  off  %s\n  ring %s" off ring)
      else if off <> full then Error (spf "Full diverged:\n  off  %s\n  full %s" off full)
      else Ok ())

(* ---------- backend.equiv ---------- *)

(* The differential property behind the pluggable execution backend: for
   a random program and a random mid-run text injection, the reference
   interpreter and the cached backend (dirty-page restore + pre-decoded
   basic blocks) must agree on everything a campaign observes — run
   outcome, registers, memory digest, trace entries and events — on the
   clean run, across an incremental snapshot restore, and on the
   injected replay.  The injection uses the runner's own mechanism: a
   debug-register hit that pokes kernel text through [Cpu.poke_phys].
   A third leg restores the snapshot once more and runs clean again: on
   each backend it must repeat the first clean leg exactly, so blocks
   kept across the injected bytes' restore run the bytes restored. *)

let result_name = function
  | Machine.Powered_off n -> spf "exit:%d" n
  | Machine.Halted -> "halted"
  | Machine.Watchdog -> "watchdog"
  | Machine.Reset t -> spf "reset:%s" (Trap.name t.Trap.vector)
  | Machine.Snapshot_point -> "snapshot-point"

let trace_repr tr =
  let b = Buffer.create 256 in
  Buffer.add_string b (spf "seen=%d;" (Trace.seen tr));
  List.iter
    (fun (e : Trace.entry) ->
      Buffer.add_string b
        (spf "i%d:%lx:%d:%b:%s;" e.Trace.en_cycle e.Trace.en_eip e.Trace.en_op
           e.Trace.en_user
           (match e.Trace.en_mem with None -> "-" | Some a -> string_of_int a)))
    (Trace.entries tr);
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string b
        (spf "e%d:%d:%d:%d;" e.Trace.ev_cycle e.Trace.ev_kind e.Trace.ev_a
           e.Trace.ev_b))
    (Trace.events tr);
  Buffer.contents b

let mem_digest m =
  Digest.to_hex
    (Digest.bytes
       (Phys.blit_out (Machine.phys m) ~src:0 ~len:(Phys.size (Machine.phys m))))

let arb_backend_case =
  Fuzz.arb
    ~shrink:
      (Shrink.pair
         (Shrink.pair (Shrink.list ~elem:shrink_insn) Shrink.int)
         (Shrink.triple Shrink.int Shrink.int Shrink.int))
    ~print:(fun ((insns, steps), (pick, byte, bit)) ->
      spf "%s for %d cycles, dr0@+%d flips bit %d of code+%d" (print_insns insns)
        steps pick bit byte)
    (Gen.pair
       (Gen.pair (Gen.list ~min:1 ~max:12 gen_insn) (Gen.int_range 0 96))
       (Gen.triple (Gen.int_bound 255) (Gen.int_bound 255) (Gen.int_range 0 7)))

let backend_equiv =
  Fuzz.make ~name:"backend.equiv"
    ~doc:
      "interp and cached backends agree on registers, memory, trace and \
       outcome for random programs and random injections"
    arb_backend_case
    (fun ((insns, steps), (pick, byte, bit)) ->
      let proglen =
        List.fold_left (fun n i -> n + Bytes.length (Encode.encode i)) 1 insns
      in
      let exec kind =
        let m = make_machine () in
        load_program m insns;
        let b = Backend.create kind m in
        Backend.set_trace_level b Trace.Ring;
        let snap = Backend.snapshot b in
        let r1 = Backend.run b ~max_cycles:steps in
        let clean = fingerprint m (result_name r1) in
        let clean_mem = mem_digest m in
        let clean_trace = trace_repr (Machine.cpu m).Cpu.trace in
        (* replay from the snapshot with a mid-run injection, armed the
           way the campaign runner arms it *)
        Backend.restore b snap;
        let cpu = Machine.cpu m in
        Trace.clear cpu.Cpu.trace;
        cpu.Cpu.dr.(0) <- Int32.of_int (code_base + (pick mod proglen));
        cpu.Cpu.dr7 <- 1;
        cpu.Cpu.on_debug_hit <-
          Some
            (fun c _ ->
              let pa = code_base + (byte mod proglen) in
              Cpu.poke_phys c pa (Phys.read8 c.Cpu.phys pa lxor (1 lsl bit));
              c.Cpu.dr7 <- 0);
        let r2 = Backend.run b ~max_cycles:steps in
        cpu.Cpu.on_debug_hit <- None;
        cpu.Cpu.dr7 <- 0;
        let injected = fingerprint m (result_name r2) in
        let injected_mem = mem_digest m in
        let injected_trace = trace_repr cpu.Cpu.trace in
        Backend.restore b snap;
        let r3 = Backend.run b ~max_cycles:steps in
        let again = fingerprint m (result_name r3) in
        let again_mem = mem_digest m in
        let again_trace = trace_repr cpu.Cpu.trace in
        Backend.detach b;
        let legs =
          String.concat "\n"
            [
              "clean " ^ clean; "clean-mem " ^ clean_mem;
              "clean-trace " ^ clean_trace; "injected " ^ injected;
              "injected-mem " ^ injected_mem; "injected-trace " ^ injected_trace;
            ]
        in
        if again = clean && again_mem = clean_mem && again_trace = clean_trace then Ok legs
        else
          Error
            (spf "%s: the clean rerun after the injected run differs:\n%s\nagain %s\nagain-mem %s\nagain-trace %s"
               (Backend.kind_name kind) legs again again_mem again_trace)
      in
      match (exec Backend.Interp, exec Backend.Cached) with
      | Error e, _ | _, Error e -> Error e
      | Ok reference, Ok cached ->
        if String.equal reference cached then Ok ()
        else Error (spf "backends diverged:\n-- interp --\n%s\n-- cached --\n%s" reference cached))

(* ---------- mmu.translate_ref ---------- *)

(* A pure reference of the two-level walk in [Mmu.walk] — no TLB.  The
   property drives the real MMU (whose TLB caches and re-walks) through
   random table edits and checks it never disagrees with the reference. *)
let ref_translate phys ~cr3 ~user ~write vaddr =
  let u32 v = Int32.to_int v land 0xFFFFFFFF in
  let va = u32 vaddr in
  let code ~present =
    (if present then 1 else 0) lor (if write then 2 else 0) lor if user then 4 else 0
  in
  let pde_addr = (u32 cr3 land 0xFFFFF000) + (((va lsr 22) land 0x3FF) * 4) in
  let pde = u32 (Phys.read32 phys pde_addr) in
  if pde land Mmu.pte_present = 0 then Error (code ~present:false)
  else
    let pte_addr = (pde land 0xFFFFF000) + (((va lsr Mmu.page_shift) land 0x3FF) * 4) in
    let pte = u32 (Phys.read32 phys pte_addr) in
    if pte land Mmu.pte_present = 0 then Error (code ~present:false)
    else
      let perm = pde land pte land (Mmu.pte_writable lor Mmu.pte_user) in
      if user && perm land Mmu.pte_user = 0 then Error (code ~present:true)
      else if write && perm land Mmu.pte_writable = 0 then Error (code ~present:true)
      else
        Ok (((pte land 0xFFFFF000) lor (va land (Mmu.page_size - 1))))

type mmu_op =
  | M_edit of int * int32 (* page-table slot, new entry *)
  | M_query of int32 * bool * bool (* vaddr, user, write *)

let print_mmu_op = function
  | M_edit (a, v) -> spf "edit [0x%x]=0x%lx" a v
  | M_query (va, u, w) ->
      spf "query 0x%lx%s%s" va (if u then " user" else "") (if w then " write" else "")

(* Tables live in pages 1..5 of a 1 MB physical space: the PD at 0x1000,
   candidate PTs at 0x2000..0x5000.  Entries always point inside the
   space, so the walk itself cannot run off physical memory. *)
let gen_table_entry rng =
  let present = Kfi_fuzz.Rng.bool rng in
  let frame = Kfi_fuzz.Rng.int rng 256 in
  let perms = Kfi_fuzz.Rng.int rng 4 * 2 in
  (* writable|user *)
  if present then Int32.of_int ((frame lsl 12) lor perms lor 1)
  else Int32.of_int (frame lsl 12)

let gen_pt_entry rng =
  let e = gen_table_entry rng in
  e

let gen_pde rng =
  let present = Kfi_fuzz.Rng.bool rng in
  let pt_page = 2 + Kfi_fuzz.Rng.int rng 4 in
  let perms = Kfi_fuzz.Rng.int rng 4 * 2 in
  if present then Int32.of_int ((pt_page lsl 12) lor perms lor 1)
  else Int32.of_int (pt_page lsl 12)

let gen_mmu_op rng =
  if Kfi_fuzz.Rng.int rng 100 < 30 then
    if Kfi_fuzz.Rng.bool rng then
      (* PD edit: one of the first 4 directory slots *)
      let slot = 0x1000 + (Kfi_fuzz.Rng.int rng 4 * 4) in
      M_edit (slot, gen_pde rng)
    else
      (* PT edit: one of 16 slots in one of the candidate PT pages *)
      let page = 2 + Kfi_fuzz.Rng.int rng 4 in
      let slot = (page * 0x1000) + (Kfi_fuzz.Rng.int rng 16 * 4) in
      M_edit (slot, gen_pt_entry rng)
  else
    let pd = Kfi_fuzz.Rng.int rng 4 in
    let pt = Kfi_fuzz.Rng.int rng 16 in
    let off = Kfi_fuzz.Rng.int rng Mmu.page_size in
    let va = Int32.of_int ((pd lsl 22) lor (pt lsl 12) lor off) in
    let user = Kfi_fuzz.Rng.bool rng in
    let write = Kfi_fuzz.Rng.bool rng in
    M_query (va, user, write)

let mmu_translate_ref =
  Fuzz.make ~name:"mmu.translate_ref"
    ~doc:"the TLB'd MMU always agrees with a pure page-walk reference"
    (Fuzz.arb
       ~shrink:(Shrink.list ~elem:Shrink.nil)
       ~print:(fun ops -> "[" ^ String.concat "; " (List.map print_mmu_op ops) ^ "]")
       (Gen.list ~min:1 ~max:40 gen_mmu_op))
    (fun ops ->
      let phys = Phys.create 0x100000 in
      let mmu = Mmu.create phys in
      let cr3 = 0x1000l in
      (* start with an empty directory: everything faults not-present *)
      let rec go = function
        | [] -> Ok ()
        | M_edit (slot, v) :: rest ->
            Phys.write32 phys slot v;
            Mmu.flush mmu;
            go rest
        | M_query (va, user, write) :: rest ->
            let expected = ref_translate phys ~cr3 ~user ~write va in
            let got =
              match Mmu.translate mmu ~cr3 ~user ~write va with
              | pa -> Ok pa
              | exception Mmu.Page_fault (va', code) ->
                  if va' <> va then Error (-1)
                  else Error (Int32.to_int code)
            in
            if got <> expected then
              Error
                (spf "%s: mmu %s, reference %s" (print_mmu_op (M_query (va, user, write)))
                   (match got with Ok pa -> spf "0x%x" pa | Error c -> spf "fault(%d)" c)
                   (match expected with
                   | Ok pa -> spf "0x%x" pa
                   | Error c -> spf "fault(%d)" c))
            else go rest
      in
      go ops)

(* ---------- oracle.equivalent_sound ---------- *)

(* One booted runner per process, shared by every case of every
   property that injects.  The boot is deterministic, so sharing does
   not break replay. *)
let shared_runner = lazy (Kfi_injector.Runner.create ())

let campaign_targets campaign =
  let build = Kfi_injector.Runner.build (Lazy.force shared_runner) in
  let fns = List.map (fun f -> f.Kfi_asm.Assembler.f_name) build.Kfi_kernel.Build.funcs in
  Array.of_list (Kfi_injector.Target.enumerate build ~campaign ~seed:7 fns)

let oracle_env =
  lazy
    (let runner = Lazy.force shared_runner in
     let oracle = Kfi_staticoracle.Oracle.create (Kfi_injector.Runner.build runner) in
     (runner, oracle, campaign_targets A))

let oracle_equivalent_sound =
  Fuzz.make ~name:"oracle.equivalent_sound"
    ~doc:"targets the oracle proves Equivalent never change the architectural outcome"
    (Fuzz.arb
       ~shrink:Shrink.nil
       ~print:(fun (i, bit) -> spf "target#%d bit %d" i bit)
       (Gen.pair (Gen.int_bound 1_000_000) (Gen.int_range 0 7)))
    (fun (i, bit) ->
      let open Kfi_injector in
      let runner, oracle, targets = Lazy.force oracle_env in
      let t = targets.(i mod Array.length targets) in
      let t = { t with Target.t_bit = bit } in
      match Kfi_staticoracle.Oracle.classify oracle t with
      | Kfi_staticoracle.Oracle.Equivalent why -> (
          match Runner.run_one runner ~workload:0 t with
          | Outcome.Not_activated | Outcome.Not_manifested -> Ok ()
          | o ->
              Error
                (spf "%s %s b%d bit%d: Equivalent(%s) but outcome %s" t.Target.t_fn
                   (Int32.to_string t.Target.t_addr) t.Target.t_byte bit why
                   (Outcome.category o)))
      | _ -> Ok ())

(* ---------- slice.sound ---------- *)

let slice_sound =
  Fuzz.make ~name:"slice.sound"
    ~doc:
      "every observed propagation hop lies inside the predicted slice's sound layer"
    (Fuzz.arb
       ~shrink:Shrink.nil
       ~print:(fun (i, bit) -> spf "target#%d bit %d" i bit)
       (Gen.pair (Gen.int_bound 1_000_000) (Gen.int_range 0 7)))
    (fun (i, bit) ->
      let open Kfi_injector in
      let runner, oracle, targets = Lazy.force oracle_env in
      let t = targets.(i mod Array.length targets) in
      let t = { t with Target.t_bit = bit } in
      let sl = Kfi_staticoracle.Oracle.slice oracle t in
      match Runner.run_one runner ~workload:0 t with
      | Outcome.Crash ci -> (
          if sl.Kfi_staticoracle.Slice.sl_masked then
            Error
              (spf "%s b%d bit%d: slice says masked but the run crashed"
                 t.Target.t_fn t.Target.t_byte bit)
          else
          match Kfi_staticoracle.Slice.violations sl ci.Outcome.propagation with
          | [] -> Ok ()
          | bad ->
              Error
                (spf "%s b%d bit%d: hops outside predicted slice [%s]: %s"
                   t.Target.t_fn t.Target.t_byte bit
                   (Kfi_staticoracle.Slice.to_string sl)
                   (String.concat ", " bad)))
      | (Outcome.Not_activated | Outcome.Not_manifested | Outcome.Harness_abort _)
        -> Ok ()
      | o ->
          (* a masked slice claims nothing can propagate at all *)
          if sl.Kfi_staticoracle.Slice.sl_masked then
            Error
              (spf "%s b%d bit%d: slice says masked but outcome %s" t.Target.t_fn
                 t.Target.t_byte bit (Outcome.category o))
          else Ok ())

(* ---------- runner.fastforward_equiv ---------- *)

(* [Runner.run_one] resolves a target its golden run never reaches
   without running it, and starts other runs on the cached backend at
   [Off] or [Ring] from a golden rung.  The reference here is the plain
   full run through the public API only: restore the workload's start,
   write the hardening flag, arm DR0 with a hook that records the hit
   cycle and changes nothing, run.  Never hit: [run_one] must say
   [Not_activated] with the same cycle count.  Hit: [run_one] must have
   injected at that cycle.  Its metrics must show that it saved all it
   may: [inj.skipped] = 1 for a never-hit run ending inside the budget,
   else [inj.prefix_skipped_cycles] = the offset of the latest rung of
   [Runner.ladder] at or before the hit and inside the budget (cached, at
   [Off] or [Ring]; 0 otherwise). *)

let ff_campaigns = Kfi_injector.Target.[| A; B; C; R |]
let ff_targets = lazy (Array.map campaign_targets ff_campaigns)

type ff_case = {
  ff_campaign : int;
  ff_index : int;
  ff_workload : int;
  ff_hardening : bool;
  ff_cached : bool;
  ff_budget : int option;  (** a reduced watchdog budget *)
  ff_level : Trace.level;
}

let gen_ff_case rng =
  let ff_campaign = Kfi_fuzz.Rng.int rng (Array.length ff_campaigns) in
  let ff_index = Kfi_fuzz.Rng.int rng 1_000_000 in
  let ff_workload = Kfi_fuzz.Rng.int rng (List.length Kfi_workload.Progs.names) in
  let ff_hardening = Kfi_fuzz.Rng.int rng 4 = 0 in
  let ff_cached = Kfi_fuzz.Rng.bool rng in
  let ff_budget =
    if Kfi_fuzz.Rng.int rng 4 = 0 then Some (Kfi_fuzz.Rng.int_range rng 1_000 2_000_000)
    else None
  in
  let ff_level =
    match Kfi_fuzz.Rng.int rng 4 with 0 -> Trace.Off | 1 -> Trace.Full | _ -> Trace.Ring
  in
  { ff_campaign; ff_index; ff_workload; ff_hardening; ff_cached; ff_budget; ff_level }

let runner_fastforward_equiv =
  Fuzz.make_counting ~counts:"skipped or started from a rung" ~name:"runner.fastforward_equiv"
    ~doc:
      "a target the golden touch maps skip or start from a rung reports exactly \
       what its full run reports, and saves exactly what they allow"
    (Fuzz.arb ~shrink:Shrink.nil
       ~print:(fun c ->
         spf "campaign %s target#%d workload %d%s%s%s %s"
           (Kfi_injector.Target.campaign_letter ff_campaigns.(c.ff_campaign))
           c.ff_index c.ff_workload
           (if c.ff_hardening then " hardened" else "")
           (if c.ff_cached then " cached" else "")
           (match c.ff_budget with Some b -> spf " budget %d" b | None -> "")
           (Trace.level_name c.ff_level))
       gen_ff_case)
    (fun c ->
      let open Kfi_injector in
      let runner = Lazy.force shared_runner in
      let targets = (Lazy.force ff_targets).(c.ff_campaign) in
      let t = targets.(c.ff_index mod Array.length targets) in
      let saved_cycles = Runner.max_cycles runner
      and saved_backend = Runner.backend_kind runner
      and saved_level = Runner.trace_level runner in
      Fun.protect
        ~finally:(fun () ->
          Runner.set_metrics runner None;
          Runner.set_hardening runner false;
          Runner.set_max_cycles runner saved_cycles;
          Runner.set_trace_level runner saved_level;
          Runner.set_backend runner saved_backend)
        (fun () ->
          Runner.set_hardening runner c.ff_hardening;
          Runner.set_trace_level runner c.ff_level;
          Option.iter (Runner.set_max_cycles runner) c.ff_budget;
          Runner.set_backend runner (if c.ff_cached then Backend.Cached else Backend.Interp);
          let m = Runner.machine runner in
          let cpu = Machine.cpu m in
          Machine.restore_checkpoint m ~base:(Runner.baseline runner)
            (Runner.start runner c.ff_workload);
          Runner.poke_hardening runner;
          let start = cpu.Cpu.cycles in
          let hit = ref None in
          cpu.Cpu.dr.(0) <- t.Target.t_addr;
          cpu.Cpu.dr7 <- 1;
          cpu.Cpu.on_debug_hit <-
            Some
              (fun c _ ->
                c.Cpu.dr7 <- 0;
                hit := Some c.Cpu.cycles);
          ignore (Machine.run m ~max_cycles:(Runner.max_cycles runner));
          cpu.Cpu.on_debug_hit <- None;
          cpu.Cpu.dr7 <- 0;
          let full_cycles = cpu.Cpu.cycles - start in
          let metrics = Kfi_obs.Metrics.create () in
          Runner.set_metrics runner (Some metrics);
          let o = Runner.run_one runner ~workload:c.ff_workload t in
          Runner.set_metrics runner None;
          let at = Runner.last_injected_at runner in
          let budget = Runner.max_cycles runner in
          let expected_skipped = if !hit = None && full_cycles < budget then 1 else 0 in
          let expected_prefix =
            let last = Option.value !hit ~default:max_int in
            if expected_skipped = 1 || (not c.ff_cached) || c.ff_level = Trace.Full then 0
            else
              Array.fold_left
                (fun acc k ->
                  match Option.map Machine.checkpoint_cycles k with
                  | Some cycle when cycle <= last && cycle - start < budget -> cycle - start
                  | _ -> acc)
                0 (Runner.ladder runner ~workload:c.ff_workload)
          in
          let counter = Kfi_obs.Metrics.(counter (snapshot metrics)) in
          let skipped = counter "inj.skipped" and prefix = counter "inj.prefix_skipped_cycles" in
          if skipped <> expected_skipped then
            Error (spf "inj.skipped %d, expected %d" skipped expected_skipped)
          else if prefix <> expected_prefix then
            Error (spf "started %d cycles past the start, expected %d" prefix expected_prefix)
          else
          match !hit with
          | None ->
            if o <> Outcome.Not_activated then
              Error (spf "never hit, but run_one says %s" (Outcome.category o))
            else if Runner.last_cycles runner <> full_cycles then
              Error
                (spf "never hit: %d cycles, run_one reports %d" full_cycles
                   (Runner.last_cycles runner))
            else if at <> None then Error "never hit, but run_one reports an injection"
            else Ok (skipped + prefix > 0)
          | Some h ->
            if at = Some h then Ok (prefix > 0)
            else
              Error
                (spf "hit at cycle %d, run_one %s" h
                   (match at with
                    | Some a -> spf "injected at %d" a
                    | None -> "did not run it (" ^ Outcome.category o ^ ")"))))

(* ---------- runner.ladder_equiv ---------- *)

(* On the cached backend, [Runner.run_one] starts an activated target
   from the latest golden checkpoint before its first hit, captured by
   earlier runs of the same (workload, hardening).  A case runs a short
   sequence of targets there, mostly on one workload, with per-run trace
   levels and watchdog budgets, and the last one again on the
   interpreter, which always starts at rung 0: both must agree on the
   outcome, the cycle counts, the tty, the flight recorder and the final
   registers, last fault cycle, timer, memory and disk.  The last target
   is often a neighbour of an earlier one, so a captured rung can serve
   it. *)

type ladder_step = {
  ls_ran : bool;  (** drawn from the executed functions' targets *)
  ls_campaign : int;
  ls_index : int;
  ls_workload : int;
  ls_level : Trace.level;
  ls_budget : int option;  (** a reduced watchdog budget *)
}

type ladder_case = { lc_hardening : bool; lc_steps : ladder_step list }

let shared_profile =
  lazy
    (let runner = Lazy.force shared_runner in
     Kfi_profiler.Sampler.profile_all ~build:(Kfi_injector.Runner.build runner)
       ~machine:(Kfi_injector.Runner.machine runner)
       ~baseline:(Kfi_injector.Runner.baseline runner) ())

(* Targets in the functions some workload executes at all: a golden run
   reaches far more of them than of the whole text, many only late. *)
let run_targets =
  lazy
    (let build = Kfi_injector.Runner.build (Lazy.force shared_runner) in
     let profile = Lazy.force shared_profile in
     let fns = List.map fst (Kfi_profiler.Sampler.top_functions profile ~coverage:1.0) in
     Array.map
       (fun campaign -> Array.of_list (Kfi_injector.Target.enumerate build ~campaign ~seed:7 fns))
       ff_campaigns)

let gen_ladder_case rng =
  let module R = Kfi_fuzz.Rng in
  let nworkloads = List.length Kfi_workload.Progs.names in
  (* the main workload, weighted by golden-run length: longer runs have
     more rungs *)
  let golden w = (Kfi_injector.Runner.golden (Lazy.force shared_runner) w).g_cycles in
  let main =
    let total = List.fold_left ( + ) 0 (List.init nworkloads golden) in
    let rec pick w x = if w = nworkloads - 1 || x < golden w then w else pick (w + 1) (x - golden w) in
    pick 0 (R.int rng total)
  in
  (* in a third of the cases, a budget shared by most runs that cuts the
     main workload's golden run short: unreached targets then run to it
     in full, capturing every rung below it *)
  let shared_budget =
    if R.int rng 3 = 0 then Some (golden main * R.int_range rng 25 95 / 100)
    else None
  in
  let step ls_ran ls_campaign ls_index ls_workload =
    let ls_level =
      match R.int rng 8 with 0 -> Trace.Off | 1 -> Trace.Full | _ -> Trace.Ring
    in
    let ls_budget =
      match R.int rng 6 with
      | 0 -> Some (R.int_range rng 1_000 2_000_000)
      | 1 -> None
      | 2 ->
        (* just past a rung: the run ends before the restored state is
           overwritten, so every part of it shows *)
        Some ((R.int_range rng 1 (golden main / Kfi_injector.Runner.rung_spacing + 1)
               * Kfi_injector.Runner.rung_spacing)
              + R.int_range rng 1 3_000)
      | _ -> shared_budget
    in
    { ls_ran; ls_campaign; ls_index; ls_workload; ls_level; ls_budget }
  in
  let fresh () =
    let ran = R.int rng 4 > 0 in
    let c = R.int rng (Array.length ff_campaigns) in
    let i = R.int rng 1_000_000 in
    step ran c i (if R.int rng 8 = 0 then R.int rng nworkloads else main)
  in
  let lc_hardening = R.int rng 4 = 0 in
  let earlier = List.init (R.int_range rng 1 5) (fun _ -> fresh ()) in
  let last =
    if R.int rng 4 > 0 then
      let e = List.nth earlier (R.int rng (List.length earlier)) in
      step e.ls_ran e.ls_campaign (e.ls_index + (R.int rng 3 / 2)) e.ls_workload
    else fresh ()
  in
  { lc_hardening; lc_steps = earlier @ [ last ] }

let print_ladder_case c =
  String.concat "; "
    (List.map
       (fun s ->
         spf "%s%s#%d w%d %s%s"
           (if s.ls_ran then "ran " else "")
           (Kfi_injector.Target.campaign_letter ff_campaigns.(s.ls_campaign))
           s.ls_index s.ls_workload (Trace.level_name s.ls_level)
           (match s.ls_budget with Some b -> spf " budget %d" b | None -> ""))
       c.lc_steps)
  ^ if c.lc_hardening then " (hardened)" else ""

(* What a run reports, then the final machine state, which a wrong rung
   also corrupts. *)
type ladder_run = {
  lr_outcome : Kfi_injector.Outcome.t;
  lr_cycles : int;
  lr_at : int option;
  lr_tty : string;
  lr_ring : int * Trace.entry list * Trace.event list;
  lr_regs : int32 list * int32;
  lr_fault : int;  (** last fault cycle *)
  lr_timer : int;  (** next timer tick *)
  lr_mem : bytes;
  lr_disk : bytes;
}

let ladder_difference a b =
  let at = function Some c -> string_of_int c | None -> "none" in
  let seen (n, _, _) = n in
  List.find_map
    (fun (same, msg) -> if same then None else Some (Lazy.force msg))
    [
      ( a.lr_outcome = b.lr_outcome,
        lazy
          (spf "outcome: cached %s, interp %s"
             (Kfi_injector.Outcome.category a.lr_outcome)
             (Kfi_injector.Outcome.category b.lr_outcome)) );
      (a.lr_cycles = b.lr_cycles, lazy (spf "cycles: cached %d, interp %d" a.lr_cycles b.lr_cycles));
      (a.lr_at = b.lr_at, lazy (spf "injected at: cached %s, interp %s" (at a.lr_at) (at b.lr_at)));
      (String.equal a.lr_tty b.lr_tty, lazy "tty differs");
      ( a.lr_ring = b.lr_ring,
        lazy (spf "flight recorder differs (seen %d vs %d)" (seen a.lr_ring) (seen b.lr_ring)) );
      (a.lr_regs = b.lr_regs, lazy "final registers differ");
      ( a.lr_fault = b.lr_fault,
        lazy (spf "last fault cycle: cached %d, interp %d" a.lr_fault b.lr_fault) );
      (a.lr_timer = b.lr_timer, lazy (spf "next timer: cached %d, interp %d" a.lr_timer b.lr_timer));
      (Bytes.equal a.lr_mem b.lr_mem, lazy "final memory differs");
      (Bytes.equal a.lr_disk b.lr_disk, lazy "final disk differs");
    ]

(* Run one target and record what it reports and leaves. *)
let ladder_record runner ~workload target =
  let open Kfi_injector in
  let lr_outcome = Runner.run_one runner ~workload target in
  let m = Runner.machine runner in
  let cpu = Machine.cpu m in
  let tr = cpu.Cpu.trace in
  {
    lr_outcome;
    lr_cycles = Runner.last_cycles runner;
    lr_at = Runner.last_injected_at runner;
    lr_tty = Machine.tty_contents m;
    lr_ring = (Trace.seen tr, Trace.entries tr, Trace.events tr);
    lr_regs = (Array.to_list cpu.Cpu.regs, cpu.Cpu.eip);
    lr_fault = cpu.Cpu.last_fault_cycle;
    lr_timer = cpu.Cpu.next_timer;
    lr_mem = Phys.blit_out (Machine.phys m) ~src:0 ~len:(Phys.size (Machine.phys m));
    lr_disk = Bytes.copy (Devices.Disk.image (Machine.disk m));
  }

let runner_ladder_equiv =
  Fuzz.make_counting ~counts:"started from a checkpoint" ~name:"runner.ladder_equiv"
    ~doc:
      "a run started from a golden checkpoint reports exactly what the \
       interpreter's plain run reports"
    (Fuzz.arb ~shrink:Shrink.nil ~print:print_ladder_case gen_ladder_case)
    (fun c ->
      let open Kfi_injector in
      let runner = Lazy.force shared_runner in
      let target s =
        let ts = (Lazy.force (if s.ls_ran then run_targets else ff_targets)).(s.ls_campaign) in
        ts.(s.ls_index mod Array.length ts)
      in
      let saved_cycles = Runner.max_cycles runner
      and saved_backend = Runner.backend_kind runner
      and saved_level = Runner.trace_level runner in
      let run s =
        Runner.set_trace_level runner s.ls_level;
        Runner.set_max_cycles runner (Option.value s.ls_budget ~default:saved_cycles);
        ladder_record runner ~workload:s.ls_workload (target s)
      in
      Fun.protect
        ~finally:(fun () ->
          Runner.set_metrics runner None;
          Runner.set_hardening runner false;
          Runner.set_max_cycles runner saved_cycles;
          Runner.set_trace_level runner saved_level;
          Runner.set_backend runner saved_backend)
        (fun () ->
          Runner.set_hardening runner c.lc_hardening;
          (* a fresh cached backend: an empty ladder, so the case alone
             decides which rungs exist *)
          Runner.set_backend runner Backend.Interp;
          Runner.set_backend runner Backend.Cached;
          let rec prefix = function
            | [ last ] -> last
            | s :: rest ->
              ignore (run s);
              prefix rest
            | [] -> assert false
          in
          let last = prefix c.lc_steps in
          let m = Kfi_obs.Metrics.create () in
          Runner.set_metrics runner (Some m);
          let cached = run last in
          Runner.set_metrics runner None;
          Runner.set_backend runner Backend.Interp;
          match ladder_difference cached (run last) with
          | None -> Ok (Kfi_obs.Metrics.(counter (snapshot m) "inj.ladder") > 0)
          | Some msg -> Error msg))

(* ---------- backend.loop_equiv ---------- *)

(* The block engine summarises affine loops ([Loopsum]): it applies the
   iterations left on the current page at once instead of executing
   them.  A case builds one loop as kcc compiles the kernel's bulk-memory
   loops (a pointer and a count in stack cells, the pointer pushed and
   popped into ecx): a word store, a byte store, a copy (its destination
   a random distance from its source, so it may overlap either way), a
   clear_page-style loop that compares the pointer with an end cell, or
   a register counter.  Strides, alignment (a word access may straddle a
   page), iteration counts and the start (now and then just below the
   stack cells, which the stores then reach) are random; so are an
   unmapped page next to the start (its fault halts), a running timer
   with IF set, the trace level and up to two pauses inside the loop.
   Two kinds follow the page-table scans: a kcc [idx32] loop over a
   table of mostly-zero words (the index shifted left by 2, the entry
   loaded, [and] with the present bit, [cmp]/[je]), with non-zero words
   at random indices, often where the first summary starts, and now and
   then a store that writes a word ahead of the scan; and a short-trip
   loop of 2 to 12 iterations run over and over, whose summaries back
   off.  The cached run must leave the interpreter's result, registers,
   eflags, cycle counter, cr2, flight recorder and low memory at every
   pause.  It counts the cases in which a loop was summarised. *)

type loop_case = {
  lc_kind : int;
      (* 0 word store, 1 byte store, 2 copy, 3 pointer vs end, 4 counter,
         5 table scan, 6 short trip *)
  lc_step : int;
  lc_start : int;
  lc_count : int;
  lc_delta : int;  (* copy: source minus destination *)
  lc_unmap : bool;
  lc_timer : int;  (* 0: off *)
  lc_level : Trace.level;
  lc_slices : int list;
  lc_marks : (int * int32) list;  (* table scan: non-zero words, by index *)
  lc_ahead : int;  (* table scan: the store's distance ahead, in words; 0: none *)
  lc_put : int32;  (* ... and the word it stores *)
}

let gen_loop_case rng =
  let module R = Kfi_fuzz.Rng in
  let pick a = a.(R.int rng (Array.length a)) in
  let lc_kind = R.int rng 7 in
  let lc_step =
    match lc_kind with
    | 1 -> pick [| 1; -1; 2; 3; -3; 1; 1 |]
    | 3 -> pick [| 4; 4; 8; 1; 12 |]
    | 6 -> pick [| 2; 3; 5; 8; 12 |]
    | _ -> pick [| 4; -4; 8; -8; 4; 12; 2; 4096; 4 |]
  in
  let lc_start =
    if R.int rng 8 = 0 then 0x7F000 + R.int rng 0xF00
    else 0x20000 + (R.int rng 0x30 * Mmu.page_size) + R.int rng Mmu.page_size
  in
  {
    lc_kind;
    lc_step;
    lc_start;
    lc_count = (if R.bool rng then R.int rng 3000 else R.int rng 60);
    lc_delta = pick [| 4; -4; 8; 0x1000; -0x2000; 3; 0x800 |];
    lc_unmap = R.int rng 4 = 0;
    lc_timer = (if R.int rng 3 = 0 then R.int_range rng 500 20_000 else 0);
    lc_level = (if R.bool rng then Trace.Ring else Trace.Off);
    lc_slices = List.init (R.int rng 3) (fun _ -> R.int_range rng 1 40_000);
    lc_marks =
      List.init (R.int rng 4) (fun _ ->
          ( (if R.bool rng then R.int_range rng 3 8 else R.int rng 1024),
            pick [| 1l; 0x1000l; 0x01000000l; 0x80000000l; 7l; 0x100l |] ));
    lc_ahead = (if R.int rng 3 = 0 then pick [| 1; 2; 5; 40; 700 |] else 0);
    lc_put = pick [| 0l; 1l; 0x1000l |];
  }

let loop_program c =
  let open Kfi_asm.Assembler in
  let open Insn in
  let cell d = Mem (mb ebp d) in
  let advance d = [ Ins (Mov_r_rm (eax, cell d)); Ins (Alu_rm_i (Add, Reg eax, Int32.of_int c.lc_step)); Ins (Mov_rm_r (cell d, eax)) ] in
  let base = Int32.of_int (c.lc_start land lnot 3) in
  (* eax <- the table's base + 4 * (i + plus), kcc's idx32 address *)
  let entry plus =
    [
      Ins (Mov_ri (eax, base));
      Ins (Push_r eax);
      Ins (Mov_r_rm (eax, cell (-4)));
    ]
    @ (if plus = 0 then [] else [ Ins (Alu_rm_i (Add, Reg eax, Int32.of_int plus)) ])
    @ [
        Ins (Shift_i (Shl, Reg eax, 2));
        Ins (Mov_rm_r (Reg edx, eax));
        Ins (Pop_r eax);
        Ins (Alu_rm_r (Add, Reg eax, edx));
      ]
  in
  let next_i = [ Ins (Mov_r_rm (eax, cell (-4))); Ins (Alu_rm_i (Add, Reg eax, 1l)); Ins (Mov_rm_r (cell (-4), eax)) ] in
  let body =
    match c.lc_kind with
    | 5 ->
      [ Ins (Mov_ri (eax, 0l)); Ins (Mov_rm_r (cell (-4), eax)); Label "head" ]
      @ [
          Ins (Mov_r_rm (eax, cell (-4)));
          Ins (Alu_rm_i (Cmp, Reg eax, Int32.of_int (min c.lc_count 0x400)));
          Jcc_sym (AE, "done");
        ]
      @ (if c.lc_ahead = 0 then []
         else
           entry c.lc_ahead
           @ [ Ins (Push_r eax); Ins (Mov_ri (eax, c.lc_put)); Ins (Pop_r ecx); Ins (Mov_rm_r (Mem (mb ecx 0), eax)) ])
      @ entry 0
      @ [
          Ins (Mov_r_rm (eax, Mem (mb eax 0)));
          Ins (Mov_rm_r (cell (-12), eax));
          Ins (Mov_r_rm (eax, cell (-12)));
          Ins (Alu_rm_i (And, Reg eax, 1l));
          Ins (Alu_rm_i (Cmp, Reg eax, 0l));
          Jcc_sym (E, "skip");
          Ins (Mov_r_rm (eax, Mem (mabs 0x70010l)));
          Ins (Alu_rm_i (Add, Reg eax, 1l));
          Ins (Mov_rm_r (Mem (mabs 0x70010l), eax));
          Label "skip";
        ]
      @ next_i
      @ [ Jmp_sym "head" ]
    | 6 ->
      [
        Label "outer";
        Ins (Mov_r_rm (eax, cell (-12)));
        Ins (Alu_rm_i (Cmp, Reg eax, 0l));
        Jcc_sym (BE, "done");
        Ins (Mov_ri (eax, 0l));
        Ins (Mov_rm_r (cell (-4), eax));
        Label "head";
        Ins (Mov_r_rm (eax, cell (-4)));
        Ins (Alu_rm_i (Cmp, Reg eax, Int32.of_int c.lc_step));
        Jcc_sym (AE, "next");
      ]
      @ entry 0
      @ [ Ins (Push_r eax); Ins (Mov_r_rm (eax, cell (-12))); Ins (Pop_r ecx); Ins (Mov_rm_r (Mem (mb ecx 0), eax)) ]
      @ next_i
      @ [
          Jmp_sym "head";
          Label "next";
          Ins (Mov_r_rm (eax, cell (-12)));
          Ins (Alu_rm_i (Sub, Reg eax, 1l));
          Ins (Mov_rm_r (cell (-12), eax));
          Jmp_sym "outer";
        ]
    | 4 ->
      [
        Ins (Mov_ri (ecx, Int32.of_int (c.lc_count + 1)));
        Label "head";
        Ins (Alu_rm_i (Add, Reg ebx, Int32.of_int c.lc_step));
        Ins (Alu_rm_i8 (Sub, Reg ecx, 1l));
        Ins (Alu_rm_i8 (Cmp, Reg ecx, 0l));
        Jcc_sym (NE, "head");
      ]
    | 3 ->
      [
        Ins (Mov_ri (eax, Int32.of_int (c.lc_start + (c.lc_count * c.lc_step))));
        Ins (Mov_rm_r (cell (-8), eax));
        Label "head";
        Ins (Mov_r_rm (eax, cell (-4)));
        Ins (Alu_r_rm (Cmp, eax, cell (-8)));
        Jcc_sym (AE, "done");
        Ins (Mov_r_rm (eax, cell (-4)));
        Ins (Push_r eax);
        Ins (Mov_ri (eax, 0l));
        Ins (Pop_r ecx);
        Ins (Mov_rm_r (Mem (mb ecx 0), eax));
      ]
      @ advance (-4)
      @ [ Jmp_sym "head" ]
    | kind ->
      [
        Ins (Mov_ri (eax, Int32.of_int (c.lc_start + c.lc_delta)));
        Ins (Mov_rm_r (cell (-8), eax));
        Label "head";
        Ins (Mov_r_rm (eax, cell (-12)));
        Ins (Alu_rm_i (Cmp, Reg eax, 0l));
        Jcc_sym (BE, "done");
        Ins (Mov_r_rm (eax, cell (-4)));
        Ins (Push_r eax);
      ]
      @ (if kind = 2 then [ Ins (Mov_r_rm (eax, cell (-8))); Ins (Mov_r_rm (eax, Mem (mb eax 0))) ]
         else [ Ins (Mov_ri (eax, 0x5a5a5a5al)) ])
      @ [
          Ins (Pop_r ecx);
          Ins (if kind = 1 then Movb_rm_r (Mem (mb ecx 0), eax) else Mov_rm_r (Mem (mb ecx 0), eax));
        ]
      @ advance (-4)
      @ (if kind = 2 then advance (-8) else [])
      @ [
          Ins (Mov_r_rm (eax, cell (-12)));
          Ins (Alu_rm_i (Sub, Reg eax, 1l));
          Ins (Mov_rm_r (cell (-12), eax));
          Jmp_sym "head";
        ]
  in
  [
    Ins (if c.lc_timer > 0 then Sti else Nop);
    Ins (Mov_rm_r (Reg ebp, esp));
    Ins (Alu_rm_i8 (Sub, Reg esp, 12l));
    Ins (Mov_ri (eax, Int32.of_int c.lc_start));
    Ins (Mov_rm_r (cell (-4), eax));
    Ins (Mov_ri (eax, Int32.of_int c.lc_count));
    Ins (Mov_rm_r (cell (-12), eax));
  ]
  @ body
  @ [
      Label "done";
      Ins (Mov_ri (edx, Int32.of_int Devices.poweroff_port));
      Ins Out_al;
      Ins Hlt;
      Label "fault";
      Ins Hlt;
      Label "tick";
      Ins (Alu_rm_i8 (Add, Reg esp, 4l));
      Ins (Inc_rm (Mem (mabs 0x70000l)));
      Ins Iret;
    ]

let loop_state m stop =
  let cpu = Machine.cpu m in
  spf "%s;cr2=%lx;%s;mem=%s" (fingerprint m stop) cpu.Cpu.cr2 (trace_repr cpu.Cpu.trace)
    (Digest.to_hex (Digest.bytes (Phys.blit_out (Machine.phys m) ~src:0 ~len:0x80000)))

let backend_loop_equiv =
  Fuzz.make_counting ~counts:"summarised" ~name:"backend.loop_equiv"
    ~doc:
      "the block engine's loop summaries leave the interpreter's state and \
       flight recorder at every pause"
    (Fuzz.arb ~shrink:Shrink.nil
       ~print:(fun c ->
         spf "kind %d step %d start %x count %d delta %d unmap %b timer %d %s pauses [%s] marks [%s] ahead %d put %lx"
           c.lc_kind c.lc_step c.lc_start c.lc_count c.lc_delta c.lc_unmap c.lc_timer
           (Trace.level_name c.lc_level)
           (String.concat ";" (List.map string_of_int c.lc_slices))
           (String.concat ";" (List.map (fun (i, v) -> spf "%d=%lx" i v) c.lc_marks))
           c.lc_ahead c.lc_put)
       gen_loop_case)
    (fun c ->
      let r = Kfi_asm.Assembler.assemble ~base:(Int32.of_int code_base) (loop_program c) in
      let run kind =
        let m = make_machine () in
        let phys = Machine.phys m and cpu = Machine.cpu m in
        Phys.blit_in phys ~dst:code_base r.Kfi_asm.Assembler.code;
        let idt v l = Phys.write32 phys (idt_base + (Trap.number v * 4)) (Kfi_asm.Assembler.symbol r l) in
        idt Trap.Page_fault "fault";
        idt Trap.Timer_irq "tick";
        if c.lc_unmap then begin
          let page = (c.lc_start / Mmu.page_size) + if c.lc_step < 0 then -1 else 1 in
          Phys.write32 phys (0x3000 + (page * 4)) 0l
        end;
        Phys.write32 phys (c.lc_start + c.lc_delta) 0x11223344l;
        if c.lc_kind = 5 then
          List.iter (fun (i, v) -> Phys.write32 phys ((c.lc_start land lnot 3) + (4 * i)) v) c.lc_marks;
        if c.lc_timer > 0 then Cpu.set_timer cpu c.lc_timer;
        Trace.set_level cpu.Cpu.trace c.lc_level;
        let b = Backend.create kind m in
        let states =
          List.map
            (fun n -> loop_state m (result_name (Backend.run b ~max_cycles:n)))
            (c.lc_slices @ [ 200_000 ])
        in
        (states, Backend.stats b)
      in
      let interp, _ = run Backend.Interp and cached, stats = run Backend.Cached in
      match
        List.find_opt (fun (_, (a, b)) -> a <> b) (List.mapi (fun i p -> (i, p)) (List.combine interp cached))
      with
      | Some (i, (a, b)) -> Error (spf "pause %d differs:\n  interp %s\n  cached %s" i a b)
      | None -> Ok (match stats with Some s -> s.Bbexec.st_loops > 0 | None -> false))

(* ---------- runner.hang_equiv ---------- *)

(* On the cached backend, a hang whose machine state recurs skips whole
   periods to the watchdog ([Runner.skip_recurrence]).  A case runs one
   A/B/C flip in a function where the reference sweep's recurring hangs
   sit, on the workload a campaign gives it, at a random trace level and
   watchdog budget, and then again on the interpreter, which never
   skips: both must agree in everything [ladder_difference] compares.
   Budgets run from just past the first possible attempt (the 400,000-
   cycle pause) to 3,000,000 cycles; a quarter end at most 3,000 cycles
   after a pause, which can leave a proof made there less than a tail. *)

let hang_fns = [ "schedule"; "wake_up"; "pipe_write"; "sys_waitpid"; "do_exit" ]
let hang_campaigns = Kfi_injector.Target.[| A; B; C |]

let hang_targets =
  lazy
    (let build = Kfi_injector.Runner.build (Lazy.force shared_runner) in
     Array.map
       (fun campaign -> Array.of_list (Kfi_injector.Target.enumerate build ~campaign ~seed:42 hang_fns))
       hang_campaigns)

type hang_case = { hc_campaign : int; hc_index : int; hc_level : Trace.level; hc_budget : int }

let gen_hang_case rng =
  let module R = Kfi_fuzz.Rng in
  let hc_campaign = R.int rng (Array.length hang_campaigns) in
  let hc_index = R.int rng 1_000_000 in
  let hc_level = match R.int rng 3 with 0 -> Trace.Off | 1 -> Trace.Ring | _ -> Trace.Full in
  let hc_budget =
    if R.int rng 4 = 0 then (R.int_range rng 3 14 * 200_000) + R.int_range rng 1 3_000
    else R.int_range rng 450_000 3_000_000
  in
  { hc_campaign; hc_index; hc_level; hc_budget }

let runner_hang_equiv =
  Fuzz.make_counting ~counts:"proven by state recurrence" ~name:"runner.hang_equiv"
    ~doc:
      "a hang proven by its recurring machine state reports and leaves exactly \
       what the interpreter's full run does"
    (Fuzz.arb ~shrink:Shrink.nil
       ~print:(fun c ->
         spf "campaign %s target#%d %s budget %d"
           (Kfi_injector.Target.campaign_letter hang_campaigns.(c.hc_campaign))
           c.hc_index (Trace.level_name c.hc_level) c.hc_budget)
       gen_hang_case)
    (fun c ->
      let open Kfi_injector in
      let runner = Lazy.force shared_runner in
      let targets = (Lazy.force hang_targets).(c.hc_campaign) in
      let target = targets.(c.hc_index mod Array.length targets) in
      let workload = Experiment.workload_for (Lazy.force shared_profile) target in
      let saved_cycles = Runner.max_cycles runner
      and saved_backend = Runner.backend_kind runner
      and saved_level = Runner.trace_level runner in
      Fun.protect
        ~finally:(fun () ->
          Runner.set_max_cycles runner saved_cycles;
          Runner.set_trace_level runner saved_level;
          Runner.set_backend runner saved_backend)
        (fun () ->
          Runner.set_trace_level runner c.hc_level;
          Runner.set_max_cycles runner c.hc_budget;
          Runner.set_backend runner Backend.Cached;
          let cached = ladder_record runner ~workload target in
          let proven = Runner.last_proof runner <> None in
          Runner.set_backend runner Backend.Interp;
          match ladder_difference cached (ladder_record runner ~workload target) with
          | None -> Ok proven
          | Some msg -> Error msg))

(* ---------- runner.rejoin_equiv ---------- *)

(* On the cached backend at [Off] or [Ring], a run that matches the
   golden state at a rung boundary after its injection restores a later
   golden rung instead of executing up to it ([Runner.run_one]).  A case
   runs one A/B/C flip (weighted to B, the campaign most often masked)
   in a function some workload executes, on the workload its campaign
   gives it, with random hardening, trace level and watchdog budget, and
   then again on the interpreter, which never rejoins: both must agree
   in everything [ladder_difference] compares, the recorder's count
   included.  A quarter of the budgets end just past a rung boundary,
   a quarter anywhere in the golden run, so some end inside an
   episode. *)

let rejoin_campaigns = Kfi_injector.Target.[| A; B; B; C |]

type rejoin_case = {
  rc_campaign : int;
  rc_index : int;
  rc_hardening : bool;
  rc_level : Trace.level;
  rc_budget : [ `Default | `Fraction of int | `Past_rung of int * int ];
}

let gen_rejoin_case rng =
  let module R = Kfi_fuzz.Rng in
  {
    rc_campaign = R.int rng (Array.length rejoin_campaigns);
    rc_index = R.int rng 1_000_000;
    rc_hardening = R.int rng 4 = 0;
    rc_level =
      (match R.int rng 8 with 0 | 1 | 2 -> Trace.Off | 3 | 4 | 5 -> Trace.Ring | _ -> Trace.Full);
    rc_budget =
      (match R.int rng 4 with
       | 0 | 1 -> `Default
       | 2 -> `Fraction (R.int_range rng 5 100)
       | _ -> `Past_rung (R.int_range rng 1 30, R.int_range rng 1 3_000));
  }

let print_rejoin_case c =
  spf "campaign %s target#%d %s%s %s"
    (Kfi_injector.Target.campaign_letter rejoin_campaigns.(c.rc_campaign))
    c.rc_index (Trace.level_name c.rc_level)
    (if c.rc_hardening then " hardened" else "")
    (match c.rc_budget with
     | `Default -> "default budget"
     | `Fraction p -> spf "budget %d%% of the golden run" p
     | `Past_rung (j, d) -> spf "budget rung %d + %d" j d)

let runner_rejoin_equiv =
  Fuzz.make_counting ~counts:"rejoined the golden run" ~name:"runner.rejoin_equiv"
    ~doc:
      "a run that rejoins the golden run reports and leaves exactly what the \
       interpreter's full run does"
    (Fuzz.arb ~shrink:Shrink.nil ~print:print_rejoin_case gen_rejoin_case)
    (fun c ->
      let open Kfi_injector in
      let runner = Lazy.force shared_runner in
      let campaign = rejoin_campaigns.(c.rc_campaign) in
      let targets =
        (Lazy.force run_targets).(match campaign with Target.A -> 0 | Target.B -> 1 | _ -> 2)
      in
      let target = targets.(c.rc_index mod Array.length targets) in
      let workload = Experiment.workload_for (Lazy.force shared_profile) target in
      let saved_cycles = Runner.max_cycles runner
      and saved_backend = Runner.backend_kind runner
      and saved_level = Runner.trace_level runner in
      Fun.protect
        ~finally:(fun () ->
          Runner.set_hardening runner false;
          Runner.set_max_cycles runner saved_cycles;
          Runner.set_trace_level runner saved_level;
          Runner.set_backend runner saved_backend)
        (fun () ->
          Runner.set_hardening runner c.rc_hardening;
          Runner.set_trace_level runner c.rc_level;
          let golden = (Runner.golden runner workload).g_cycles in
          Runner.set_max_cycles runner
            (match c.rc_budget with
             | `Default -> saved_cycles
             | `Fraction p -> max 1 (golden * p / 100)
             | `Past_rung (j, d) ->
               ((j mod ((golden / Runner.rung_spacing) + 1)) * Runner.rung_spacing) + d);
          Runner.set_backend runner Backend.Cached;
          let cached = ladder_record runner ~workload target in
          let rejoined = Runner.last_rejoin runner <> None in
          Runner.set_backend runner Backend.Interp;
          match ladder_difference cached (ladder_record runner ~workload target) with
          | None -> Ok rejoined
          | Some msg -> Error msg))

(* ---------- fs.fsck_total ---------- *)

let fs_paths = [| "/etc/rc"; "/bin/sh"; "/bin/ls"; "/usr/a"; "/usr/doc/b"; "/tmp/x" |]

let gen_fs_files rng =
  let n = Kfi_fuzz.Rng.int_range rng 1 (Array.length fs_paths) in
  List.init n (fun i ->
      let len = Kfi_fuzz.Rng.int rng 2000 in
      let body = Bytes.init len (fun _ -> Char.chr (Kfi_fuzz.Rng.byte rng)) in
      (fs_paths.(i), body))

let gen_corruptions rng =
  let n = Kfi_fuzz.Rng.int_range rng 0 40 in
  List.init n (fun _ ->
      let pos = Kfi_fuzz.Rng.int rng 0x100000 in
      let v = Kfi_fuzz.Rng.byte rng in
      (pos, v))

let fs_fsck_total =
  Fuzz.make ~name:"fs.fsck_total"
    ~doc:"fsck never raises on corrupted images and classification is a fixpoint"
    (Fuzz.arb
       ~shrink:(Shrink.pair Shrink.nil (Shrink.list ~elem:Shrink.nil))
       ~print:(fun (files, fl) ->
         spf "%d files, %d corruptions" (List.length files) (List.length fl))
       (Gen.pair gen_fs_files gen_corruptions))
    (fun (files, corruptions) ->
      let open Kfi_fsimage in
      match Mkfs.create files with
      | exception Failure _ -> Ok () (* image overflow is a documented refusal *)
      | img ->
          List.iter
            (fun (pos, v) ->
              if Bytes.length img > 0 then Bytes.set img (pos mod Bytes.length img) (Char.chr v))
            corruptions;
          let manifest = List.map (fun (p, b) -> (p, Digest.bytes b)) files in
          let before = Bytes.copy img in
          let s1 = Fsck.check ~manifest img in
          if not (Bytes.equal before img) then Error "fsck mutated the image"
          else
            let s2 = Fsck.check ~manifest img in
            if s1 <> s2 then
              Error
                (spf "not a fixpoint: %s then %s" (Fsck.severity_name s1)
                   (Fsck.severity_name s2))
            else Ok ())

(* ---------- journal.torn_resume ---------- *)

let gen_severity = Gen.oneofl Kfi_injector.Outcome.[ Normal; Severe; Most_severe ]

let gen_cause =
  Gen.oneofl
    Kfi_injector.Outcome.
      [ Null_pointer; Paging_request; Invalid_opcode; General_protection; Divide_error;
        Kernel_panic; Other_trap 13 ]

let gen_outcome rng =
  let open Kfi_injector.Outcome in
  match Kfi_fuzz.Rng.int rng 6 with
  | 0 -> Not_activated
  | 1 -> Not_manifested
  | 2 ->
      let s = gen_severity rng in
      Hang s
  | 3 ->
      let s = gen_severity rng in
      Fail_silence_violation ("exit code differs", s)
  | 4 ->
      let r = Kfi_fuzz.Rng.int rng 4 in
      Harness_abort { ha_reason = "deadline"; ha_retries = r }
  | _ ->
      let cause = gen_cause rng in
      let latency = Kfi_fuzz.Rng.int rng 100000 in
      let sev = gen_severity rng in
      let eip = Kfi_fuzz.Rng.int32 rng in
      let cr2 = Kfi_fuzz.Rng.int32 rng in
      let dumped = Kfi_fuzz.Rng.bool rng in
      Crash
        {
          cause;
          latency;
          crash_fn = Some "sys_write";
          crash_subsys = Some "fs";
          dumped;
          severity = sev;
          crash_eip = eip;
          crash_cr2 = cr2;
          propagation = [ ("sys_write", "fs"); ("do_exit", "kernel") ];
        }

let gen_entry rng =
  let open Kfi_injector in
  let campaign = Gen.oneofl [ Target.A; Target.B; Target.C; Target.R ] rng in
  let fn = Gen.oneofl [ "sys_write"; "do_fork"; "schedule"; "kmalloc" ] rng in
  let addr = Int32.of_int (0x100000 + Kfi_fuzz.Rng.int rng 0x1000) in
  let byte = Kfi_fuzz.Rng.int rng 4 in
  let bit = Kfi_fuzz.Rng.int rng 8 in
  let workload = Kfi_fuzz.Rng.int rng 3 in
  let outcome = gen_outcome rng in
  let predicted = Kfi_fuzz.Rng.bool rng in
  let retries = Kfi_fuzz.Rng.int rng 3 in
  let cycles = Kfi_fuzz.Rng.int rng 1_000_000 in
  {
    Journal.e_campaign = campaign;
    e_fn = fn;
    e_addr = addr;
    e_byte = byte;
    e_bit = bit;
    e_workload = workload;
    e_outcome = outcome;
    e_predicted = predicted;
    e_retries = retries;
    e_cycles = cycles;
  }

type torn_mode = T_truncate of int | T_flip of int * int
(* T_truncate percent-of-file; T_flip (percent, bit) in the final frame *)

let journal_torn_resume =
  Fuzz.make ~name:"journal.torn_resume"
    ~doc:"a torn or corrupt journal tail is truncated to the longest intact prefix"
    (Fuzz.arb
       ~shrink:
         (Shrink.pair (Shrink.list ~elem:Shrink.nil) Shrink.nil)
       ~print:(fun (entries, mode) ->
         spf "%d entries, %s" (List.length entries)
           (match mode with
           | T_truncate p -> spf "truncate@%d%%" p
           | T_flip (p, b) -> spf "flip@%d%%bit%d" p b))
       (Gen.pair
          (Gen.list ~min:1 ~max:5 gen_entry)
          (fun rng ->
            if Kfi_fuzz.Rng.bool rng then T_truncate (Kfi_fuzz.Rng.int rng 100)
            else T_flip (Kfi_fuzz.Rng.int rng 100, Kfi_fuzz.Rng.int rng 8))))
    (fun (entries, mode) ->
      let open Kfi_injector in
      let path = Filename.temp_file "kfi_fuzz" ".journal" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let j = Journal.open_ path in
          (* record the frame boundary after each append *)
          let boundaries =
            List.map
              (fun e ->
                Journal.append j e;
                (Unix.stat path).Unix.st_size)
              entries
          in
          Journal.close j;
          let size = List.nth boundaries (List.length boundaries - 1) in
          let kept_before cut =
            List.length (List.filter (fun b -> b <= cut) boundaries)
          in
          let expect_n, expect_torn =
            match mode with
            | T_truncate pct ->
                let cut = max 1 (size * pct / 100) in
                Unix.truncate path cut;
                (kept_before cut, not (List.mem cut boundaries))
            | T_flip (pct, bit) ->
                (* corrupt one byte inside the final frame *)
                let last_start =
                  match List.rev boundaries with
                  | _ :: prev :: _ -> prev
                  | _ -> 0
                in
                let frame_len = size - last_start in
                let pos = last_start + (frame_len * pct / 100) in
                let pos = min pos (size - 1) in
                let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
                let b = Bytes.create 1 in
                ignore (Unix.lseek fd pos Unix.SEEK_SET);
                ignore (Unix.read fd b 0 1);
                Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
                ignore (Unix.lseek fd pos Unix.SEEK_SET);
                ignore (Unix.write fd b 0 1);
                Unix.close fd;
                (List.length entries - 1, true)
          in
          let expected = List.filteri (fun i _ -> i < expect_n) entries in
          (* offline reader sees exactly the intact prefix *)
          let off = Journal.read_file path in
          if off <> expected then
            Error (spf "read_file: %d entries, expected %d" (List.length off) expect_n)
          else
            (* resume truncates the tail and keeps appending *)
            let j2 = Journal.open_ ~resume:true path in
            let loaded = Journal.loaded j2 in
            let torn = Journal.torn_tail_truncated j2 in
            let extra = List.hd entries in
            Journal.append j2 extra;
            Journal.close j2;
            if loaded <> expect_n then
              Error (spf "resume loaded %d, expected %d" loaded expect_n)
            else if torn <> expect_torn then
              Error (spf "torn_tail_truncated=%b, expected %b" torn expect_torn)
            else
              let final = Journal.read_file path in
              if final <> expected @ [ extra ] then
                Error "append after resume did not extend the intact prefix"
              else Ok ()))

(* ---------- shard.record_once ---------- *)

(* The coordinator's record path without processes: two worker slots
   stream the entries of the shards they hold into the campaign journal
   through [Supervisor.record]; a requeued shard's next owner gets
   [Supervisor.unjournaled].  A list of choices schedules the run —
   which slot moves, worker deaths, re-run duplicates of journaled
   entries, quarantines of waiting shards, and coordinator restarts
   (close, reopen with resume); once the choices run out the slots run
   their shards to the end.  Each planned key must be in the journal
   exactly once, every quarantined target a Harness_abort and every
   other entry the worker's, and with no quarantine the canonical
   (key-sorted) entries equal a serial run's. *)
let shard_record_once =
  let open Kfi_injector in
  let module Sup = Kfi_shard.Supervisor in
  let key = Journal.key_of_entry in
  let dedup entries =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun e ->
        let e = { e with Journal.e_campaign = Target.A } in
        if Hashtbl.mem seen (key e) then None
        else begin
          Hashtbl.add seen (key e) ();
          Some e
        end)
      entries
  in
  let target_of (e : Journal.entry) =
    ( {
        Target.t_fn = e.Journal.e_fn;
        t_subsys = "kernel";
        t_addr = e.Journal.e_addr;
        t_len = 1;
        t_insn = Kfi_isa.Insn.Nop;
        t_kind = Target.Text;
        t_byte = e.Journal.e_byte;
        t_bit = e.Journal.e_bit;
      },
      e.Journal.e_workload )
  in
  let sorted es = List.sort (fun a b -> compare (key a) (key b)) es in
  let run dir entries count choices =
    let path = Filename.concat dir "campaign.kj" in
    let j = ref (Journal.open_ path) in
    let worker_entry = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace worker_entry (key e) e) entries;
    let entry_of ((tgt : Target.t), _) =
      Hashtbl.find worker_entry (Journal.key_of_target Target.A tgt)
    in
    let shards = Array.of_list (Kfi_shard.Plan.split ~count (List.map target_of entries)) in
    (* per shard: `Wait, `Held, `Done or `Quarantined *)
    let status = Array.make (Array.length shards) `Wait in
    let slots = Array.make 2 None in (* (shard, entries still to stream) *)
    let aborted = Hashtbl.create 16 in
    let choices = ref choices and failure = ref None in
    let fail msg = if !failure = None then failure := Some msg in
    let waiting () =
      let r = ref None in
      Array.iteri (fun i st -> if !r = None && st = `Wait then r := Some i) status;
      !r
    in
    let rec progress s =
      match slots.(s) with
      | Some (i, e :: rest) ->
        if not (Sup.record !j e) then fail "an assigned target was already journaled";
        slots.(s) <- Some (i, rest)
      | Some (i, []) ->
        (* Done: the coordinator's check *)
        if Sup.unjournaled !j Target.A shards.(i).Kfi_shard.Proto.sh_targets <> []
        then fail "a shard acked Done with targets missing";
        status.(i) <- `Done;
        slots.(s) <- None
      | None -> (
        match waiting () with
        | Some i ->
          let todo = Sup.unjournaled !j Target.A shards.(i).Kfi_shard.Proto.sh_targets in
          status.(i) <- `Held;
          slots.(s) <- Some (i, List.map entry_of todo)
        | None -> if slots.(1 - s) <> None then progress (1 - s))
    in
    let die s =
      match slots.(s) with
      | Some (i, _) ->
        status.(i) <- `Wait;
        slots.(s) <- None
      | None -> ()
    in
    let settled () =
      Array.for_all (fun st -> st = `Done || st = `Quarantined) status
    in
    while !failure = None && not (settled ()) do
      match !choices with
      | [] -> progress 0
      | c :: tl -> (
        choices := tl;
        let s = c / 8 mod 2 in
        match c mod 8 with
        | 4 -> die s
        | 5 -> (
          (* a re-run duplicate of something journaled *)
          match Journal.entries !j with
          | [] -> ()
          | es -> (
            let e = List.nth es (c / 8 mod List.length es) in
            match Hashtbl.find_opt worker_entry (key e) with
            | Some w -> if Sup.record !j w then fail "a duplicate was journaled twice"
            | None -> ()))
        | 6 -> (
          match waiting () with
          | Some i ->
            let targets = shards.(i).Kfi_shard.Proto.sh_targets in
            let missing = Sup.unjournaled !j Target.A targets in
            List.iter
              (fun (tgt, _) -> Hashtbl.replace aborted (Journal.key_of_target Target.A tgt) ())
              missing;
            let n = Sup.quarantine !j Target.A targets ~reason:"poison" ~deaths:3 in
            if n <> List.length missing then fail "quarantine count differs";
            status.(i) <- `Quarantined
          | None -> ())
        | 7 ->
          (* the coordinator killed and resumed: in-flight work is lost *)
          Journal.close !j;
          j := Journal.open_ ~resume:true path;
          die 0;
          die 1
        | _ -> progress s)
    done;
    Journal.close !j;
    match !failure with
    | Some msg -> Error msg
    | None ->
      let got = Journal.read_file path in
      let keys = List.sort_uniq compare (List.map key got) in
      if List.length got <> List.length entries then
        Error (spf "%d entries journaled for %d planned" (List.length got) (List.length entries))
      else if keys <> List.sort compare (List.map key entries) then
        Error "the journaled keys are not the planned ones"
      else if
        not
          (List.for_all
             (fun (e : Journal.entry) ->
               if Hashtbl.mem aborted (key e) then
                 match e.Journal.e_outcome with Outcome.Harness_abort _ -> true | _ -> false
               else e = Hashtbl.find worker_entry (key e))
             got)
      then Error "a journaled entry is neither the worker's nor a quarantine abort"
      else if Hashtbl.length aborted = 0 then begin
        let serial_path = Filename.concat dir "serial.kj" in
        let sj = Journal.open_ serial_path in
        List.iter (Journal.append sj) entries;
        Journal.close sj;
        if sorted (Journal.read_file serial_path) <> sorted got then
          Error "the canonical entries differ from a serial run's"
        else Ok ()
      end
      else Ok ()
  in
  Fuzz.make ~name:"shard.record_once"
    ~doc:
      "the coordinator's record path under random splits, worker deaths, \
       duplicates, quarantines and restarts journals each planned key once"
    (Fuzz.arb
       ~shrink:
         (Shrink.pair
            (Shrink.pair (Shrink.list ~elem:Shrink.nil) Shrink.int)
            (Shrink.list ~elem:Shrink.int))
       ~print:(fun ((entries, count), choices) ->
         spf "%d entries, %d shards, choices [%s]" (List.length entries) (max 1 count)
           (String.concat ";" (List.map string_of_int choices)))
       (Gen.pair
          (Gen.pair
             (Gen.map dedup (Gen.list ~min:1 ~max:8 gen_entry))
             (fun rng -> 1 + Kfi_fuzz.Rng.int rng 4))
          (Gen.list ~min:0 ~max:40 (Gen.int_bound 63))))
    (fun ((entries, count), choices) ->
      let dir = Filename.temp_file "kfi_fuzz_shard" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () -> run dir entries (max 1 count) choices))

(* ---------- csv.rfc4180 ---------- *)

(* Reference RFC 4180 row parser (quoted fields, doubled quotes). *)
let parse_csv_row s =
  let n = String.length s in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let rec field i =
    if i >= n then (fields := Buffer.contents buf :: !fields; None)
    else if s.[i] = '"' then quoted (i + 1)
    else unquoted i
  and unquoted i =
    if i >= n then (fields := Buffer.contents buf :: !fields; None)
    else if s.[i] = ',' then begin
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf;
      field (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      unquoted (i + 1)
    end
  and quoted i =
    if i >= n then Some "unterminated quote"
    else if s.[i] = '"' then
      if i + 1 < n && s.[i + 1] = '"' then begin
        Buffer.add_char buf '"';
        quoted (i + 2)
      end
      else if i + 1 >= n then (fields := Buffer.contents buf :: !fields; None)
      else if s.[i + 1] = ',' then begin
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        field (i + 2)
      end
      else Some (spf "garbage after closing quote at %d" (i + 1))
    else begin
      Buffer.add_char buf s.[i];
      quoted (i + 1)
    end
  in
  match field 0 with Some e -> Error e | None -> Ok (List.rev !fields)

let gen_csv_char =
  Gen.frequency
    [
      (6, Gen.oneofl [ 'a'; 'b'; 'z'; '0'; ' ' ]);
      (2, Gen.oneofl [ ','; '"' ]);
      (2, Gen.oneofl [ '\n'; '\r' ]);
      (1, Gen.oneofl [ '\xC3'; '\xA9'; '\x00'; '\x7F' ]);
    ]

let csv_rfc4180 =
  Fuzz.make ~name:"csv.rfc4180"
    ~doc:"csv_field quoting is parsed back losslessly by a reference RFC 4180 reader"
    (Fuzz.arb
       ~shrink:(Shrink.list ~elem:Shrink.string)
       ~print:(fun fs -> String.concat "|" (List.map (spf "%S") fs))
       (Gen.list ~min:1 ~max:5 (Gen.string_of ~min:0 ~max:10 gen_csv_char)))
    (fun fields ->
      let row = String.concat "," (List.map Kfi_injector.Experiment.csv_field fields) in
      match parse_csv_row row with
      | Error e -> Error (spf "reference parser rejected %S: %s" row e)
      | Ok fields' ->
          if fields' = fields then Ok ()
          else
            Error
              (spf "row %S parsed back as %s" row
                 (String.concat "|" (List.map (spf "%S") fields'))))

(* ---------- telemetry.json_roundtrip ---------- *)

let gen_json_string =
  Gen.string_of ~min:0 ~max:8
    (Gen.frequency
       [
         (6, Gen.oneofl [ 'a'; 'k'; '_'; '0'; ' ' ]);
         (2, Gen.oneofl [ '"'; '\\'; '/'; '\n'; '\t' ]);
         (1, Gen.oneofl [ '\x01'; '\x1F'; '\x7F'; '\xC3'; '\xA9' ]);
       ])

(* floats restricted to quarters: they render exactly under both the
   integral (%.1f) and general (%.6g) formats, so value equality after a
   parse round-trip is exact *)
let gen_json_float = Gen.map (fun k -> float_of_int k /. 4.0) (Gen.int_range (-4000) 4000)

let rec gen_json depth rng =
  let open Kfi_trace.Telemetry in
  let leaf () =
    match Kfi_fuzz.Rng.int rng 5 with
    | 0 -> Null
    | 1 -> Bool (Kfi_fuzz.Rng.bool rng)
    | 2 -> Int (Kfi_fuzz.Rng.int_range rng (-1_000_000) 1_000_000)
    | 3 -> Float (gen_json_float rng)
    | _ -> Str (gen_json_string rng)
  in
  if depth = 0 then leaf ()
  else
    match Kfi_fuzz.Rng.int rng 7 with
    | 0 ->
        let n = Kfi_fuzz.Rng.int rng 4 in
        List (List.init n (fun _ -> gen_json (depth - 1) rng))
    | 1 ->
        let n = Kfi_fuzz.Rng.int rng 4 in
        Obj
          (List.init n (fun i ->
               let k = spf "k%d%s" i (gen_json_string rng) in
               (k, gen_json (depth - 1) rng)))
    | _ -> leaf ()

let telemetry_json_roundtrip =
  Fuzz.make ~name:"telemetry.json_roundtrip"
    ~doc:"telemetry JSON rendering is one line and parses back equal"
    (Fuzz.arb
       ~shrink:Shrink.nil
       ~print:(fun v -> Kfi_trace.Telemetry.to_string v)
       (gen_json 3))
    (fun v ->
      let open Kfi_trace.Telemetry in
      let s = to_string v in
      if String.contains s '\n' then Error (spf "rendering not JSONL-safe: %S" s)
      else
        match parse s with
        | exception Parse_error e -> Error (spf "own rendering rejected: %s of %S" e s)
        | v' when v' <> v -> Error (spf "parse(to_string v) <> v for %S" s)
        | _ -> Ok ())

(* ---------- obs: snapshot merge is associative/commutative ---------- *)

(* Shards of a campaign merge their metric snapshots in whatever order
   the collector sees them; the dashboard depends on the merge being
   order-insensitive.  Bucket counts, counters, gauges, min/max are
   exact under any association; float sums only up to addition
   reordering, hence the relative tolerance.  The quantile of a merged
   histogram must stay within one bucket of the exact sample quantile. *)

module Metrics = Kfi_obs.Metrics

(* log-uniform-ish durations, 10ns .. ~100s, the histogram's sweet spot *)
let gen_sample rng =
  let e = Kfi_fuzz.Rng.int_range rng (-8) 1 in
  let m = Kfi_fuzz.Rng.int_range rng 100 999 in
  float_of_int m /. 100. *. (10. ** float_of_int e)

let gen_shards = Gen.triple
    (Gen.list ~min:0 ~max:30 gen_sample)
    (Gen.list ~min:0 ~max:30 gen_sample)
    (Gen.list ~min:0 ~max:30 gen_sample)

let snap_of samples =
  let r = Metrics.create () in
  List.iter
    (fun v ->
      Metrics.observe r "lat" v;
      Metrics.incr r "n";
      Metrics.set_gauge r "hw" v)
    samples;
  Metrics.snapshot r

let feq a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let eq_snap (a : Metrics.snap) (b : Metrics.snap) =
  a.Metrics.sn_counters = b.Metrics.sn_counters
  && List.length a.Metrics.sn_gauges = List.length b.Metrics.sn_gauges
  && List.for_all2
       (fun (k, v) (k', v') -> k = k' && feq v v')
       a.Metrics.sn_gauges b.Metrics.sn_gauges
  && List.length a.Metrics.sn_hists = List.length b.Metrics.sn_hists
  && List.for_all2
       (fun (k, h) (k', h') ->
         k = k'
         && h.Metrics.hs_count = h'.Metrics.hs_count
         && h.Metrics.hs_buckets = h'.Metrics.hs_buckets
         && h.Metrics.hs_min = h'.Metrics.hs_min
         && h.Metrics.hs_max = h'.Metrics.hs_max
         && feq h.Metrics.hs_sum h'.Metrics.hs_sum)
       a.Metrics.sn_hists b.Metrics.sn_hists

let obs_merge_assoc =
  Fuzz.make ~name:"obs.merge_assoc"
    ~doc:
      "metric snapshot merge is associative and commutative (exact buckets, \
       tolerant sums); merged quantiles stay within one bucket of exact"
    (Fuzz.arb
       ~shrink:Shrink.nil
       ~print:(fun (a, b, c) ->
         let pl l = "[" ^ String.concat ";" (List.map (spf "%.9g") l) ^ "]" in
         spf "%s %s %s" (pl a) (pl b) (pl c))
       gen_shards)
    (fun (sa, sb, sc) ->
      let a = snap_of sa and b = snap_of sb and c = snap_of sc in
      let m = Metrics.merge in
      if not (eq_snap (m (m a b) c) (m a (m b c))) then
        Error "merge is not associative"
      else if not (eq_snap (m a b) (m b a)) then Error "merge is not commutative"
      else if not (eq_snap (m a Metrics.empty) a) then
        Error "empty is not a right identity"
      else
        let merged = m (m a b) c in
        let all_samples = List.sort compare (sa @ sb @ sc) in
        let n = List.length all_samples in
        if n = 0 then Ok ()
        else
          match Metrics.hist merged "lat" with
          | None -> Error "merged snapshot lost the histogram"
          | Some h ->
            if h.Metrics.hs_count <> n then
              Error (spf "merged count %d <> %d samples" h.Metrics.hs_count n)
            else
              let check q =
                let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
                let exact = List.nth all_samples (rank - 1) in
                let est = Metrics.quantile h q in
                if abs (Metrics.bucket_of est - Metrics.bucket_of exact) <= 1 then
                  Ok ()
                else
                  Error
                    (spf "q%.2f: estimate %.9g (bucket %d) vs exact %.9g (bucket %d)"
                       q est (Metrics.bucket_of est) exact (Metrics.bucket_of exact))
              in
              List.fold_left
                (fun acc q -> match acc with Error _ -> acc | Ok () -> check q)
                (Ok ()) [ 0.5; 0.9; 0.99 ])

(* ---------- registry ---------- *)

let all =
  [
    isa_roundtrip;
    isa_decode_total;
    asm_assemble_decode;
    cpu_snapshot_restore;
    cpu_trace_transparent;
    backend_equiv;
    backend_loop_equiv;
    mmu_translate_ref;
    oracle_equivalent_sound;
    slice_sound;
    runner_fastforward_equiv;
    runner_ladder_equiv;
    runner_hang_equiv;
    runner_rejoin_equiv;
    fs_fsck_total;
    journal_torn_resume;
    shard_record_once;
    csv_rfc4180;
    telemetry_json_roundtrip;
    obs_merge_assoc;
  ]

let find name = List.find_opt (fun p -> Fuzz.name p = name) all
