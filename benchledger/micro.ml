(* The layer micro-suite: bechamel estimates for the simulator's inner
   layers on a bare machine (no kernel), driven only through public
   calls.  Separate from the ledger runs because it measures no
   workload: its numbers explain a change in one, they are not one. *)

open Kfi.Isa
module Asm = Kfi.Asm.Assembler

(* A 16 MB machine with the low 4 MB identity-mapped, [items] assembled
   at 0x10000 and the CPU about to run them in kernel mode. *)
let bare items =
  let m = Machine.create ~disk:(Devices.Disk.create ~blocks:4) () in
  let phys = Machine.phys m in
  Phys.write32 phys 0x1000 0x3003l;
  for i = 0 to 1023 do
    Phys.write32 phys (0x3000 + (i * 4)) (Int32.of_int ((i * 4096) lor 3))
  done;
  let code = Asm.assemble ~base:0x10000l items in
  Phys.blit_in phys ~dst:0x10000 code.Asm.code;
  let cpu = Machine.cpu m in
  cpu.Cpu.cr3 <- 0x1000l;
  cpu.Cpu.eip <- 0x10000l;
  cpu.Cpu.regs.(Insn.esp) <- 0x80000l;
  cpu.Cpu.regs.(Insn.esi) <- 0x90000l;
  (m, code)

let ins i = Asm.Ins i
let r x = Insn.Reg x
let at off = Insn.Mem (Insn.mb Insn.esi off)

(* Loop bodies of eight instructions per class; each loop also runs one
   unconditional jump back. *)
let classes =
  let open Insn in
  [
    ( "alu",
      [ ins (Alu_rm_i8 (Add, r eax, 1l)); ins (Alu_rm_r (Xor, r ebx, eax));
        ins (Alu_rm_r (Sub, r ecx, ebx)); ins (Alu_rm_i (And, r edx, 0xffffl));
        ins (Inc_r edi); ins (Shift_i (Shl, r edx, 1)); ins (Alu_r_rm (Or, eax, r edx));
        ins (Dec_r ebx) ] );
    ( "mem",
      [ ins (Mov_r_rm (eax, at 0)); ins (Mov_rm_r (at 4, eax)); ins (Mov_r_rm (ebx, at 8));
        ins (Alu_rm_r (Add, at 12, ebx)); ins (Movzbl (ecx, at 16));
        ins (Mov_rm_i (at 20, 7l)); ins (Movb_rm_r (at 24, eax)); ins (Inc_rm (at 28)) ] );
    ( "branch",
      [ ins (Alu_rm_r (Cmp, r eax, ebx)); Asm.Jcc_sym (E, "b1"); Asm.Label "b1";
        ins (Test_rm_r (r eax, eax)); Asm.Jcc_sym (NE, "b2"); Asm.Label "b2";
        ins (Dec_r ecx); Asm.Jcc_sym (S, "b3"); Asm.Label "b3";
        ins (Alu_rm_i8 (Cmp, r ecx, 3l)); Asm.Jcc_sym (L, "b4"); Asm.Label "b4" ] );
    ( "stack",
      [ ins (Push_r eax); ins (Push_r ebx); ins (Pop_r ecx); ins (Pop_r edx);
        ins (Push_i 5l); ins (Pop_r eax); Asm.Call_sym "leaf"; ins Nop ] );
  ]

let loop body =
  (Asm.Label "loop" :: body) @ [ Asm.Jmp_sym "loop"; Asm.Label "leaf"; ins Insn.Ret ]

let run_cycles = 1000

let tests ~journal =
  let open Bechamel in
  let per_insn =
    List.concat_map
      (fun (cls, body) ->
        List.map
          (fun kind ->
            let m, _ = bare (loop body) in
            let b = Backend.create kind m in
            ( Printf.sprintf "isa.%s_ns_per_insn.%s" (Backend.kind_name kind) cls,
              "ns",
              1. /. float_of_int run_cycles,
              Staged.stage (fun () -> ignore (Backend.run b ~max_cycles:run_cycles)) ))
          [ Backend.Interp; Backend.Cached ])
      classes
  in
  let decode =
    let _, code = bare (loop (List.concat_map snd classes)) in
    let offs = List.map (fun i -> i.Asm.i_off) code.Asm.insns in
    ( "isa.decode_ns",
      "ns",
      1. /. float_of_int (List.length offs),
      Staged.stage (fun () ->
          List.iter (fun o -> ignore (Decode.decode_bytes code.Asm.code o)) offs) )
  in
  let tlb =
    let m, _ = bare [] in
    let mmu = (Machine.cpu m).Cpu.mmu in
    let translate () = Mmu.translate mmu ~cr3:0x1000l ~user:false ~write:false 0x12345l in
    [
      ("isa.tlb_hit_ns", "ns", 1., Staged.stage (fun () -> ignore (translate ())));
      ( "isa.tlb_miss_ns",
        "ns",
        1.,
        Staged.stage (fun () ->
            Mmu.flush mmu;
            ignore (translate ())) );
    ]
  in
  let trap =
    (* int 0x80 into a handler that drops the error code and irets *)
    let m, code =
      bare
        [ Asm.Label "loop"; ins (Insn.Int_ 0x80); Asm.Jmp_sym "loop"; Asm.Label "handler";
          ins (Insn.Alu_rm_i8 (Insn.Add, r Insn.esp, 4l)); ins Insn.Iret ]
    in
    Phys.write32 (Machine.phys m) (Machine.default_idt_base + (0x80 * 4))
      (Asm.symbol code "handler");
    let b = Backend.create Backend.Interp m in
    ( "isa.trap_roundtrip_ns",
      "ns",
      4. /. float_of_int run_cycles,
      Staged.stage (fun () -> ignore (Backend.run b ~max_cycles:run_cycles)) )
  in
  let restore =
    List.map
      (fun (name, kind, dirty) ->
        let m, _ = bare [] in
        let b = Backend.create kind m in
        let snap = Backend.snapshot b in
        let phys = Machine.phys m in
        ( "isa.restore_us." ^ name,
          "us",
          1e-3,
          Staged.stage (fun () ->
              for i = 0 to dirty - 1 do
                Phys.write8 phys (0x200000 + (i * Phys.page_size)) i
              done;
              Backend.restore b snap) ))
      [ ("interp_full", Backend.Interp, 1); ("cached_dirty1", Backend.Cached, 1);
        ("cached_dirty16", Backend.Cached, 16); ("cached_dirty256", Backend.Cached, 256) ]
  in
  let fsck =
    let image = Kfi.Fsimage.Mkfs.create (Kfi.Workload.Progs.fs_files ()) in
    ( "fsimage.fsck_ms",
      "ms",
      1e-6,
      Staged.stage (fun () -> ignore (Kfi.Fsimage.Fsck.check image)) )
  in
  let append =
    let entry =
      {
        Kfi.Injector.Journal.e_campaign = Kfi.Campaign.A;
        e_fn = "schedule";
        e_addr = 0xC0100000l;
        e_byte = 0;
        e_bit = 3;
        e_workload = 0;
        e_outcome = Kfi.Injector.Outcome.Not_manifested;
        e_predicted = false;
        e_retries = 0;
        e_cycles = 123_456;
      }
    in
    ( "journal.append_fsync_us",
      "us",
      1e-3,
      Staged.stage (fun () -> Kfi.Injector.Journal.append journal entry) )
  in
  (decode :: per_insn) @ tlb @ (trap :: restore) @ [ fsck; append ]

(* One bechamel estimate per test, scaled to the test's unit. *)
let run ~tmp () =
  let open Bechamel in
  let journal = Kfi.Injector.Journal.open_ (Filename.concat tmp "micro.kj") in
  Kfi.Injector.Journal.check_fingerprint journal ~fingerprint:"micro";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let values =
    List.map
      (fun (name, unit, scale, fn) ->
        let raw = Benchmark.all cfg [ clock ] (Test.make ~name fn) in
        let est =
          Hashtbl.fold
            (fun _ res acc ->
              match Analyze.OLS.estimates res with Some [ e ] -> e | _ -> acc)
            (Analyze.all ols clock raw) nan
        in
        (name, Json.Obj [ ("value", Json.Float (est *. scale)); ("unit", Json.Str unit) ]))
      (tests ~journal)
  in
  Kfi.Injector.Journal.close journal;
  Json.Obj [ ("micro", Json.Obj values) ]
