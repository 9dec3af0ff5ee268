(* A Figure-5-style case study: trace a single injection into
   do_generic_file_read step by step — disassembly before and after the
   bit flip, the run's console, the crash dump, the fsck verdict and the
   oops dump — plus Table 6/7-style before/after opcode studies.

   dune exec examples/inject_demo.exe *)

open Kfi.Injector
module Asm = Kfi.Asm.Assembler
module Build = Kfi.Kernel.Build

let line = String.make 78 '-'

let disasm_window build ~addr ~before ~after =
  let b = (build : Build.t) in
  let base = Kfi.Kernel.Layout.kernel_text_base in
  let off = (Int32.to_int addr land 0xFFFFFFFF) - base in
  Kfi.Isa.Disasm.range ~base:(Int32.of_int base) b.Build.asm.Asm.code
    ~off:(max 0 (off - before)) ~len:(before + after)

(* pick an A-campaign target inside do_generic_file_read that crashes *)
let () =
  Printf.eprintf "booting...\n%!";
  let runner = Runner.create () in
  let build = (Runner.build runner) in
  let fstime = Kfi.Workload.Progs.index_of "fstime" in
  let targets = Target.enumerate build ~campaign:Target.A ~seed:9 [ "do_generic_file_read" ] in
  Printf.printf "%s\nCase study: error injection into do_generic_file_read (mm)\n%s\n" line line;
  Printf.printf "%d campaign-A targets in the function; searching for a crashing one...\n\n"
    (List.length targets);
  let crashing =
    List.find_map
      (fun t ->
        match Runner.run_one runner ~workload:fstime t with
        | Outcome.Crash c -> Some (t, c)
        | _ -> None)
      targets
  in
  match crashing with
  | None -> print_endline "no crashing target found (unexpected)"
  | Some (t, c) ->
    Printf.printf "Target: %s+0x%x byte %d bit %d  (instruction: %s)\n\n"
      t.Target.t_fn
      (Int32.to_int t.Target.t_addr land 0xFFFFFFFF
      - Kfi.Kernel.Layout.kernel_text_base)
      t.Target.t_byte t.Target.t_bit
      (Kfi.Isa.Disasm.to_string t.Target.t_insn);
    Printf.printf "Before injection:\n%s\n" (disasm_window build ~addr:t.Target.t_addr ~before:0 ~after:24);
    (* reproduce the corruption on a copy to show the after-disassembly *)
    let code = Bytes.copy build.Build.asm.Asm.code in
    let off =
      (Int32.to_int t.Target.t_addr land 0xFFFFFFFF)
      - Kfi.Kernel.Layout.kernel_text_base + t.Target.t_byte
    in
    Bytes.set code off
      (Char.chr (Char.code (Bytes.get code off) lxor (1 lsl t.Target.t_bit)));
    let after =
      Kfi.Isa.Disasm.range
        ~base:(Int32.of_int Kfi.Kernel.Layout.kernel_text_base)
        code
        ~off:(Int32.to_int t.Target.t_addr land 0xFFFFFFFF
             - Kfi.Kernel.Layout.kernel_text_base)
        ~len:24
    in
    Printf.printf "After flipping bit %d of byte %d:\n%s\n" t.Target.t_bit t.Target.t_byte after;
    Printf.printf "Outcome: crash\n";
    Printf.printf "  cause     : %s\n" (Outcome.cause_name c.Outcome.cause);
    Printf.printf "  crash eip : %08lx (%s, %s subsystem)\n" c.Outcome.crash_eip
      (Option.value ~default:"?" c.Outcome.crash_fn)
      (Option.value ~default:"?" c.Outcome.crash_subsys);
    Printf.printf "  cr2       : %08lx\n" c.Outcome.crash_cr2;
    Printf.printf "  latency   : %d cycles from corrupted instruction to crash\n"
      c.Outcome.latency;
    Printf.printf "  dump      : %s\n" (if c.Outcome.dumped then "written (LKCD-style)" else "FAILED (hang/unknown)");
    Printf.printf "  severity  : %s\n" (Outcome.severity_name c.Outcome.severity);
    Printf.printf "\nKernel console of the failing run:\n%s\n"
      (Kfi.Isa.Machine.console_contents (Runner.machine runner));
    Printf.printf "%s\nOops dump (the paper's Figure 5 post-mortem)\n%s\n" line line;
    let machine = Runner.machine runner in
    print_string
      (Kfi.Trace.Forensics.oops
         ?dump:(Build.read_dump machine)
         ?injected_at:(Runner.last_injected_at runner)
         build machine);

    (* ---- Table 6/7-style opcode studies on campaign C ---- *)
    Printf.printf "%s\nTable 6/7-style case studies (campaign C on pipe_read)\n%s\n" line line;
    let ctargets = Target.enumerate build ~campaign:Target.C ~seed:9 [ "pipe_read" ] in
    List.iteri
      (fun i ct ->
        let outcome =
          Runner.run_one runner ~workload:(Kfi.Workload.Progs.index_of "pipe") ct
        in
        let off =
          (Int32.to_int ct.Target.t_addr land 0xFFFFFFFF)
          - Kfi.Kernel.Layout.kernel_text_base
        in
        let byte = Char.code (Bytes.get build.Build.asm.Asm.code (off + ct.Target.t_byte)) in
        Printf.printf "%2d. %08lx: %-18s  %02x -> %02x   => %s\n" (i + 1) ct.Target.t_addr
          (Kfi.Isa.Disasm.to_string ct.Target.t_insn)
          byte (byte lxor 1)
          (match outcome with
           | Outcome.Fail_silence_violation (why, _) ->
             Printf.sprintf "fail silence violation (%s)" why
           | Outcome.Crash ci ->
             Printf.sprintf "crash: %s" (Outcome.cause_name ci.Outcome.cause)
           | o -> Outcome.category o))
      ctargets
