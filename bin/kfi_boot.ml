(* Boot the simulated kernel and run one workload to completion, showing
   the console.  `kfi-boot --workload pipe --trace 40` also lists the
   first 40 instructions executed; `--debug` prints the oops dump of a
   crash. *)

open Cmdliner
open Kfi_isa
module Forensics = Kfi_trace.Forensics

(* Step up to [n] instructions with the flight recorder on, stopping
   where [Machine.run] would. *)
let record_boot m n =
  let cpu = Machine.cpu m in
  Trace.set_level cpu.Cpu.trace Trace.Ring;
  let rec go i =
    if i < n && not (cpu.Cpu.halted || cpu.Cpu.snapshot_request) then begin
      Cpu.step cpu;
      go (i + 1)
    end
  in
  try go 0 with Cpu.Triple_fault _ -> ()

let run_boot workload max_cycles show_symbols debug trace_n listing =
  let disk_image = Kfi_fsimage.Mkfs.create (Kfi_workload.Progs.fs_files ()) in
  let wl = Kfi_workload.Progs.index_of workload in
  let m, b = Kfi_kernel.Build.boot_machine ~workload:wl ~disk_image () in
  (match listing with
   | Some fn ->
     (match Kfi_asm.Listing.of_function b.Kfi_kernel.Build.asm fn with
      | Some s -> print_string s
      | None ->
        if fn = "all" then print_string (Kfi_asm.Listing.of_result b.Kfi_kernel.Build.asm)
        else if fn = "summary" then
          print_string (Kfi_asm.Listing.function_summary b.Kfi_kernel.Build.asm)
        else Printf.printf "no such function: %s\n" fn)
   | None -> ());
  if trace_n > 0 then begin
    record_boot m trace_n;
    print_string (Forensics.trace_listing ~n:trace_n b m)
  end;
  (* the oops lists the instructions before a crash *)
  Trace.set_level (Machine.cpu m).Cpu.trace (if debug then Trace.Ring else Trace.Off);
  if show_symbols then begin
    Printf.printf "kernel text: %d bytes, image: %d bytes, %d functions\n"
      b.Kfi_kernel.Build.text_size b.Kfi_kernel.Build.image_size
      (List.length b.Kfi_kernel.Build.funcs);
    List.iter
      (fun (s, n) -> Printf.printf "  %-8s %6d bytes\n" s n)
      (Kfi_kernel.Build.subsystem_sizes b)
  end;
  (* run to the snapshot point, then to completion *)
  let r1 = Machine.run m ~max_cycles in
  let result =
    match r1 with
    | Machine.Snapshot_point -> Machine.run m ~max_cycles
    | other -> other
  in
  print_string (Machine.console_contents m);
  (match result with
   | Machine.Powered_off code -> Printf.printf "[machine powered off, exit code %d]\n" code
   | Machine.Halted ->
     Printf.printf "[machine halted]\n";
     let dump = Kfi_kernel.Build.read_dump m in
     Option.iter
       (fun d ->
         Printf.printf "[crash dump: vector %d (%s) eip=%08lx cr2=%08lx cycles=%d]\n"
           d.Kfi_kernel.Build.d_vector
           (Trap.name (Trap.of_number d.Kfi_kernel.Build.d_vector))
           d.Kfi_kernel.Build.d_eip d.Kfi_kernel.Build.d_cr2 d.Kfi_kernel.Build.d_cycles)
       dump;
     if debug then print_string (Forensics.oops ?dump b m)
   | Machine.Watchdog -> Printf.printf "[watchdog: hang after %d cycles]\n" max_cycles
   | Machine.Reset t -> Printf.printf "[machine reset: %s]\n" (Trap.name t.Trap.vector)
   | Machine.Snapshot_point -> Printf.printf "[unexpected second snapshot point]\n");
  Printf.printf "[cycles: %d]\n" (Machine.cpu m).Cpu.cycles;
  match result with Machine.Powered_off 0 -> 0 | _ -> 1

let workload_arg =
  let doc = "Workload to run (syscall, pipe, context1, spawn, fstime, hanoi, dhry, looper)." in
  Arg.(value & opt string "syscall" & info [ "w"; "workload" ] ~doc)

let max_cycles_arg =
  Arg.(value & opt int 20_000_000 & info [ "max-cycles" ] ~doc:"Watchdog cycle budget.")

let symbols_arg =
  Arg.(value & flag & info [ "symbols" ] ~doc:"Print kernel image statistics.")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ] ~doc:"Run with the flight recorder on; on a crash, print the oops dump.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Record the first $(docv) instructions of boot in the flight \
              recorder and list them; the recorder keeps the last %d."
             Trace.default_capacity))

let listing_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "list" ] ~doc:"Disassemble a kernel function (or 'all' / 'summary').")

let cmd =
  Cmd.v
    (Cmd.info "kfi-boot" ~doc:"Boot the simulated Linux-like kernel and run a workload")
    Term.(
      const run_boot $ workload_arg $ max_cycles_arg $ symbols_arg $ debug_arg $ trace_arg
      $ listing_arg)

let () = exit (Cmd.eval' cmd)
