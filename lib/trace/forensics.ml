(* Crash forensics: turn the flight-recorder ring and the terminal
   machine state into a simulated LKCD "oops dump" — symbolized last-N
   instruction trace, kernel stack backtrace, the live code around the
   crash and the task table (what the paper read off SGI KDB, its
   Figure 5), and the reconstructed corruption-site -> crash-site
   propagation path.  The stand-in for the paper's lcrash and KDB work
   on real dump images. *)

open Kfi_isa
module Build = Kfi_kernel.Build
module Asm = Kfi_asm.Assembler
module L = Kfi_kernel.Layout

let u32 v = Int32.to_int v land 0xFFFFFFFF

(* ----- symbolization ----- *)

let location build eip =
  match Build.find_function build eip with
  | Some f -> Some (f.Asm.f_name, f.Asm.f_subsys)
  | None -> None

let symbolize build eip =
  match Build.find_function build eip with
  | Some f ->
    let off = u32 eip - L.kernel_text_base - f.Asm.f_off in
    Printf.sprintf "%s+0x%x/0x%x" f.Asm.f_name off f.Asm.f_size
  | None -> Printf.sprintf "0x%08x" (u32 eip)

(* Disassemble the instruction at [eip] by reading guest memory through
   the MMU, so injected corruption shows exactly as it executed.  The
   page tables are the machine's current ones; unreachable bytes (e.g. a
   user mapping after the crash) render as "(unreadable)". *)
let insn_text machine eip =
  let cpu = Machine.cpu machine in
  let fetch i =
    Mmu.read8 cpu.Cpu.mmu ~cr3:cpu.Cpu.cr3 ~user:false
      (Int32.add eip (Int32.of_int i))
  in
  match Decode.decode fetch with
  | Decode.Ok (insn, len) -> Disasm.to_string ~pc:eip ~len insn
  | Decode.Invalid -> "(bad)"
  | exception _ -> "(unreadable)"

(* ----- propagation path ----- *)

type hop = {
  h_fn : string;
  h_subsys : string;
  h_eip : int32;
  h_cycle : int;
}

(* Kernel-mode trace entries at or after [from_cycle], symbolized and
   collapsed so consecutive entries in the same function form one hop.
   The head of the result is the earliest function the recorder still
   holds; with a bounded ring, long-latency crashes lose the earliest
   hops (the caller knows the injection site and can prepend it). *)
let propagation_path build trace ~from_cycle =
  let hops =
    Trace.fold trace ~init:[] ~f:(fun acc (e : Trace.entry) ->
        if e.Trace.en_cycle < from_cycle || e.Trace.en_user then acc
        else
          match location build e.Trace.en_eip with
          | None -> acc
          | Some (fn, subsys) -> (
            match acc with
            | { h_fn; _ } :: _ when h_fn = fn -> acc
            | _ ->
              { h_fn = fn; h_subsys = subsys; h_eip = e.Trace.en_eip;
                h_cycle = e.Trace.en_cycle }
              :: acc))
  in
  List.rev hops

(* Subsystem-level view of a path: consecutive same-subsystem hops merge. *)
let subsys_path hops =
  List.fold_left
    (fun acc h ->
      match acc with
      | s :: _ when s = h.h_subsys -> acc
      | _ -> h.h_subsys :: acc)
    [] hops
  |> List.rev

let hop_pairs hops = List.map (fun h -> (h.h_fn, h.h_subsys)) hops

let path_to_string pairs =
  String.concat " -> "
    (List.map (fun (fn, s) -> Printf.sprintf "%s(%s)" fn s) pairs)

(* ----- symbolized trace listing ----- *)

let trace_listing ?(n = 32) build machine =
  let cpu = Machine.cpu machine in
  let entries = Trace.entries cpu.Cpu.trace in
  let len = List.length entries in
  let tail = if len > n then List.filteri (fun i _ -> i >= len - n) entries else entries in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "Instruction trace (last %d of %d recorded):\n" (List.length tail)
       (Trace.seen cpu.Cpu.trace));
  Buffer.add_string b
    (Printf.sprintf "  %10s %-2s %-8s %-28s %-26s %s\n" "cycle" "md" "eip" "symbol"
       "insn" "mem");
  List.iter
    (fun (e : Trace.entry) ->
      Buffer.add_string b
        (Printf.sprintf "  %10d %-2s %08x %-28s %-26s %s\n" e.Trace.en_cycle
           (if e.Trace.en_user then "U" else "K")
           (u32 e.Trace.en_eip)
           (symbolize build e.Trace.en_eip)
           (insn_text machine e.Trace.en_eip)
           (match e.Trace.en_mem with
            | Some a -> Printf.sprintf "[%08x]" a
            | None -> "")))
    tail;
  Buffer.contents b

(* ----- kernel stack backtrace ----- *)

let in_text build a =
  a >= L.kernel_text_base && a < L.kernel_text_base + build.Build.text_size

(* A kernel word read through the direct map, so neither a TLB fill nor
   a corrupted page table gets in the way; None outside RAM. *)
let peek machine vaddr =
  let pa = vaddr - L.page_offset in
  if pa < 0 || pa + 4 > Phys.size (Machine.phys machine) then None
  else Some (u32 (Phys.read32 (Machine.phys machine) pa))

type how = Eip | Frame | Scan

type frame = { fr_eip : int32; fr_how : how }

(* Walk the cdecl frame chain (push ebp; mov ebp, esp prologues) inside
   the current task's kernel stack, the [task_size]-aligned block
   holding esp: each frame holds [saved ebp; return address] at [ebp].
   The chain stops at a frame outside the stack, a return address
   outside kernel text, or a non-monotonic frame pointer.  When it
   yields fewer than two frames, the kernel-text words from esp up the
   stack follow, as kdb's [bt] lists them on damaged frames. *)
let backtrace ?(max_depth = 16) build machine =
  let cpu = Machine.cpu machine in
  let esp = u32 cpu.Cpu.regs.(Insn.esp) in
  let stack_base = esp land lnot (L.task_size - 1) in
  let stack_top = stack_base + L.task_size in
  let frame fr_how a = { fr_eip = Int32.of_int a; fr_how } in
  let rec chain acc ebp depth =
    if depth >= max_depth || ebp < stack_base || ebp + 8 > stack_top then acc
    else
      match (peek machine ebp, peek machine (ebp + 4)) with
      | Some next, Some ret when in_text build ret ->
        let acc = frame Frame ret :: acc in
        if next > ebp then chain acc next (depth + 1) else acc
      | _ -> acc
  in
  let rec scan acc a depth =
    if depth >= max_depth || a + 4 > stack_top then acc
    else
      match peek machine a with
      | Some w when in_text build w -> scan (frame Scan w :: acc) (a + 4) (depth + 1)
      | _ -> scan acc (a + 4) depth
  in
  let frames = chain [] (u32 cpu.Cpu.regs.(Insn.ebp)) 0 in
  let frames = if List.length frames >= 2 then frames else scan frames esp 0 in
  frame Eip (u32 cpu.Cpu.eip) :: List.rev frames

let backtrace_listing build machine =
  let b = Buffer.create 256 in
  Buffer.add_string b "Call Trace:\n";
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  [<%08x>] %-5s %s\n" (u32 f.fr_eip)
           (match f.fr_how with Eip -> "eip" | Frame -> "frame" | Scan -> "scan")
           (symbolize build f.fr_eip)))
    (backtrace build machine);
  Buffer.contents b

(* ----- the code around the crash and the task table ----- *)

(* The live code at [eip], corruption included: up to three
   instructions before it, decoded from the start of its function so
   they fall on their real boundaries, then 16 bytes decoded from [eip]
   itself as the CPU fetched them. *)
let code_around build machine eip =
  let a = u32 eip in
  if not (in_text build a) then Printf.sprintf "  %08x: outside kernel text\n" a
  else begin
    let base = L.kernel_text_base in
    let code =
      Phys.blit_out (Machine.phys machine) ~src:(base - L.page_offset)
        ~len:build.Build.text_size
    in
    let lines ~off ~len =
      Disasm.range ~base:(Int32.of_int base) code ~off ~len
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
    in
    let off = a - base in
    let before =
      match Build.find_function build eip with
      | Some f -> lines ~off:f.Asm.f_off ~len:(off - f.Asm.f_off)
      | None -> []
    in
    let skip = List.length before - 3 in
    let context = List.filteri (fun i _ -> i >= skip) before in
    String.concat ""
      (List.map (fun l -> "      " ^ l ^ "\n") context
      @ List.mapi
          (fun i l -> (if i = 0 then "  --> " else "      ") ^ l ^ "\n")
          (lines ~off ~len:16))
  end

(* The guest task table, read like kdb's [ps]. *)
let task_table build machine =
  let b = Buffer.create 256 in
  Buffer.add_string b "  pid  state         cr3       counter\n";
  let table = u32 (Build.symbol build "task_table") in
  for i = 0 to L.nr_tasks - 1 do
    match peek machine (table + (i * 4)) with
    | Some t when t <> 0 ->
      let fld off = Option.value ~default:0 (peek machine (t + off)) in
      let state =
        match fld L.t_state with
        | 0 -> "running"
        | 1 -> "sleeping"
        | 2 -> "zombie"
        | 3 -> "free"
        | n -> Printf.sprintf "?%d" n
      in
      Buffer.add_string b
        (Printf.sprintf "  %3d  %-12s %08x  %d\n" (fld L.t_pid) state (fld L.t_cr3)
           (fld L.t_counter))
    | _ -> ()
  done;
  Buffer.contents b

(* ----- the oops dump ----- *)

(* Crash-cause banner, following the 2.4-era oops texts the paper quotes. *)
let cause_banner ~vector ~cr2 =
  match vector with
  | 14 ->
    if Int32.unsigned_compare cr2 4096l < 0 then
      Printf.sprintf
        "Unable to handle kernel NULL pointer dereference at virtual address %08x"
        (u32 cr2)
    else
      Printf.sprintf "Unable to handle kernel paging request at virtual address %08x"
        (u32 cr2)
  | 6 -> "invalid opcode: 0000"
  | 13 -> "general protection fault: 0000"
  | 0 -> "divide error: 0000"
  | 255 -> "Kernel panic"
  | -1 -> "halted without a dump record"
  | v -> Printf.sprintf "unhandled trap %d (%s)" v (Trap.name (Trap.of_number v))

let event_listing cpu =
  let evs = Trace.events cpu.Cpu.trace in
  if evs = [] then ""
  else begin
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "Machine events (last %d):\n" (List.length evs));
    List.iter
      (fun (e : Trace.event) ->
        Buffer.add_string b
          (Printf.sprintf "  %10d  %-12s a=%08x b=%08x\n" e.Trace.ev_cycle
             (Trace.event_kind_name e.Trace.ev_kind)
             e.Trace.ev_a e.Trace.ev_b))
      evs;
    Buffer.contents b
  end

(* The full simulated-LKCD dump.  [dump] is the guest crash handler's
   record when it managed to write one; [vector]/[eip]/[cr2] fall back to
   the CPU state for undumped crashes.  [injected_at] is the injection cycle
   (the propagation-path start); [inject_desc] names the corrupted
   target. *)
let oops ?dump ?injected_at ?inject_desc ?(trace_n = 32) build machine =
  let cpu = Machine.cpu machine in
  let vector, error, eip, cr2, esp =
    match (dump : Build.dump option) with
    | Some d ->
      (d.Build.d_vector, d.Build.d_error, d.Build.d_eip, d.Build.d_cr2, d.Build.d_esp)
    | None -> (-1, 0l, cpu.Cpu.eip, cpu.Cpu.cr2, cpu.Cpu.regs.(Insn.esp))
  in
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%s\n" (cause_banner ~vector ~cr2);
  (match inject_desc with Some d -> add "Injection: %s\n" d | None -> ());
  add "Oops: %04x\n" (u32 error land 0xFFFF);
  add "CPU:    0\n";
  add "EIP:    0010:[<%08x>]    %s\n" (u32 eip) (symbolize build eip);
  add "EFLAGS: %08x\n" cpu.Cpu.eflags;
  let r i = u32 cpu.Cpu.regs.(i) in
  add "eax: %08x   ebx: %08x   ecx: %08x   edx: %08x\n" (r Insn.eax) (r Insn.ebx)
    (r Insn.ecx) (r Insn.edx);
  add "esi: %08x   edi: %08x   ebp: %08x   esp: %08x\n" (r Insn.esi) (r Insn.edi)
    (r Insn.ebp) (u32 esp);
  add "cr2: %08x   cr3: %08x   mode: %s   cycles: %d\n" (u32 cr2) (u32 cpu.Cpu.cr3)
    (match cpu.Cpu.mode with Cpu.Kernel -> "kernel" | Cpu.User -> "user")
    cpu.Cpu.cycles;
  (match dump with
   | Some d ->
     add "Process (task: %08x)   dumped at cycle %d\n" (u32 d.Build.d_task)
       d.Build.d_cycles
   | None -> add "No dump record (triple fault / watchdog)\n");
  Buffer.add_char b '\n';
  Buffer.add_string b (backtrace_listing build machine);
  add "\nCode:\n%s" (code_around build machine eip);
  add "\nTasks:\n%s" (task_table build machine);
  Buffer.add_char b '\n';
  Buffer.add_string b (trace_listing ~n:trace_n build machine);
  let ev = event_listing cpu in
  if ev <> "" then begin
    Buffer.add_char b '\n';
    Buffer.add_string b ev
  end;
  (match injected_at with
   | Some t0 ->
     let hops = propagation_path build cpu.Cpu.trace ~from_cycle:t0 in
     if hops <> [] then begin
       Buffer.add_char b '\n';
       add "Propagation (%d hops, subsystems: %s):\n" (List.length hops)
         (String.concat " -> " (subsys_path hops));
       add "  %s\n" (path_to_string (hop_pairs hops))
     end
   | None -> ());
  Buffer.contents b
