(* Assemble the whole kernel into an image, and boot it on a machine.

   Image layout (virtual): text at 0xC0100000, then a page-aligned data
   section.  The boot loader (this module, standing in for the firmware +
   bootstrap assembly) installs the kernel page tables with text pages
   read-only, page 0 unmapped (NULL traps), programs the timer and starts
   the CPU at kernel_entry. *)

open Kfi_isa
open Kfi_asm
module L = Layout

type t = {
  asm : Assembler.result;
  text_size : int;  (* bytes up to etext (page aligned) *)
  image_size : int;
  funcs : Assembler.fn_info list; (* with absolute offsets from text base *)
  by_off : Assembler.fn_info array; (* [funcs] sorted by offset *)
}

let all_funcs () =
  List.concat
    [
      Klib.funcs;
      Arch_traps.funcs;
      Mm_page.funcs;
      Mm_kmalloc.funcs;
      Mm_vm.funcs;
      Mm_filemap.funcs;
      Fs_buffer.funcs;
      Fs_ext2.funcs;
      Fs_namei.funcs;
      Fs_file.funcs;
      Fs_dir.funcs;
      Fs_pipe.funcs;
      Sched.funcs;
      Init.funcs;
    ]

let text_items () =
  List.concat
    [ Arch_entry.items; Klib.items; Kfi_kcc.Codegen.compile_funcs (all_funcs ()) ]

let data_items () = List.concat [ Kdata.items; Mm_page.data; Fs_ext2.data_items ]

let build_once () =
  let items =
    text_items ()
    @ [ Assembler.Align L.page_size; Assembler.Label "etext" ]
    @ data_items ()
    @ [ Assembler.Align 4; Assembler.Label "end_of_image" ]
  in
  let asm = Assembler.assemble ~base:(Int32.of_int L.kernel_text_base) items in
  let sym name = Int32.to_int (Assembler.symbol asm name) land 0xFFFFFFFF in
  let text_size = sym "etext" - L.kernel_text_base in
  let image_size = Bytes.length asm.Assembler.code in
  let funcs = asm.Assembler.fns in
  let by_off = Array.of_list funcs in
  Array.stable_sort (fun f g -> compare f.Assembler.f_off g.Assembler.f_off) by_off;
  { asm; text_size; image_size; funcs; by_off }

let build_fresh () = build_once ()

let cache = ref None
let cache_lock = Mutex.create ()

(* The kernel image is deterministic; build it once per process.  The
   double-checked lock keeps concurrent first calls (e.g. a fleet of
   runners booting on fresh domains) from assembling twice. *)
let build () =
  match !cache with
  | Some b -> b
  | None ->
    Mutex.protect cache_lock (fun () ->
        match !cache with
        | Some b -> b
        | None ->
          let b = build_once () in
          cache := Some b;
          b)

let symbol b name = Assembler.symbol b.asm name

(* --- boot loader --- *)

let install_kernel_page_tables phys ~text_size =
  let pde_flags = L.pte_present lor L.pte_write in
  let text_start_frame = L.pa_kernel_image / L.page_size in
  let text_end_frame = (L.pa_kernel_image + text_size) / L.page_size in
  for i = 0 to 3 do
    Phys.write32 phys
      (L.pa_swapper_pgdir + ((768 + i) * 4))
      (Int32.of_int ((L.pa_kernel_pts + (i * L.page_size)) lor pde_flags));
    for j = 0 to 1023 do
      let frame = (i * 1024) + j in
      let pa = frame * L.page_size in
      let flags =
        if frame = 0 then 0 (* NULL page unmapped *)
        else if frame >= text_start_frame && frame < text_end_frame then L.pte_present
        else L.pte_present lor L.pte_write
      in
      Phys.write32 phys (L.pa_kernel_pts + (i * L.page_size) + (j * 4)) (Int32.of_int (pa lor flags))
    done
  done

(* Create a machine with the kernel loaded, page tables installed and the
   CPU ready to execute kernel_entry.  [disk_image] is an ext2-lite image
   from Mkfs.  [workload] selects the /bin program init runs. *)
let boot_machine ?(workload = 0) ~disk_image () =
  let b = build () in
  let disk = Devices.Disk.of_image disk_image in
  let m = Machine.create ~phys_size:L.phys_size ~idt_base:L.pa_idt ~disk () in
  let phys = Machine.phys m in
  Phys.blit_in phys ~dst:L.pa_kernel_image b.asm.Assembler.code;
  install_kernel_page_tables phys ~text_size:b.text_size;
  (* bootinfo *)
  let free_start = (L.pa_kernel_image + b.image_size + L.page_size - 1) / L.page_size * L.page_size in
  Phys.write32 phys (L.pa_bootinfo + L.bi_free_start) (Int32.of_int free_start);
  Phys.write32 phys (L.pa_bootinfo + L.bi_workload) (Int32.of_int workload);
  let cpu = Machine.cpu m in
  cpu.Cpu.cr3 <- Int32.of_int L.pa_swapper_pgdir;
  cpu.Cpu.esp0 <- Int32.of_int (L.kva_idle_task + L.task_size);
  cpu.Cpu.regs.(Insn.esp) <- Int32.of_int (L.kva_idle_task + L.task_size);
  cpu.Cpu.eip <- symbol b "kernel_entry";
  Cpu.set_timer cpu L.timer_period;
  (m, b)

(* Poke a workload id into a (possibly snapshotted) machine. *)
let set_workload m workload =
  Phys.write32 (Machine.phys m) (L.pa_bootinfo + L.bi_workload) (Int32.of_int workload)

(* Read the guest crash-dump record, if one was written. *)
type dump = {
  d_vector : int;
  d_error : int32;
  d_eip : int32;
  d_cr2 : int32;
  d_cycles : int;
  d_esp : int32;
  d_task : int32;
}

let read_dump m =
  let phys = Machine.phys m in
  let rd off = Phys.read32 phys (L.pa_bootinfo + off) in
  if Int32.to_int (rd L.bi_dump_magic) land 0xFFFFFFFF <> L.dump_magic_value then None
  else
    Some
      {
        d_vector = Int32.to_int (rd L.bi_dump_vector);
        d_error = rd L.bi_dump_error;
        d_eip = rd L.bi_dump_eip;
        d_cr2 = rd L.bi_dump_cr2;
        d_cycles = Int32.to_int (rd L.bi_dump_cycles) land 0xFFFFFFFF;
        d_esp = rd L.bi_dump_esp;
        d_task = rd L.bi_dump_task;
      }

(* Map an address to the function containing it: binary-search for the
   last function starting at or below it, then check its extent. *)
let find_function b addr =
  let off = (Int32.to_int addr land 0xFFFFFFFF) - L.kernel_text_base in
  let fns = b.by_off in
  (* the number of functions starting at or below [off] *)
  let rec count lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fns.(mid).Assembler.f_off <= off then count (mid + 1) hi else count lo mid
  in
  let i = count 0 (Array.length fns) - 1 in
  if i >= 0 && off < fns.(i).Assembler.f_off + fns.(i).Assembler.f_size then Some fns.(i)
  else None

(* Lines-of-code proxy for Figure 1: text bytes per subsystem. *)
let subsystem_sizes b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl f.Assembler.f_subsys) in
      Hashtbl.replace tbl f.Assembler.f_subsys (cur + f.Assembler.f_size))
    b.funcs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
