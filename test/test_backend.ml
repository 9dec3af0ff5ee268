(* Execution-backend tests: the Phys dirty-page snapshot protocol
   (write marks its page, restore rewrites exactly the dirty set, a hop
   to another snapshot is a full copy, checkpoint hops over one base
   land exactly) and the cached backend's block cache (invalidation on
   self-modifying text, interp/cached agreement, restore undoing text
   patches). *)

open Kfi_isa

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let int_list = Alcotest.(list int)
let psz = Phys.page_size

let fill_page p page v =
  for i = 0 to psz - 1 do
    Phys.write8 p ((page * psz) + i) v
  done

let contents p = Phys.blit_out p ~src:0 ~len:(Phys.size p)
let digest p = Digest.to_hex (Digest.bytes (contents p))

let mem_eq name a b =
  check Alcotest.string name (Digest.to_hex (Digest.bytes a)) (Digest.to_hex (Digest.bytes b))

(* ---------- dirty-page tracking ---------- *)

let test_dirty_marking () =
  let p = Phys.create (16 * psz) in
  Phys.set_tracking p true;
  check bool "tracking on" true (Phys.tracking p);
  let _snap = Phys.copy p in
  check int_list "clean after copy (sync point)" [] (Phys.dirty_pages p);
  Phys.write8 p ((3 * psz) + 5) 0xAA;
  check int_list "a write marks its page" [ 3 ] (Phys.dirty_pages p);
  Phys.write8 p ((3 * psz) + 100) 0xBB;
  check int_list "same page is not duplicated" [ 3 ] (Phys.dirty_pages p);
  Phys.write32 p (7 * psz) 0xdeadbeefl;
  check int_list "a second page joins the set" [ 3; 7 ] (Phys.dirty_pages p);
  Phys.blit_in p ~dst:(9 * psz) (Bytes.make 4 'x');
  check int_list "blit_in is tracked too" [ 3; 7; 9 ] (Phys.dirty_pages p)

let test_restore_exact_dirty_set () =
  let p = Phys.create (16 * psz) in
  fill_page p 2 0x11;
  fill_page p 5 0x22;
  Phys.set_tracking p true;
  let snap = Phys.copy p in
  let before = contents p in
  Phys.write8 p ((2 * psz) + 1) 0xEE;
  Phys.write8 p ((5 * psz) + 7) 0xFF;
  (match Phys.restore p ~from:snap with
   | None -> Alcotest.fail "expected an incremental restore"
   | Some pages ->
     check int_list "restore rewrote exactly the dirty set" [ 2; 5 ]
       (List.sort_uniq compare pages));
  mem_eq "contents back to the snapshot" before (contents p);
  check int_list "restore clears the dirty set" [] (Phys.dirty_pages p);
  (* nothing written since: the next restore touches no pages at all *)
  match Phys.restore p ~from:snap with
  | None -> Alcotest.fail "expected an incremental restore"
  | Some pages -> check int_list "clean restore rewrites nothing" [] pages

let test_cross_snapshot_restore () =
  let p = Phys.create (8 * psz) in
  Phys.set_tracking p true;
  fill_page p 1 0x11;
  let snap_a = Phys.copy p in
  let bytes_a = contents p in
  fill_page p 1 0x22;
  fill_page p 3 0x33;
  let snap_b = Phys.copy p in
  let bytes_b = contents p in
  fill_page p 4 0x44;
  ignore (Phys.restore p ~from:snap_a);
  mem_eq "restore to A" bytes_a (contents p);
  check bool "a hop to another snapshot is a full copy" true
    (Phys.restore p ~from:snap_b = None);
  mem_eq "cross-snapshot hop lands exactly on B" bytes_b (contents p);
  ignore (Phys.restore p ~from:snap_a);
  mem_eq "and back to A" bytes_a (contents p)

let test_tracking_off_full_restore () =
  let p = Phys.create (4 * psz) in
  let snap = Phys.copy p in
  Phys.write8 p 17 9;
  (match Phys.restore p ~from:snap with
   | None -> ()
   | Some _ -> Alcotest.fail "without tracking, restore must be a full copy");
  check int "content restored" 0 (Phys.read8 p 17)

(* The block cache's byte check: whole words, then the tail. *)
let test_holds () =
  let p = Phys.create (2 * psz) in
  for i = 0 to 99 do
    Phys.write8 p (psz + i) i
  done;
  let b = Phys.blit_out p ~src:(psz + 3) ~len:21 in
  check bool "the bytes it was read from" true (Phys.holds p (psz + 3) b);
  check bool "one byte further on" false (Phys.holds p (psz + 4) b);
  Phys.write8 p (psz + 23) 0xFF;
  check bool "a changed tail byte" false (Phys.holds p (psz + 3) b);
  Phys.write8 p (psz + 23) 23;
  Phys.write8 p (psz + 5) 0xFF;
  check bool "a changed byte in the first word" false (Phys.holds p (psz + 3) b);
  check bool "past the end of memory" false (Phys.holds p ((2 * psz) - 10) b);
  check bool "nothing to compare" true (Phys.holds p 0 Bytes.empty)

(* ---------- disk written-block tracking ---------- *)

(* Random block writes with restores to two snapshots in random order:
   the tracked disk (incremental restore) and an untracked twin (full
   restore) must hold the same bytes after every step. *)
let test_disk_incremental_restore () =
  let module D = Devices.Disk in
  let rng = Random.State.make [| 42 |] in
  let blocks = 32 in
  let tracked = D.create ~blocks and full = D.create ~blocks in
  D.set_tracking tracked true;
  let write () =
    let b = Random.State.int rng blocks in
    let data = Bytes.init Devices.block_size (fun _ -> Char.chr (Random.State.int rng 256)) in
    D.write_block tracked b data;
    D.write_block full b data
  in
  let same name = mem_eq name (D.image full) (D.image tracked) in
  for _ = 1 to 5 do write () done;
  let ta = D.copy tracked and fa = D.copy full in
  for _ = 1 to 5 do write () done;
  let tb = D.copy tracked and fb = D.copy full in
  for i = 1 to 60 do
    for _ = 1 to Random.State.int rng 4 do write () done;
    check bool "writes are tracked" true
      (List.for_all (fun b -> b >= 0 && b < blocks) (D.written_blocks tracked));
    if Random.State.bool rng then begin
      D.restore tracked ~from:ta;
      D.restore full ~from:fa
    end
    else begin
      D.restore tracked ~from:tb;
      D.restore full ~from:fb
    end;
    same (Printf.sprintf "step %d: incremental restore = full restore" i);
    check int_list "restore clears the written set" [] (D.written_blocks tracked)
  done;
  List.iter
    (fun b ->
      check bool (Printf.sprintf "block %d is out of range" b) true
        (match D.write_block tracked b (Bytes.create Devices.block_size) with
         | () -> false
         | exception Invalid_argument _ -> true);
      check int_list "nothing marked" [] (D.written_blocks tracked))
    [ -1; blocks ]

(* Two checkpoints over one base, taken after random page and disk-block
   writes, restored in random order with more writes in between: a
   tracked machine (incremental restores) and an untracked twin (full
   copies) must hold the same memory and disk after every restore. *)
let test_checkpoint_hops () =
  let rng = Random.State.make [| 7 |] in
  let m = Testbed.make_machine () and twin = Testbed.make_machine () in
  let b = Backend.create Backend.Cached m in
  let phys = Machine.phys m and disk = Machine.disk m in
  let npages = Phys.size phys / psz and nblocks = Devices.Disk.blocks disk in
  let scribble () =
    for _ = 0 to Random.State.int rng 6 do
      let page = Random.State.int rng npages in
      Phys.write8 phys ((page * psz) + Random.State.int rng psz) (Random.State.int rng 256)
    done;
    for _ = 1 to Random.State.int rng 3 do
      Devices.Disk.write_block disk (Random.State.int rng nblocks)
        (Bytes.make Devices.block_size (Char.chr (Random.State.int rng 256)))
    done
  in
  let base = Backend.snapshot b in
  let take () =
    Backend.restore b base;
    scribble ();
    Machine.checkpoint m ~base
  in
  let ks = [| take (); take () |] in
  let same what a b = check bool what true (Bytes.equal a b) in
  for i = 1 to 30 do
    scribble ();
    let k = ks.(Random.State.int rng 2) in
    Machine.restore_checkpoint m ~base k;
    Machine.restore_checkpoint twin ~base k;
    same (Printf.sprintf "hop %d: memory" i) (contents (Machine.phys twin)) (contents phys);
    same (Printf.sprintf "hop %d: disk" i) (Devices.Disk.image (Machine.disk twin))
      (Devices.Disk.image disk)
  done

(* ---------- the last fault's cycle ---------- *)

let test_snapshot_last_fault_cycle () =
  let m = Testbed.make_machine () in
  let cpu = Machine.cpu m in
  cpu.Cpu.last_fault_cycle <- 1234;
  let s = Machine.snapshot m in
  cpu.Cpu.last_fault_cycle <- 99;
  Machine.restore m s;
  check int "snapshot restores the last fault's cycle" 1234 cpu.Cpu.last_fault_cycle;
  let _ = Backend.create Backend.Cached m in
  let base = Machine.snapshot m in
  cpu.Cpu.last_fault_cycle <- 555;
  let k = Machine.checkpoint m ~base in
  cpu.Cpu.last_fault_cycle <- 7;
  Machine.restore_checkpoint m ~base k;
  check int "checkpoint restores it too" 555 cpu.Cpu.last_fault_cycle

(* A crash that delivers no fault of its own (the triple fault below)
   takes its latency from the last fault's cycle: a runner must report
   the same record for it whatever ran before. *)
let test_record_independent_of_order () =
  let open Kfi_injector in
  let r = Runner.create () in
  let looper = Kfi_workload.Progs.index_of "looper" in
  let target fn addr byte =
    List.find
      (fun t -> t.Target.t_addr = addr && t.Target.t_byte = byte)
      (Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:42 [ fn ])
  in
  let reset = target "free_page" 0xc0100bc8l 1 and other = target "clear_page" 0xc0100ab0l 0 in
  let record () =
    let o = Runner.run_one r ~workload:looper reset in
    (o, Runner.last_cycles r, Runner.last_injected_at r)
  in
  List.iter
    (fun kind ->
      Runner.set_backend r kind;
      let fresh = record () in
      check Alcotest.string "a crash without a dump" "crash (no dump)"
        (Outcome.category (let o, _, _ = fresh in o));
      ignore (Runner.run_one r ~workload:looper other);
      check bool
        (Backend.kind_name kind ^ ": same record after a different target")
        true (record () = fresh))
    Backend.all_kinds

(* ---------- the cached backend on a live machine ---------- *)

open Kfi_asm.Assembler
open Insn

let exit_with_al =
  [ Ins (Mov_ri (edx, Int32.of_int Devices.poweroff_port)); Ins Out_al; Ins Hlt ]

(* Runs the patchme mov twice, rewriting its immediate to 99 between the
   passes: a backend serving stale decoded blocks exits 1, not 99. *)
let selfmod_items =
  [
    Ins (Mov_ri (esi, 0l));
    Label "top";
    Label "patchme";
    Ins (Mov_ri (eax, 1l));
    Ins (Inc_r esi);
    Ins (Alu_rm_i8 (Cmp, Reg esi, 2l));
    Jcc_sym (AE, "done");
    Ins_sym ((fun a -> Mov_ri (ebx, a)), "patchme");
    Ins (Mov_rm_i (Mem (mb ebx 1), 99l));
    Jmp_sym "top";
    Label "done";
  ]
  @ exit_with_al

let run_backend kind items =
  let r = Testbed.assemble_items items in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
  let b = Backend.create kind m in
  let result = Backend.run b ~max_cycles:100_000 in
  (m, b, result)

let test_bb_invalidation_on_selfmod () =
  let _, b, result = run_backend Backend.Cached selfmod_items in
  check int "cached backend executes the patched text" 99 (Testbed.exit_code result);
  match Backend.stats b with
  | None -> Alcotest.fail "cached backend must expose block stats"
  | Some st ->
    check bool "blocks were decoded" true (st.Bbexec.st_built > 0);
    check bool "the text write bumped its page's epoch" true
      (st.Bbexec.st_invalidated_pages > 0)

let test_interp_cached_agree () =
  let m1, b1, r1 = run_backend Backend.Interp selfmod_items in
  let m2, _, r2 = run_backend Backend.Cached selfmod_items in
  check bool "interp exposes no block stats" true (Backend.stats b1 = None);
  check int "same exit code" (Testbed.exit_code r1) (Testbed.exit_code r2);
  let regs m = Array.to_list (Array.map Int32.to_int (Machine.cpu m).Cpu.regs) in
  check int_list "same register file" (regs m1) (regs m2);
  check Alcotest.string "same final memory" (digest (Machine.phys m1))
    (digest (Machine.phys m2))

let test_backend_restore_roundtrip () =
  (* the run patches its own text; the incremental restore must undo the
     patch AND drop the stale blocks, or the replay diverges *)
  let r = Testbed.assemble_items selfmod_items in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
  let b = Backend.create Backend.Cached m in
  let snap = Backend.snapshot b in
  let run1 = Backend.run b ~max_cycles:100_000 in
  let final1 = digest (Machine.phys m) in
  Backend.restore b snap;
  let run2 = Backend.run b ~max_cycles:100_000 in
  check int "same exit after incremental restore"
    (Testbed.exit_code run1) (Testbed.exit_code run2);
  check Alcotest.string "same final memory after replay" final1
    (digest (Machine.phys m));
  (* a second replay exercises the now-warm dirty-set path *)
  Backend.restore b snap;
  let run3 = Backend.run b ~max_cycles:100_000 in
  check int "third run identical" (Testbed.exit_code run1) (Testbed.exit_code run3)

(* Checkpoint the self-modifying program after each of its first
   instructions, finish, restore the checkpoint and finish again: the
   same exit, registers and memory, including the patched text. *)
let test_checkpoint_roundtrip () =
  let r = Testbed.assemble_items selfmod_items in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
  let b = Backend.create Backend.Cached m in
  let base = Backend.snapshot b in
  let cycles0 = (Machine.cpu m).Cpu.cycles in
  let regs () = Array.to_list (Array.map Int32.to_int (Machine.cpu m).Cpu.regs) in
  let disk = Machine.disk m in
  for split = 1 to 12 do
    Backend.restore b base;
    ignore (Backend.run b ~max_cycles:split);
    (* a written disk block belongs to the checkpoint too *)
    Devices.Disk.write_block disk split (Bytes.make Devices.block_size (Char.chr split));
    let k = Machine.checkpoint m ~base in
    let disk1 = Bytes.copy (Devices.Disk.image disk) in
    check int "checkpoint cycle" (cycles0 + split) (Machine.checkpoint_cycles k);
    let first = Backend.run b ~max_cycles:100_000 in
    let regs1 = regs () and mem1 = digest (Machine.phys m) in
    Machine.restore_checkpoint m ~base k;
    mem_eq "same disk" disk1 (Devices.Disk.image disk);
    let again = Backend.run b ~max_cycles:100_000 in
    check int (Printf.sprintf "split %d: same exit" split) (Testbed.exit_code first)
      (Testbed.exit_code again);
    check int_list "same registers" regs1 (regs ());
    check Alcotest.string "same memory" mem1 (digest (Machine.phys m))
  done;
  Backend.restore b base;
  check int "the base still runs the program" 99
    (Testbed.exit_code (Backend.run b ~max_cycles:100_000))

(* The checkpoint holds different code on a page the block cache has
   decoded from the base: restoring it must drop those blocks. *)
let test_checkpoint_drops_stale_code () =
  let prog v = (Testbed.assemble_items (Ins (Mov_ri (eax, Int32.of_int v)) :: exit_with_al)).code in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base (prog 1);
  let b = Backend.create Backend.Cached m in
  let base = Backend.snapshot b in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base (prog 2);
  let k = Machine.checkpoint m ~base in
  Backend.restore b base;
  check int "the base runs (and caches) program 1" 1
    (Testbed.exit_code (Backend.run b ~max_cycles:1000));
  Machine.restore_checkpoint m ~base k;
  check int "the checkpoint runs program 2" 2
    (Testbed.exit_code (Backend.run b ~max_cycles:1000))

let result_name = function
  | Machine.Powered_off n -> Printf.sprintf "exit %d" n
  | Machine.Reset t -> "reset: " ^ Trap.name t.Trap.vector
  | Machine.Halted -> "halted"
  | Machine.Watchdog -> "watchdog"
  | Machine.Snapshot_point -> "snapshot point"

(* A block that ends at an undecodable byte keeps that byte: rewriting
   only it into an instruction, across a restore, must rebuild the block,
   which then runs the instruction as the interpreter does.  A block that
   kept only its own instructions' bytes would be reused and leave the
   instruction to the undecodable-entry fallback step. *)
let test_rewritten_end_byte () =
  let r =
    Testbed.assemble_items
      ([ Ins (Mov_ri (eax, 1l)); Label "tail"; Ins (Inc_r eax) ] @ exit_with_al)
  in
  let tail = Int32.to_int (symbol r "tail") in
  let run kind =
    let m = Testbed.make_machine () in
    Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
    let b = Backend.create kind m in
    let good = Backend.snapshot b in
    Cpu.poke_phys (Machine.cpu m) tail 0xD6;
    let broken = result_name (Backend.run b ~max_cycles:1000) in
    let st_broken = Backend.stats b in
    Backend.restore b good;
    let fixed = result_name (Backend.run b ~max_cycles:1000) in
    let regs = Array.to_list (Array.map Int32.to_int (Machine.cpu m).Cpu.regs) in
    ((broken, fixed, regs, digest (Machine.phys m)), (st_broken, Backend.stats b))
  in
  let (broken, fixed, regs, mem), _ = run Backend.Interp in
  let cached, stats = run Backend.Cached in
  check Alcotest.string "the broken byte does not decode" "reset: invalid opcode" broken;
  check Alcotest.string "the rewritten byte runs" "exit 2" fixed;
  let c_broken, c_fixed, c_regs, c_mem = cached in
  check Alcotest.string "cached: same broken result" broken c_broken;
  check Alcotest.string "cached: same result after the rewrite" fixed c_fixed;
  check int_list "cached: same registers" regs c_regs;
  check Alcotest.string "cached: same memory" mem c_mem;
  match stats with
  | Some s0, Some s1 ->
    check int "the broken byte went to the fallback step once" 1
      s0.Bbexec.st_fallback_undecodable;
    check int "the rewritten byte ran in a rebuilt block, not the fallback" 1
      s1.Bbexec.st_fallback_undecodable;
    check bool "the block was rebuilt" true (s1.Bbexec.st_built > s0.Bbexec.st_built)
  | _ -> Alcotest.fail "cached backend must expose block stats"

(* A jump through a mapping whose frame lies past physical memory (a
   corrupted page table): the fetch is the interpreter's machine check,
   a reset with #GP, on the cached backend too. *)
let test_fetch_beyond_memory () =
  let far = 0x300000 in
  let r = Testbed.assemble_items [ Ins (Mov_ri (eax, Int32.of_int far)); Ins (Jmp_rm (Reg eax)) ] in
  let run kind =
    let m = Testbed.make_machine () in
    let phys = Machine.phys m in
    Phys.blit_in phys ~dst:Testbed.code_base r.code;
    Phys.write32 phys (0x3000 + (far / psz * 4)) (Int32.of_int ((Phys.size phys + psz) lor 3));
    let b = Backend.create kind m in
    let result = result_name (Backend.run b ~max_cycles:1000) in
    let cpu = Machine.cpu m in
    (result, Int32.to_int cpu.Cpu.eip, cpu.Cpu.cycles)
  in
  let result, eip, cycles = run Backend.Interp in
  check Alcotest.string "the interpreter's machine check" "reset: general protection fault" result;
  let c_result, c_eip, c_cycles = run Backend.Cached in
  check Alcotest.string "cached: same result" result c_result;
  check int "cached: same eip" eip c_eip;
  check int "cached: same cycles" cycles c_cycles

(* A page written once, then made read-only in its PTE without a flush:
   the second write goes through the stale writable TLB entry.  The
   test machine has no IDT, so a flushed TLB would turn that write into
   a reset. *)
let data_page = 0x20000

let stale_tlb_items =
  [
    Ins (Mov_ri (ebx, Int32.of_int data_page));
    Ins (Mov_rm_i (Mem (mb ebx 0), 1l));
    Ins (Mov_ri (ecx, Int32.of_int (0x3000 + (data_page / psz * 4))));
    Ins (Mov_rm_i (Mem (mb ecx 0), Int32.of_int (data_page lor Mmu.pte_present)));
    Ins (Mov_rm_i (Mem (mb ebx 0), 2l));
    Ins (Mov_r_rm (eax, Mem (mb ebx 0)));
  ]
  @ exit_with_al

(* Checkpoint between every pair of instructions: finishing from the
   checkpoint must match finishing the run, so a checkpoint taken after
   the PTE downgrade must keep the stale entry. *)
let test_checkpoint_keeps_tlb () =
  let r = Testbed.assemble_items stale_tlb_items in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
  let b = Backend.create Backend.Cached m in
  let base = Backend.snapshot b in
  let phys = Machine.phys m in
  let stale_windows = ref 0 in
  for split = 1 to 8 do
    Backend.restore b base;
    ignore (Backend.run b ~max_cycles:split);
    let k = Machine.checkpoint m ~base in
    let first = Backend.run b ~max_cycles:1000 in
    let mem1 = digest phys in
    Machine.restore_checkpoint m ~base k;
    let again = Backend.run b ~max_cycles:1000 in
    check Alcotest.string (Printf.sprintf "split %d: same result" split) (result_name first)
      (result_name again);
    check Alcotest.string "same memory" mem1 (digest phys);
    Machine.restore_checkpoint m ~base k;
    if Phys.read32 phys data_page = 1l
       && Phys.read32 phys (0x3000 + (data_page / psz * 4)) = Int32.of_int (data_page lor 1)
    then begin
      (* inside the window: the TLB is what lets the write through *)
      incr stale_windows;
      Mmu.flush (Machine.cpu m).Cpu.mmu;
      check Alcotest.string "a flushed TLB faults instead" "reset: page fault"
        (result_name (Backend.run b ~max_cycles:1000))
    end
  done;
  check bool "some checkpoint fell between the downgrade and the write" true (!stale_windows > 0);
  Backend.restore b base;
  check Alcotest.string "the run writes through the stale entry" "exit 2"
    (result_name (Backend.run b ~max_cycles:1000))

(* ---------- provable hangs ---------- *)

(* [items] with the timer tick due and masked (IF starts clear) and the
   flight recorder at [Ring]: on the cached backend, paused at cycle
   [at] for one [Runner.skip_recurrence] attempt and run on to [limit];
   on the interpreter, run plainly to [limit].  Both runs must end in
   the same result, cycle count, registers, flight recorder, memory and
   console; the attempt's verdict is returned. *)
let recurrence_case ?(at = 5_000) ?(limit = 200_000) items =
  let code = (Testbed.assemble_items items).code in
  let setup kind =
    let m = Testbed.make_machine () in
    Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base code;
    let cpu = Machine.cpu m in
    Cpu.set_timer cpu 1_000;
    Trace.set_level cpu.Cpu.trace Trace.Ring;
    (m, Backend.create kind m)
  in
  let m, b = setup Backend.Cached in
  let base = Backend.snapshot b in
  check Alcotest.string "paused before the attempt" "watchdog"
    (result_name (Backend.run b ~max_cycles:at));
  let verdict = Kfi_injector.Runner.skip_recurrence m ~base ~limit in
  let cpu = Machine.cpu m in
  let result =
    match verdict with
    | Kfi_injector.Runner.Reset trap -> Machine.Reset trap
    | _ -> Backend.run b ~max_cycles:(limit - cpu.Cpu.cycles)
  in
  let m', b' = setup Backend.Interp in
  let cpu' = Machine.cpu m' in
  check Alcotest.string "same result" (result_name (Backend.run b' ~max_cycles:limit))
    (result_name result);
  check int "same cycles" cpu'.Cpu.cycles cpu.Cpu.cycles;
  let regs c = List.map Int32.to_int (c.Cpu.eip :: Array.to_list c.Cpu.regs) in
  check int_list "same eip and registers" (regs cpu') (regs cpu);
  check int "same eflags" cpu'.Cpu.eflags cpu.Cpu.eflags;
  check int "same records seen" (Trace.seen cpu'.Cpu.trace) (Trace.seen cpu.Cpu.trace);
  check bool "same flight recorder" true
    (Trace.entries cpu'.Cpu.trace = Trace.entries cpu.Cpu.trace);
  check Alcotest.string "same memory" (digest (Machine.phys m')) (digest (Machine.phys m));
  check Alcotest.string "same console" (Machine.console_contents m') (Machine.console_contents m);
  verdict

let proven = function
  | Kfi_injector.Runner.Proven p -> Some p
  | Kfi_injector.Runner.Unproven | Kfi_injector.Runner.Reset _ -> None

let test_masked_spin_proven () =
  match
    proven
      (recurrence_case
         [
           Ins (Mov_ri (ebx, Int32.of_int data_page));
           Label "spin";
           Ins (Mov_r_rm (eax, Mem (mb ebx 0)));
           Ins (Test_rm_r (Reg eax, eax));
           Jcc_sym (E, "spin");
         ])
  with
  | None -> Alcotest.fail "a masked spin on a memory load is not proven"
  | Some p ->
    check int "one iteration per period" 3 p.Kfi_injector.Runner.pr_period;
    check bool "whole periods skipped" true (p.Kfi_injector.Runner.pr_skipped > 150_000)

(* The registers and memory recur on every pass, yet the loop exits once
   the cycle counter passes 50,000: skipping periods would exit it late. *)
let test_rdtsc_loop_unproven () =
  check bool "a loop that reads the cycle counter is not proven" true
    (proven
       (recurrence_case
          ([
             Label "wait";
             Ins Rdtsc;
             Ins (Alu_eax_i (Cmp, 50_000l));
             Ins (Mov_ri (eax, 0l));
             Jcc_sym (B, "wait");
           ]
          @ exit_with_al))
    = None)

let test_counting_loop_unproven () =
  check bool "a loop that increments a memory word is not proven" true
    (proven
       (recurrence_case
          [
            Ins (Mov_ri (ebx, Int32.of_int data_page));
            Label "count";
            Ins (Inc_rm (Mem (mb ebx 0)));
            Jmp_sym "count";
          ])
    = None)

let test_console_loop_unproven () =
  check bool "a loop that writes the console is not proven" true
    (proven
       (recurrence_case
          [
            Ins (Mov_ri (edx, Int32.of_int Devices.console_port));
            Ins (Mov_ri (eax, Int32.of_int (Char.code 'x')));
            Label "print";
            Ins Out_al;
            Jmp_sym "print";
          ])
    = None)

let test_detach_hands_machine_back () =
  let r = Testbed.assemble_items selfmod_items in
  let m = Testbed.make_machine () in
  Phys.blit_in (Machine.phys m) ~dst:Testbed.code_base r.code;
  let b = Backend.create Backend.Cached m in
  Backend.detach b;
  check bool "tracking off after detach" false (Phys.tracking (Machine.phys m));
  (* the plain interpreter path still runs the program correctly *)
  check int "machine usable after detach" 99
    (Testbed.exit_code (Machine.run m ~max_cycles:100_000))

(* [Machine.matches] is [same_state] against the live machine plus an
   equal cycle counter: a state one cycle later (timer distance kept)
   does not match, a flipped byte matches only when the compare is told
   about it, and a page or block written since does not match until its
   bytes are back.  Pages the checkpoint shares are not compared, so the
   second checkpoint of an unchanged run must still be told apart from a
   changed one. *)
let test_matches () =
  let r = Testbed.assemble_items selfmod_items in
  let m = Testbed.make_machine () in
  let phys = Machine.phys m and cpu = Machine.cpu m and disk = Machine.disk m in
  Phys.blit_in phys ~dst:Testbed.code_base r.code;
  let b = Backend.create Backend.Cached m in
  let base = Backend.snapshot b in
  ignore (Backend.run b ~max_cycles:6);
  Phys.write8 phys 0x30000 7;
  Devices.Disk.write_block disk 3 (Bytes.make Devices.block_size 'k');
  let k = Machine.checkpoint m ~base in
  check bool "the state just captured" true (Machine.matches m ~base k);
  cpu.Cpu.cycles <- cpu.Cpu.cycles + 1;
  if cpu.Cpu.next_timer <> max_int then cpu.Cpu.next_timer <- cpu.Cpu.next_timer + 1;
  check bool "one cycle later" false (Machine.matches m ~base k);
  cpu.Cpu.cycles <- cpu.Cpu.cycles - 1;
  if cpu.Cpu.next_timer <> max_int then cpu.Cpu.next_timer <- cpu.Cpu.next_timer - 1;
  check bool "back on time" true (Machine.matches m ~base k);
  let text = Testbed.code_base + 1 in
  Cpu.poke_phys cpu text (Phys.read8 phys text lxor 0x10);
  check bool "a flipped text byte" false (Machine.matches m ~base k);
  check bool "the flip, masked" true (Machine.matches ~flip:(text, 0x10) m ~base k);
  check bool "another bit, masked" false (Machine.matches ~flip:(text, 0x20) m ~base k);
  Cpu.poke_phys cpu text (Phys.read8 phys text lxor 0x10);
  check bool "the flip undone" true (Machine.matches m ~base k);
  Phys.write8 phys 0x30000 8;
  check bool "a captured page written again" false (Machine.matches m ~base k);
  Phys.write8 phys 0x30000 7;
  check bool "and written back" true (Machine.matches m ~base k);
  let block4 = Devices.Disk.read_block disk 4 in
  Devices.Disk.write_block disk 4 (Bytes.make Devices.block_size 'z');
  check bool "a block written since" false (Machine.matches m ~base k);
  Devices.Disk.write_block disk 4 block4;
  check bool "and written back" true (Machine.matches m ~base k)

(* The read watch behind the rejoin's touch maps: a run marks every byte
   of each instruction it executes and every byte it loads, in the
   watched range, and nothing else.  The second pass runs the same code
   again with every fetch served by the decode cache, which reads no
   memory and reports its bytes itself. *)
let touch_items =
  [
    Ins_sym ((fun a -> Mov_r_rm (eax, Mem (mabs a))), "table");
    Label "add";
    Ins (Alu_rm_i (Add, Reg eax, 0x12345678l));
    Jmp_sym "over";
    Label "never";
    Ins Nop;
    Label "over";
  ]
  @ exit_with_al
  @ [ Label "table"; Word32 0x0badf00dl; Label "after"; Word32 0l ]

let test_touch_map () =
  let r = Testbed.assemble_items touch_items in
  let sym name = Int32.to_int (Hashtbl.find r.symbols name) in
  let m = Testbed.make_machine () in
  let phys = Machine.phys m and cpu = Machine.cpu m in
  Phys.blit_in phys ~dst:Testbed.code_base r.code;
  List.iter
    (fun pass ->
      cpu.Cpu.eip <- Int32.of_int Testbed.code_base;
      cpu.Cpu.halted <- false;
      cpu.Cpu.exit_code <- None;
      Phys.watch phys ~lo:Testbed.code_base ~len:(Bytes.length r.code);
      ignore (Machine.run m ~max_cycles:100);
      let map = Phys.take_watched phys in
      Phys.unwatch phys;
      let read a =
        let i = a - Testbed.code_base in
        Char.code (Bytes.get map (i lsr 3)) land (1 lsl (i land 7)) <> 0
      in
      let name what = Printf.sprintf "pass %d: %s" pass what in
      check bool (name "an instruction's first byte") true (read (sym "add"));
      check bool (name "a byte inside a multi-byte instruction") true (read (sym "add" + 3));
      check bool (name "its last byte") true (read (sym "never" - 3));
      List.iter
        (fun k -> check bool (name (Printf.sprintf "loaded text byte %d" k)) true (read (sym "table" + k)))
        [ 0; 1; 2; 3 ];
      check bool (name "an instruction never executed") false (read (sym "never"));
      check bool (name "text never loaded") false (read (sym "after")))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "dirty marking" `Quick test_dirty_marking;
    Alcotest.test_case "restore rewrites exactly the dirty set" `Quick
      test_restore_exact_dirty_set;
    Alcotest.test_case "cross-snapshot restore" `Quick test_cross_snapshot_restore;
    Alcotest.test_case "tracking off means full restore" `Quick
      test_tracking_off_full_restore;
    Alcotest.test_case "holds compares words and the tail" `Quick test_holds;
    Alcotest.test_case "bb-cache invalidated on self-modifying text" `Quick
      test_bb_invalidation_on_selfmod;
    Alcotest.test_case "interp and cached agree" `Quick test_interp_cached_agree;
    Alcotest.test_case "snapshot/restore roundtrip" `Quick
      test_backend_restore_roundtrip;
    Alcotest.test_case "detach hands the machine back" `Quick
      test_detach_hands_machine_back;
    Alcotest.test_case "disk incremental restore equals full restore" `Quick
      test_disk_incremental_restore;
    Alcotest.test_case "snapshot carries the last fault's cycle" `Quick
      test_snapshot_last_fault_cycle;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint hops equal full restores" `Quick test_checkpoint_hops;
    Alcotest.test_case "checkpoint drops stale decoded code" `Quick
      test_checkpoint_drops_stale_code;
    Alcotest.test_case "checkpoint keeps the TLB" `Quick test_checkpoint_keeps_tlb;
    Alcotest.test_case "read watch: fetched and loaded text bytes" `Quick test_touch_map;
    Alcotest.test_case "matches: cycle counter, flipped byte, written pages" `Quick test_matches;
    Alcotest.test_case "rewritten end byte rebuilds its block" `Quick
      test_rewritten_end_byte;
    Alcotest.test_case "fetch beyond physical memory" `Quick test_fetch_beyond_memory;
    Alcotest.test_case "recurring masked spin is proven" `Quick test_masked_spin_proven;
    Alcotest.test_case "rdtsc-guarded loop is not proven" `Quick test_rdtsc_loop_unproven;
    Alcotest.test_case "counting loop is not proven" `Quick test_counting_loop_unproven;
    Alcotest.test_case "console loop is not proven" `Quick test_console_loop_unproven;
    Alcotest.test_case "record independent of the previous target" `Slow
      test_record_independent_of_order;
  ]
