(* Injector tests: target enumeration per campaign, deterministic bit
   choice, and end-to-end outcome classification on hand-picked and
   sampled injections. *)

open Kfi_injector
module Asm = Kfi_asm.Assembler

let check = Alcotest.check
let int = Alcotest.int

let build = lazy (Kfi_kernel.Build.build ())

(* One shared runner for all slow tests (boot + golden runs are costly). *)
let runner = lazy (Runner.create ())

let fn_insns fn =
  let b = Lazy.force build in
  List.filter (fun (i : Asm.insn_info) -> i.Asm.i_fn = Some fn) b.Kfi_kernel.Build.asm.Asm.insns

let test_campaign_targets_shape () =
  let b = Lazy.force build in
  let fns = [ "schedule"; "pipe_read" ] in
  let a = Target.enumerate b ~campaign:Target.A ~seed:1 fns in
  let bt = Target.enumerate b ~campaign:Target.B ~seed:1 fns in
  let c = Target.enumerate b ~campaign:Target.C ~seed:1 fns in
  (* A: one target per byte of each non-branch instruction *)
  let non_branch_bytes =
    List.concat_map fn_insns fns
    |> List.filter (fun i -> not (Kfi_isa.Insn.is_conditional_branch i.Asm.i_insn))
    |> List.fold_left (fun acc i -> acc + i.Asm.i_len) 0
  in
  check int "A targets = non-branch bytes" non_branch_bytes (List.length a);
  (* B: one per byte of each conditional branch *)
  let branch_insns =
    List.concat_map fn_insns fns
    |> List.filter (fun i -> Kfi_isa.Insn.is_conditional_branch i.Asm.i_insn)
  in
  let branch_bytes = List.fold_left (fun acc i -> acc + i.Asm.i_len) 0 branch_insns in
  check int "B targets = branch bytes" branch_bytes (List.length bt);
  (* C: exactly one per conditional branch, bit 0 of the opcode byte *)
  check int "C targets = branches" (List.length branch_insns) (List.length c);
  List.iter
    (fun t ->
      check int "C bit" 0 t.Target.t_bit;
      match t.Target.t_insn with
      | Kfi_isa.Insn.Jcc8 _ -> check int "C byte (short)" 0 t.Target.t_byte
      | Kfi_isa.Insn.Jcc _ -> check int "C byte (long)" 1 t.Target.t_byte
      | _ -> Alcotest.fail "C target is not a conditional branch")
    c

let test_pseudo_bit_deterministic () =
  let b1 = Target.pseudo_bit ~seed:42 ~addr:0xC0100123 ~byte:2 in
  let b2 = Target.pseudo_bit ~seed:42 ~addr:0xC0100123 ~byte:2 in
  check int "deterministic" b1 b2;
  check Alcotest.bool "range" true (b1 >= 0 && b1 < 8)

(* Reversing a condition byte flips je<->jne in the encoded stream. *)
let test_campaign_c_reverses_condition () =
  let b = Lazy.force build in
  let c = Target.enumerate b ~campaign:Target.C ~seed:1 [ "iget" ] in
  check Alcotest.bool "iget has branches" true (List.length c > 0);
  List.iter
    (fun t ->
      let off =
        Int32.to_int t.Target.t_addr land 0xFFFFFFFF
        - Kfi_kernel.Layout.kernel_text_base + t.Target.t_byte
      in
      let byte = Char.code (Bytes.get b.Kfi_kernel.Build.asm.Asm.code off) in
      let flipped = byte lxor 1 in
      (* flipped byte must still be a condition opcode with reversed sense *)
      match t.Target.t_insn with
      | Kfi_isa.Insn.Jcc8 (cond, _) ->
        check int "short form opcode"
          (0x70 + Kfi_isa.Insn.cond_code cond)
          byte;
        check int "reversed" (0x70 + (Kfi_isa.Insn.cond_code cond lxor 1)) flipped
      | Kfi_isa.Insn.Jcc (cond, _) ->
        check int "long form opcode" (0x80 + Kfi_isa.Insn.cond_code cond) byte
      | _ -> Alcotest.fail "not a branch")
    c

(* --- end-to-end outcome tests (share one runner) --- *)

(* sys_pipe never runs under the hanoi workload *)
let sys_pipe_target r =
  List.hd (Target.enumerate (Runner.build r) ~campaign:Target.C ~seed:1 [ "sys_pipe" ])

(* run [f] with a fresh metrics registry attached; returns [f]'s result
   and the counter [key] over its injections *)
let counting key r f =
  let m = Kfi_obs.Metrics.create () in
  Runner.set_metrics r (Some m);
  let v = Fun.protect ~finally:(fun () -> Runner.set_metrics r None) f in
  (v, Kfi_obs.Metrics.counter (Kfi_obs.Metrics.snapshot m) key)

(* how many were resolved from the golden touch maps without running *)
let counting_skips = counting "inj.skipped"

(* how many started from a golden checkpoint above the baseline *)
let counting_rungs = counting "inj.ladder"

let test_not_activated () =
  let r = Lazy.force runner in
  let hanoi = Kfi_workload.Progs.index_of "hanoi" in
  let o, skipped =
    counting_skips r (fun () -> Runner.run_one r ~workload:hanoi (sys_pipe_target r))
  in
  check Alcotest.string "not activated" "not activated" (Outcome.category o);
  check int "skipped" 1 skipped;
  check int "golden cycle count" (Runner.golden r hanoi).Runner.g_cycles
    (Runner.last_cycles r);
  check Alcotest.bool "no injection" true (Runner.last_injected_at r = None)

let test_skip_needs_whole_golden () =
  let r = Lazy.force runner in
  let hanoi = Kfi_workload.Progs.index_of "hanoi" in
  let budget = (Runner.golden r hanoi).Runner.g_cycles / 2 in
  let saved = Runner.max_cycles r in
  let o, skipped =
    Fun.protect
      ~finally:(fun () -> Runner.set_max_cycles r saved)
      (fun () ->
        Runner.set_max_cycles r budget;
        counting_skips r (fun () -> Runner.run_one r ~workload:hanoi (sys_pipe_target r)))
  in
  check Alcotest.string "not activated" "not activated" (Outcome.category o);
  check int "ran in full" 0 skipped;
  check int "watchdog-bounded cycles" budget (Runner.last_cycles r)

let test_skip_hardened_map () =
  let r = Lazy.force runner in
  let hanoi = Kfi_workload.Progs.index_of "hanoi" in
  let plain = (Runner.golden r hanoi).Runner.g_cycles in
  Fun.protect
    ~finally:(fun () -> Runner.set_hardening r false)
    (fun () ->
      Runner.set_hardening r true;
      (* the reference: the hardened golden run, in full *)
      let m = Runner.machine r in
      let cpu = Kfi_isa.Machine.cpu m in
      Kfi_isa.Machine.restore_checkpoint m ~base:(Runner.baseline r) (Runner.start r hanoi);
      Runner.poke_hardening r;
      let start = cpu.Kfi_isa.Cpu.cycles in
      (match Kfi_isa.Machine.run m ~max_cycles:(Runner.max_cycles r) with
       | Kfi_isa.Machine.Powered_off 0 -> ()
       | _ -> Alcotest.fail "hardened golden run failed");
      let hardened = cpu.Kfi_isa.Cpu.cycles - start in
      check Alcotest.bool "hardening changes the golden run" true (hardened <> plain);
      let o, skipped =
        counting_skips r (fun () -> Runner.run_one r ~workload:hanoi (sys_pipe_target r))
      in
      check Alcotest.string "not activated" "not activated" (Outcome.category o);
      check int "skipped" 1 skipped;
      check int "hardened golden cycle count" hardened (Runner.last_cycles r));
  (* and the plain map is untouched *)
  ignore (Runner.run_one r ~workload:hanoi (sys_pipe_target r));
  check int "plain golden cycle count" plain (Runner.last_cycles r)

(* --- the golden checkpoint ladder --- *)

(* free_page first runs ~359k cycles into the pipe workload, past rung 5 *)
let late_target r =
  List.hd (Target.enumerate (Runner.build r) ~campaign:Target.C ~seed:1 [ "free_page" ])

(* everything a run reports, flight recorder included *)
let record r o =
  let m = Runner.machine r in
  ( Outcome.category o,
    o,
    Runner.last_cycles r,
    Runner.last_injected_at r,
    Kfi_isa.Machine.tty_contents m,
    Kfi_isa.Trace.entries (Kfi_isa.Machine.cpu m).Kfi_isa.Cpu.trace )

let same_record name a b = check Alcotest.bool name true (a = b)

(* run [f] on a fresh cached backend (the ladders are the golden runs'
   and stay); back to the interpreter (the shared runner's default)
   afterwards *)
let on_cached r f =
  Runner.set_backend r Kfi_isa.Backend.Interp;
  Runner.set_backend r Kfi_isa.Backend.Cached;
  Fun.protect ~finally:(fun () -> Runner.set_backend r Kfi_isa.Backend.Interp) f

let run_late r =
  let t = late_target r in
  let o = Runner.run_one r ~workload:(Kfi_workload.Progs.index_of "pipe") t in
  record r o

(* The ladder is recorded with the golden run, so even the first cached
   run starts from a rung. *)
let test_ladder_starts_from_rung () =
  let r = Lazy.force runner in
  let plain = run_late r in
  on_cached r (fun () ->
      let first, n1 = counting_rungs r (fun () -> run_late r) in
      check int "the first cached run starts from a rung" 1 n1;
      let again, n2 = counting_rungs r (fun () -> run_late r) in
      let _, skipped = counting "inj.prefix_skipped_cycles" r (fun () -> run_late r) in
      check int "the rerun starts from a rung" 1 n2;
      check Alcotest.bool "past rung 5" true (skipped >= 5 * Runner.rung_spacing);
      same_record "same record as the first cached run" first again;
      same_record "same record as the interpreter" plain again)

let test_ladder_kept_on_backend_switch () =
  let r = Lazy.force runner in
  on_cached r (fun () ->
      ignore (run_late r);
      Runner.set_backend r Kfi_isa.Backend.Interp;
      let _, n0 = counting_rungs r (fun () -> run_late r) in
      check int "the interpreter starts from the workload's start" 0 n0;
      Runner.set_backend r Kfi_isa.Backend.Cached;
      let _, n = counting_rungs r (fun () -> run_late r) in
      check int "a new cached backend starts from a rung" 1 n)

(* A rung must lie before the watchdog: with the budget at rung 1's
   actual cycle the run starts from the start, one cycle later from
   rung 1. *)
let test_ladder_respects_budget () =
  let r = Lazy.force runner in
  let saved = Runner.max_cycles r in
  let w = Kfi_workload.Progs.index_of "pipe" in
  let rung1 =
    match (Runner.ladder r ~workload:w).(1) with
    | Some k ->
      Kfi_isa.Machine.checkpoint_cycles k - Kfi_isa.Machine.checkpoint_cycles (Runner.start r w)
    | None -> Alcotest.fail "pipe's ladder has a rung 1"
  in
  on_cached r (fun () ->
      Fun.protect
        ~finally:(fun () -> Runner.set_max_cycles r saved)
        (fun () ->
          List.iter
            (fun (budget, rungs) ->
              Runner.set_max_cycles r budget;
              let (cat, _, cycles, _, _, _), n = counting_rungs r (fun () -> run_late r) in
              check int (Printf.sprintf "budget %d: rung starts" budget) rungs n;
              check Alcotest.string "cut before the hit" "not activated" cat;
              check int "watchdog-bounded cycles" budget cycles)
            [
              (Runner.rung_spacing / 2, 0);
              (rung1, 0);
              (rung1 + 1, 1);
              ((3 * Runner.rung_spacing) + 1000, 1);
            ]))

let test_ladder_unused_at_full () =
  let r = Lazy.force runner in
  let traced f =
    Runner.set_trace_level r Kfi_isa.Trace.Full;
    Fun.protect ~finally:(fun () -> Runner.set_trace_level r Kfi_isa.Trace.Ring) f
  in
  let plain = traced (fun () -> run_late r) in
  on_cached r (fun () ->
      let full, n = counting_rungs r (fun () -> traced (fun () -> run_late r)) in
      check int "a Full run starts from the baseline" 0 n;
      same_record "same record as the interpreter" plain full)

(* The hardened ladder is recorded with the hardened golden run, on
   first use; the plain one stays. *)
let test_ladder_per_hardening () =
  let r = Lazy.force runner in
  let hardened f =
    Runner.set_hardening r true;
    Fun.protect ~finally:(fun () -> Runner.set_hardening r false) f
  in
  let plain = hardened (fun () -> run_late r) in
  on_cached r (fun () ->
      let first, n1 = counting_rungs r (fun () -> hardened (fun () -> run_late r)) in
      check int "the hardened ladder serves the first run" 1 n1;
      same_record "same hardened record as the interpreter" plain first;
      let _, n2 = counting_rungs r (fun () -> run_late r) in
      check int "the plain ladder is kept" 1 n2)

(* Every rung, restored, is the plain run's state at its boundary:
   registers, cycle counter, memory, disk and TLB ([Machine.matches]),
   and the flight recorder of a [Ring] run from the start.  Consecutive
   rungs share unchanged pages, so a wrong share shows here. *)
let test_rungs_equal_plain_run () =
  let r = Lazy.force runner in
  let w = Kfi_workload.Progs.index_of "spawn" in
  let m = Runner.machine r in
  let cpu = Kfi_isa.Machine.cpu m in
  let base = Runner.baseline r in
  on_cached r (fun () ->
      let ladder = Runner.ladder r ~workload:w in
      check Alcotest.bool "spawn's ladder has more than 20 rungs" true (Array.length ladder > 20);
      (* the plain run, stopped at each boundary: what a rung must be *)
      let start = Runner.start r w in
      Kfi_isa.Machine.restore_checkpoint m ~base start;
      Runner.poke_hardening r;
      Kfi_isa.Trace.set_level cpu.Kfi_isa.Cpu.trace Kfi_isa.Trace.Ring;
      Kfi_isa.Trace.clear cpu.Kfi_isa.Cpu.trace;
      let c0 = cpu.Kfi_isa.Cpu.cycles in
      let plain =
        Array.mapi
          (fun j _ ->
            if j > 0 then
              ignore
                (Kfi_isa.Machine.run m
                   ~max_cycles:(c0 + (j * Runner.rung_spacing) - cpu.Kfi_isa.Cpu.cycles));
            ( cpu.Kfi_isa.Cpu.cycles,
              Digest.bytes (Kfi_isa.Phys.blit_out (Kfi_isa.Machine.phys m) ~src:0
                              ~len:(Kfi_isa.Phys.size (Kfi_isa.Machine.phys m))),
              Kfi_isa.Trace.seen cpu.Kfi_isa.Cpu.trace,
              Kfi_isa.Trace.entries cpu.Kfi_isa.Cpu.trace ))
          ladder
      in
      let restored = ref 0 in
      Array.iteri
        (fun j rung ->
          match rung with
          | None -> ()
          | Some k ->
            incr restored;
            Kfi_isa.Machine.restore_checkpoint m ~base k;
            let cycles, digest, seen, entries = plain.(j) in
            let name what = Printf.sprintf "rung %d: %s" j what in
            check int (name "cycle") cycles cpu.Kfi_isa.Cpu.cycles;
            check Alcotest.string (name "memory") (Digest.to_hex digest)
              (Digest.to_hex
                 (Digest.bytes (Kfi_isa.Phys.blit_out (Kfi_isa.Machine.phys m) ~src:0
                                  ~len:(Kfi_isa.Phys.size (Kfi_isa.Machine.phys m)))));
            if j > 0 then begin
              check int (name "records seen") seen (Kfi_isa.Trace.seen cpu.Kfi_isa.Cpu.trace);
              check Alcotest.bool (name "ring") true
                (entries = Kfi_isa.Trace.entries cpu.Kfi_isa.Cpu.trace)
            end)
        ladder;
      check int "every rung of spawn's ladder was recorded" (Array.length ladder) !restored)

(* Two CI-population targets (campaign A, seed 42) that rejoin the golden
   run on the cached backend: a masked flip in valid_user_region that
   restores seven later rungs, and one in ext2_truncate that rejoins,
   restores a rung, then reads the flipped byte again and crashes.  Each
   record, flight recorder included, is the interpreter's. *)
let test_rejoin_ci_targets () =
  let r = Lazy.force runner in
  let find fn addr byte =
    List.find
      (fun t -> t.Target.t_addr = addr && t.Target.t_byte = byte)
      (Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:42 [ fn ])
  in
  List.iter
    (fun (fn, addr, byte, workload, category) ->
      let t = find fn addr byte and w = Kfi_workload.Progs.index_of workload in
      let plain = record r (Runner.run_one r ~workload:w t) in
      let cached, episodes =
        on_cached r (fun () ->
            counting "inj.rejoin_episodes" r (fun () -> record r (Runner.run_one r ~workload:w t)))
      in
      let cat, _, _, _, _, _ = cached in
      check Alcotest.string (fn ^ ": outcome") category cat;
      check Alcotest.bool (fn ^ ": restored a later rung") true (episodes >= 1);
      same_record (fn ^ ": same record as the interpreter") plain cached)
    [
      ("valid_user_region", 0xc01012cal, 0, "looper", "not manifested");
      ("ext2_truncate", 0xc0102e0cl, 0, "fstime", "crash (dumped)");
    ]

(* The block cache's counters reach the metrics registry per injection
   on the cached backend; the interpreter publishes none.  A rerun keeps
   blocks: its restore rewrites their pages with the bytes they were
   decoded from. *)
let test_block_cache_counters () =
  let r = Lazy.force runner in
  let bb_counters f =
    let m = Kfi_obs.Metrics.create () in
    Runner.set_metrics r (Some m);
    Fun.protect ~finally:(fun () -> Runner.set_metrics r None) (fun () -> ignore (f ()));
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"bb." k)
      (Kfi_obs.Metrics.snapshot m).Kfi_obs.Metrics.sn_counters
  in
  check int "the interpreter publishes no block-cache counter" 0
    (List.length (bb_counters (fun () -> run_late r)));
  on_cached r (fun () ->
      let first = bb_counters (fun () -> run_late r) in
      let again = bb_counters (fun () -> run_late r) in
      let get l k = Option.value ~default:0 (List.assoc_opt k l) in
      check Alcotest.bool "the first cached run builds blocks" true (get first "bb.built" > 0);
      check Alcotest.bool "the rerun re-verifies blocks" true (get again "bb.reverified" > 0);
      check Alcotest.bool "and builds fewer" true (get again "bb.built" < get first "bb.built"))

(* --- provable hangs --- *)

(* The CI population's three hangs whose machine state recurs (campaign
   A, seed 42, all on context1). *)
let recurring_hangs r =
  List.map
    (fun (fn, addr, byte) ->
      List.find
        (fun t -> t.Target.t_addr = addr && t.Target.t_byte = byte)
        (Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:42 [ fn ]))
    [ ("schedule", 0xc0105545l, 2); ("wake_up", 0xc0105359l, 3); ("pipe_write", 0xc0104e2dl, 2) ]

(* A small cached campaign: the recurring hangs and a spread of other
   scheduler targets.  Each class's wall-time histogram counts its
   runs, and the proven hangs cost a fraction of one full-budget run of
   the same hang (traced at [Full], which never skips). *)
let test_proven_hang_wall () =
  let r = Lazy.force runner in
  let context1 = Kfi_workload.Progs.index_of "context1" in
  let hangs = recurring_hangs r in
  let others =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:42 [ "schedule" ]
    |> List.filteri (fun i _ -> i mod 16 = 0)
  in
  on_cached r (fun () ->
      Runner.set_trace_level r Kfi_isa.Trace.Full;
      let t0 = Unix.gettimeofday () in
      let o =
        Fun.protect
          ~finally:(fun () -> Runner.set_trace_level r Kfi_isa.Trace.Ring)
          (fun () -> Runner.run_one r ~workload:context1 (List.hd hangs))
      in
      let full = Unix.gettimeofday () -. t0 in
      check Alcotest.string "a hang at Full" "hang" (Outcome.category o);
      check Alcotest.bool "nothing proven at Full" true (Runner.last_proof r = None);
      let m = Kfi_obs.Metrics.create () in
      Runner.set_metrics r (Some m);
      let outcomes =
        Fun.protect
          ~finally:(fun () -> Runner.set_metrics r None)
          (fun () ->
            List.map
              (fun t ->
                let o = Runner.run_one r ~workload:context1 t in
                (o, Runner.last_proof r))
              (hangs @ others))
      in
      List.iteri
        (fun i (o, proof) ->
          if i < List.length hangs then begin
            check Alcotest.string "a recurring hang" "hang" (Outcome.category o);
            check Alcotest.bool "proven" true (proof <> None)
          end)
        outcomes;
      let s = Kfi_obs.Metrics.snapshot m in
      let counter = Kfi_obs.Metrics.counter s in
      let per_class =
        List.fold_left
          (fun n (k, h) ->
            if String.starts_with ~prefix:"inj.wall." k then n + h.Kfi_obs.Metrics.hs_count else n)
          0 s.Kfi_obs.Metrics.sn_hists
      in
      check int "per-class counts sum to inj.count" (counter "inj.count") per_class;
      let hang_runs =
        List.length (List.filter (fun (o, _) -> Outcome.category o = "hang") outcomes)
      in
      check int "every hang proven" hang_runs (counter "inj.hang_proven");
      check Alcotest.bool "cycles not executed" true
        (counter "inj.hang_skipped_cycles" > 3 * 7_000_000);
      match Kfi_obs.Metrics.hist s "inj.wall.hang" with
      | None -> Alcotest.fail "no inj.wall.hang histogram"
      | Some h ->
        check int "every hang timed as a hang" hang_runs h.Kfi_obs.Metrics.hs_count;
        if h.Kfi_obs.Metrics.hs_max *. 3. > full then
          Alcotest.failf "slowest proven hang %.3fs, full-budget run %.3fs"
            h.Kfi_obs.Metrics.hs_max full)

let test_golden_reproducible () =
  let r = Lazy.force runner in
  (* a run without injection must match golden exactly: use a target in a
     never-executed spot but classify manually via a fake no-op bit?  Easier:
     re-run the golden workload and compare *)
  Kfi_isa.Machine.restore (Runner.machine r) (Runner.baseline r);
  Kfi_kernel.Build.set_workload (Runner.machine r) 0;
  (match Kfi_isa.Machine.run (Runner.machine r) ~max_cycles:(Runner.max_cycles r) with
   | Kfi_isa.Machine.Powered_off 0 -> ()
   | _ -> Alcotest.fail "golden re-run failed");
  check Alcotest.string "console identical" (Runner.golden r 0).Runner.g_console
    (Kfi_isa.Machine.tty_contents (Runner.machine r))

let count_categories outcomes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let k = Outcome.category o in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    outcomes;
  tbl

(* a spread of campaign-A injections into the scheduler must produce some
   activated errors and at least one crash *)
let test_campaign_a_schedule_outcomes () =
  let r = Lazy.force runner in
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:7 [ "schedule" ]
    |> List.filteri (fun i _ -> i mod 6 = 0)
  in
  let outcomes =
    List.map
      (fun t -> Runner.run_one r ~workload:(Kfi_workload.Progs.index_of "context1") t)
      targets
  in
  let activated = List.filter Outcome.is_activated outcomes in
  check Alcotest.bool "some activated" true (List.length activated > 3);
  check Alcotest.bool "some crash or hang" true
    (List.exists Outcome.is_crash_or_hang outcomes)

(* campaign C on the fs write path: crashes should include invalid-opcode
   (reversed BUG() assertions) and fs damage should be detected *)
let test_campaign_c_fs_outcomes () =
  let r = Lazy.force runner in
  let fns = [ "bread"; "mark_buffer_dirty"; "generic_commit_write"; "iget"; "ext2_bmap" ] in
  let targets = Target.enumerate (Runner.build r) ~campaign:Target.C ~seed:3 fns in
  let outcomes =
    List.map (fun t -> Runner.run_one r ~workload:(Kfi_workload.Progs.index_of "fstime") t) targets
  in
  let crashes =
    List.filter_map (function Outcome.Crash c -> Some c | _ -> None) outcomes
  in
  check Alcotest.bool "some crashes" true (crashes <> []);
  check Alcotest.bool "invalid opcode among causes" true
    (List.exists (fun c -> c.Outcome.cause = Outcome.Invalid_opcode) crashes)

(* crash latency must be positive and plausible *)
let test_latency_positive () =
  let r = Lazy.force runner in
  let targets = Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:5 [ "do_generic_file_read" ] in
  let outcomes =
    List.map (fun t -> Runner.run_one r ~workload:(Kfi_workload.Progs.index_of "fstime") t)
      (List.filteri (fun i _ -> i mod 8 = 0) targets)
  in
  List.iter
    (function
      | Outcome.Crash c ->
        check Alcotest.bool "latency >= 1" true (c.Outcome.latency >= 1);
        check Alcotest.bool "latency bounded" true (c.Outcome.latency < (Runner.max_cycles r))
      | _ -> ())
    outcomes

let suite =
  [
    Alcotest.test_case "campaign target shapes" `Quick test_campaign_targets_shape;
    Alcotest.test_case "pseudo bit deterministic" `Quick test_pseudo_bit_deterministic;
    Alcotest.test_case "campaign C reverses condition" `Quick test_campaign_c_reverses_condition;
    Alcotest.test_case "not activated" `Slow test_not_activated;
    Alcotest.test_case "golden skip: short budget runs in full" `Slow
      test_skip_needs_whole_golden;
    Alcotest.test_case "golden skip: hardened map" `Slow test_skip_hardened_map;
    Alcotest.test_case "ladder: rerun starts from a rung" `Slow test_ladder_starts_from_rung;
    Alcotest.test_case "ladder: kept on backend switch" `Slow
      test_ladder_kept_on_backend_switch;
    Alcotest.test_case "ladder: budget below a rung" `Slow test_ladder_respects_budget;
    Alcotest.test_case "ladder: unused at Full" `Slow test_ladder_unused_at_full;
    Alcotest.test_case "ladder: one per hardening" `Slow test_ladder_per_hardening;
    Alcotest.test_case "ladder: every rung is the plain run's state" `Slow
      test_rungs_equal_plain_run;
    Alcotest.test_case "rejoin: CI targets equal the interpreter's" `Slow
      test_rejoin_ci_targets;
    Alcotest.test_case "block-cache counters per injection" `Slow test_block_cache_counters;
    Alcotest.test_case "proven hangs: wall time per outcome class" `Slow test_proven_hang_wall;
    Alcotest.test_case "golden reproducible" `Slow test_golden_reproducible;
    Alcotest.test_case "campaign A outcomes (schedule)" `Slow test_campaign_a_schedule_outcomes;
    Alcotest.test_case "campaign C outcomes (fs)" `Slow test_campaign_c_fs_outcomes;
    Alcotest.test_case "crash latency sane" `Slow test_latency_positive;
  ]

(* the Section 7.4 ablation: hardened interfaces must not break golden
   behavior, and should contain at least some errors that crash the
   baseline kernel *)
let test_hardening_ablation () =
  let r = Lazy.force runner in
  let fns = [ "bread"; "iget"; "sys_read"; "sys_write"; "do_generic_file_read" ] in
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:11 fns
    |> List.filteri (fun i _ -> i mod 7 = 0)
  in
  let fstime = Kfi_workload.Progs.index_of "fstime" in
  Runner.set_hardening r false;
  let base = List.map (Runner.run_one r ~workload:fstime) targets in
  Runner.set_hardening r true;
  let hard = List.map (Runner.run_one r ~workload:fstime) targets in
  Runner.set_hardening r false;
  (* The hardening code is itself injectable (more code = more targets),
     so compare only targets activated in BOTH configurations. *)
  let pairs =
    List.combine base hard
    |> List.filter (fun (b, h) -> Outcome.is_activated b && Outcome.is_activated h)
  in
  let crashes f = List.length (List.filter (fun p -> Outcome.is_crash_or_hang (f p)) pairs) in
  check Alcotest.bool "hardening does not increase crashes among shared targets" true
    (crashes snd <= crashes fst + 3);
  (* sanity: the golden run still passes with hardening on *)
  Runner.set_hardening r true;
  Kfi_isa.Machine.restore (Runner.machine r) (Runner.baseline r);
  Kfi_kernel.Build.set_workload (Runner.machine r) fstime;
  Runner.poke_hardening r;
  (match Kfi_isa.Machine.run (Runner.machine r) ~max_cycles:(Runner.max_cycles r) with
   | Kfi_isa.Machine.Powered_off 0 -> ()
   | _ -> Alcotest.fail "hardened kernel broke the golden run");
  Runner.set_hardening r false

let suite = suite @ [ Alcotest.test_case "hardening ablation" `Slow test_hardening_ablation ]

(* campaign R: register corruption triggers and classifies like the rest *)
let test_campaign_r () =
  let r = Lazy.force runner in
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.R ~seed:13 [ "schedule"; "pipe_write" ]
  in
  check Alcotest.bool "R has targets" true (List.length targets > 5);
  List.iter
    (fun (t : Target.t) ->
      check Alcotest.bool "register kind" true (t.Target.t_kind = Target.Register);
      check Alcotest.bool "reg index" true (t.Target.t_byte >= 0 && t.Target.t_byte < 8);
      check Alcotest.bool "bit" true (t.Target.t_bit >= 0 && t.Target.t_bit < 32))
    targets;
  let outcomes =
    List.map
      (fun t -> Runner.run_one r ~workload:(Kfi_workload.Progs.index_of "context1") t)
      (List.filteri (fun i _ -> i mod 4 = 0) targets)
  in
  let activated = List.filter Outcome.is_activated outcomes in
  check Alcotest.bool "some R errors activate" true (activated <> [])

let suite = suite @ [ Alcotest.test_case "campaign R (register corruption)" `Slow test_campaign_r ]

(* The watchdog path: a run whose simulated-cycle budget expires after
   the injection but before the workload completes must classify as
   [Outcome.Hang].  Calibrated against a real run: pick an activated,
   otherwise-harmless target, measure where its injection lands, then
   cut the budget to strand the run between injection and completion. *)
let test_hang_watchdog () =
  let r = Lazy.force runner in
  let saved = Runner.max_cycles r in
  Fun.protect
    ~finally:(fun () -> Runner.set_max_cycles r saved)
    (fun () ->
      let targets =
        Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:7 [ "schedule" ]
      in
      let w = Kfi_workload.Progs.index_of "context1" in
      let cpu = Kfi_isa.Machine.cpu (Runner.machine r) in
      let found =
        List.find_map
          (fun t ->
            match Runner.run_one r ~workload:w t with
            | Outcome.Not_manifested -> (
              match (Runner.last_injected_at r) with
              | Some at ->
                (* cycle offset of the injection within its own run *)
                let start = cpu.Kfi_isa.Cpu.cycles - (Runner.last_cycles r) in
                let off = at - start in
                if (Runner.last_cycles r) - off > 1_000 then Some (t, off)
                else None
              | None -> None)
            | _ -> None)
          targets
      in
      match found with
      | None -> Alcotest.fail "no activated benign target to strand"
      | Some (t, off) ->
        Runner.set_max_cycles r (off + 500);
        (match Runner.run_one r ~workload:w t with
         | Outcome.Hang _ -> ()
         | o -> Alcotest.failf "expected hang, got %s" (Outcome.category o)))

let suite =
  suite @ [ Alcotest.test_case "watchdog classifies a stranded run as hang" `Slow test_hang_watchdog ]
