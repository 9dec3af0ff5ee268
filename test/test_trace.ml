(* Flight-recorder tests: the ring buffer itself, snapshot/restore
   round-trips through Machine, per-injection trace isolation, the
   forensics (symbolization, oops dump, propagation paths) and the
   telemetry JSONL emitter + schema lint. *)

open Kfi_isa
open Kfi_injector
module Trace = Kfi_isa.Trace
module Forensics = Kfi_trace.Forensics
module Telemetry = Kfi_trace.Telemetry
module Profiler = Kfi_profiler.Sampler

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* share the booted runner (and a profile) with the injector tests *)
let runner = Test_injector.runner

let profile =
  lazy
    (let r = Lazy.force runner in
     Profiler.profile_all ~build:(Runner.build r) ~machine:(Runner.machine r)
       ~baseline:(Runner.baseline r) ())

(* ----- the ring buffer ----- *)

let test_ring_basics () =
  let t = Trace.create ~capacity:4 ~ev_capacity:2 () in
  check bool "off by default" false (Trace.enabled t);
  Trace.set_level t Trace.Ring;
  check bool "enabled" true (Trace.enabled t);
  for i = 0 to 9 do
    Trace.record t ~cycle:i ~eip:(Int32.of_int (0x1000 + i)) ~op:i ~user:false
      ~mem:(if i mod 2 = 0 then 0x2000 + i else -1)
  done;
  check int "length capped" 4 (Trace.length t);
  check int "seen counts all" 10 (Trace.seen t);
  let es = Trace.entries t in
  check int "oldest retained is cycle 6" 6 (List.hd es).Trace.en_cycle;
  check int "newest is cycle 9" 9 (List.nth es 3).Trace.en_cycle;
  (* op byte and memory operand round-trip *)
  check int "op" 6 (List.hd es).Trace.en_op;
  check bool "mem some" true ((List.hd es).Trace.en_mem = Some 0x2006);
  check bool "mem none" true ((List.nth es 1).Trace.en_mem = None);
  Trace.clear t;
  check int "clear empties" 0 (Trace.length t);
  check int "clear resets seen" 0 (Trace.seen t)

let test_ring_op_encoding () =
  let t = Trace.create ~capacity:8 () in
  Trace.set_level t Trace.Ring;
  (* -1 (unreadable) and 0xFF must stay distinct, user flag independent *)
  Trace.record t ~cycle:0 ~eip:0l ~op:(-1) ~user:false ~mem:(-1);
  Trace.record t ~cycle:1 ~eip:0l ~op:0xFF ~user:true ~mem:(-1);
  Trace.record t ~cycle:2 ~eip:0l ~op:0 ~user:true ~mem:(-1);
  let es = Trace.entries t in
  check int "op -1" (-1) (List.nth es 0).Trace.en_op;
  check bool "kernel" false (List.nth es 0).Trace.en_user;
  check int "op 0xFF" 0xFF (List.nth es 1).Trace.en_op;
  check bool "user" true (List.nth es 1).Trace.en_user;
  check int "op 0" 0 (List.nth es 2).Trace.en_op

let test_ring_events_level () =
  let t = Trace.create () in
  Trace.set_level t Trace.Ring;
  Trace.record_event t ~cycle:1 ~kind:Trace.ev_trap ~a:14 ~b:0;
  check int "no events at Ring" 0 (List.length (Trace.events t));
  Trace.set_level t Trace.Full;
  Trace.record_event t ~cycle:2 ~kind:Trace.ev_trap ~a:14 ~b:0;
  Trace.record_event t ~cycle:3 ~kind:Trace.ev_cr3 ~a:0x1000 ~b:0;
  let evs = Trace.events t in
  check int "two events at Full" 2 (List.length evs);
  check int "kind" Trace.ev_trap (List.hd evs).Trace.ev_kind;
  check string "kind name" "cr3 load" (Trace.event_kind_name Trace.ev_cr3)

let test_ring_snapshot_restore () =
  let t = Trace.create ~capacity:8 () in
  Trace.set_level t Trace.Full;
  for i = 0 to 4 do
    Trace.record t ~cycle:i ~eip:(Int32.of_int i) ~op:i ~user:false ~mem:(-1)
  done;
  Trace.record_event t ~cycle:4 ~kind:Trace.ev_trap ~a:6 ~b:0;
  let snap = Trace.snapshot t in
  let entries0 = Trace.entries t and events0 = Trace.events t in
  for i = 5 to 20 do
    Trace.record t ~cycle:i ~eip:(Int32.of_int i) ~op:i ~user:true ~mem:i
  done;
  Trace.set_level t Trace.Off;
  Trace.restore t snap;
  check bool "level restored" true (Trace.level t = Trace.Full);
  check bool "entries restored" true (Trace.entries t = entries0);
  check bool "events restored" true (Trace.events t = events0);
  check int "seen restored" 5 (Trace.seen t)

(* A wrapped ring survives the packed snapshot: cycle stamps that span
   more than 2^32 cycles, memory operands up to 0xffffffff, user and
   kernel entries.  [set_seen] then recounts the records and keeps the
   retained entries. *)
let test_ring_packed_snapshot_and_set_seen () =
  let t = Trace.create ~capacity:8 () in
  Trace.set_level t Trace.Ring;
  for i = 0 to 11 do
    Trace.record t ~cycle:(i * 0x4000_0000) ~eip:(Int32.of_int (0xc0100000 + i)) ~op:(i * 20)
      ~user:(i mod 2 = 0) ~mem:(if i mod 3 = 0 then -1 else 0xFFFFFFFF - i)
  done;
  let snap = Trace.snapshot t in
  let entries0 = Trace.entries t in
  Trace.clear t;
  Trace.restore t snap;
  check bool "entries restored" true (Trace.entries t = entries0);
  check int "seen restored" 12 (Trace.seen t);
  Trace.set_seen t 1000;
  check int "recounted" 1000 (Trace.seen t);
  check bool "same entries" true (Trace.entries t = entries0);
  check bool "fewer than the retained entries" true
    (match Trace.set_seen t 7 with exception Invalid_argument _ -> true | () -> false)

(* ----- machine snapshot/restore with a live trace ----- *)

let test_machine_snapshot_roundtrip () =
  let r = Lazy.force runner in
  let m = (Runner.machine r) in
  Machine.restore_checkpoint m ~base:(Runner.baseline r) (Runner.start r 0);
  let cpu = Machine.cpu m in
  Trace.set_level cpu.Cpu.trace Trace.Ring;
  Trace.clear cpu.Cpu.trace;
  for _ = 1 to 500 do
    Cpu.step cpu
  done;
  let snap = Machine.snapshot m in
  let eip0 = cpu.Cpu.eip and cycles0 = cpu.Cpu.cycles in
  let regs0 = Array.copy cpu.Cpu.regs in
  let entries0 = Trace.entries cpu.Cpu.trace in
  (* diverge, then restore: full state including the trace must return *)
  for _ = 1 to 500 do
    Cpu.step cpu
  done;
  Machine.restore m snap;
  check bool "eip restored" true (cpu.Cpu.eip = eip0);
  check int "cycles restored" cycles0 cpu.Cpu.cycles;
  check bool "regs restored" true (cpu.Cpu.regs = regs0);
  check bool "trace restored" true (Trace.entries cpu.Cpu.trace = entries0);
  (* determinism: re-running from the snapshot records identical entries *)
  for _ = 1 to 200 do
    Cpu.step cpu
  done;
  let after1 = Trace.entries cpu.Cpu.trace in
  Machine.restore m snap;
  for _ = 1 to 200 do
    Cpu.step cpu
  done;
  check bool "trace deterministic after restore" true
    (Trace.entries cpu.Cpu.trace = after1)

(* ----- per-injection isolation ----- *)

let crashing_clear_page_run r =
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:42 [ "clear_page" ]
  in
  let spawn = Kfi_workload.Progs.index_of "spawn" in
  let rec first = function
    | [] -> Alcotest.fail "no clear_page injection crashed"
    | t :: tl -> (
      match Runner.run_one r ~workload:spawn t with
      | Outcome.Crash c -> (t, c)
      | _ -> first tl)
  in
  first targets

let test_trace_isolation () =
  let r = Lazy.force runner in
  let target, c1 = crashing_clear_page_run r in
  let cpu = Machine.cpu (Runner.machine r) in
  let seen1 = Trace.seen cpu.Cpu.trace in
  let entries1 = Trace.entries cpu.Cpu.trace in
  check bool "trace non-empty after crash" true (seen1 > 0);
  (* the same injection again: identical trace, nothing leaks across *)
  let spawn = Kfi_workload.Progs.index_of "spawn" in
  (match Runner.run_one r ~workload:spawn target with
   | Outcome.Crash c2 ->
     check bool "same propagation" true
       (c1.Outcome.propagation = c2.Outcome.propagation);
     check int "same latency" c1.Outcome.latency c2.Outcome.latency
   | o -> Alcotest.fail ("re-run did not crash: " ^ Outcome.category o));
  check int "same instruction count" seen1 (Trace.seen cpu.Cpu.trace);
  check bool "same entries" true (Trace.entries cpu.Cpu.trace = entries1);
  (* a never-reached target resolves from the golden touch maps without
     running: nothing of the crash's trace may survive it *)
  let quiet =
    Target.enumerate (Runner.build r) ~campaign:Target.C ~seed:1 [ "sys_pipe" ]
    |> List.hd
  in
  let hanoi = Kfi_workload.Progs.index_of "hanoi" in
  (match Runner.run_one r ~workload:hanoi quiet with
   | Outcome.Not_activated -> ()
   | o -> Alcotest.fail ("expected not activated, got " ^ Outcome.category o));
  check int "trace ring cleared" 0 (Trace.seen cpu.Cpu.trace)

(* ----- forensics ----- *)

let test_symbolize () =
  let r = Lazy.force runner in
  let build = (Runner.build r) in
  let f = List.hd build.Kfi_kernel.Build.funcs in
  let base =
    Int32.of_int
      (Kfi_kernel.Layout.kernel_text_base + f.Kfi_asm.Assembler.f_off)
  in
  check string "entry symbol"
    (Printf.sprintf "%s+0x0/0x%x" f.Kfi_asm.Assembler.f_name
       f.Kfi_asm.Assembler.f_size)
    (Forensics.symbolize build base);
  (match Forensics.location build base with
   | Some (fn, subsys) ->
     check string "location fn" f.Kfi_asm.Assembler.f_name fn;
     check string "location subsys" f.Kfi_asm.Assembler.f_subsys subsys
   | None -> Alcotest.fail "entry address did not symbolize");
  check string "data address raw" "0x00001000"
    (Forensics.symbolize build 0x1000l)

let test_crash_propagation_and_oops () =
  let r = Lazy.force runner in
  let target, c = crashing_clear_page_run r in
  (* the path must start at the corruption site and have >= 2 hops *)
  check bool "path has >= 2 hops" true (List.length c.Outcome.propagation >= 2);
  check string "path starts at injection site" target.Target.t_fn
    (fst (List.hd c.Outcome.propagation));
  (match c.Outcome.crash_fn with
   | Some cfn ->
     check string "path ends at crash site" cfn
       (fst (List.nth c.Outcome.propagation (List.length c.Outcome.propagation - 1)))
   | None -> ());
  let build = (Runner.build r) in
  let machine = (Runner.machine r) in
  let dump = Kfi_kernel.Build.read_dump machine in
  let oops =
    Forensics.oops ?dump ?injected_at:(Runner.last_injected_at r)
      ~inject_desc:"test injection" build machine
  in
  List.iter
    (fun part -> check bool ("oops has " ^ part) true (contains oops part))
    [
      "EIP:"; "eax:"; "esi:"; "cr2:"; "Call Trace:"; "\nCode:\n  "; "  --> ";
      "\nTasks:\n  pid  state"; "Instruction trace"; "Propagation"; "test injection";
    ];
  (* the backtrace walks frames, newest first, all in kernel text *)
  let bt = Forensics.backtrace build machine in
  check bool "backtrace beyond the eip" true (List.length bt > 1);
  List.iter
    (fun (f : Forensics.frame) ->
      let a = Int32.to_int f.Forensics.fr_eip land 0xFFFFFFFF in
      check bool "frame in text" true
        (a >= Kfi_kernel.Layout.kernel_text_base
        && a < Kfi_kernel.Layout.kernel_text_base + build.Kfi_kernel.Build.text_size))
    bt

(* ----- telemetry: JSON emitter, parser, lint ----- *)

let test_json_roundtrip () =
  let v =
    Telemetry.Obj
      [
        ("s", Telemetry.Str "line1\nline2 \"quoted\" \\ tab\t");
        ("i", Telemetry.Int (-42));
        ("f", Telemetry.Float 1.5);
        ("b", Telemetry.Bool true);
        ("n", Telemetry.Null);
        ("l", Telemetry.List [ Telemetry.Int 1; Telemetry.Str "x" ]);
      ]
  in
  let s = Telemetry.to_string v in
  check bool "one line" true (not (String.contains s '\n'));
  check bool "round trip" true (Telemetry.parse s = v);
  (* parser strictness *)
  let fails str =
    match Telemetry.parse str with
    | exception Telemetry.Parse_error _ -> true
    | _ -> false
  in
  check bool "trailing garbage" true (fails "{}x");
  check bool "bad literal" true (fails "treu");
  check bool "unterminated string" true (fails "\"abc");
  check bool "raw control char" true (fails "\"a\nb\"")

let test_jsonl_lint () =
  let ok_doc =
    String.concat "\n"
      [
        {|{"type":"campaign_start","seq":0,"campaign":"A","targets":2,"subsample":1,"seed":42}|};
        {|{"type":"target","seq":1,"campaign":"A","fn":"f","subsys":"mm","addr":"0xc0100000","byte":0,"bit":3,"workload":"spawn","outcome":"crash (dumped)","predicted":false,"retries":0,"cycles":1000}|};
        {|{"type":"campaign_end","seq":2,"campaign":"A","targets":2,"run":2,"pruned":0,"activated":1,"aborted":0}|};
        "";
      ]
  in
  (match Telemetry.lint ok_doc with
   | Ok n -> check int "three events" 3 n
   | Error (l, e) -> Alcotest.fail (Printf.sprintf "lint failed at %d: %s" l e));
  (* a missing required key is pinned to its line *)
  let bad =
    {|{"type":"campaign_start","seq":0,"campaign":"A","targets":2,"subsample":1,"seed":42}|}
    ^ "\n" ^ {|{"type":"target","seq":1,"campaign":"A"}|}
  in
  (match Telemetry.lint bad with
   | Error (2, msg) -> check bool "names the key" true (contains msg "fn")
   | Error (l, _) -> Alcotest.fail (Printf.sprintf "wrong line %d" l)
   | Ok _ -> Alcotest.fail "accepted a bad event");
  (match Telemetry.lint "not json" with
   | Error (1, _) -> ()
   | _ -> Alcotest.fail "accepted invalid JSON");
  (match Telemetry.lint {|{"type":"bogus","seq":0}|} with
   | Error (1, msg) -> check bool "unknown type" true (contains msg "bogus")
   | _ -> Alcotest.fail "accepted unknown event type")

(* ----- CSV escaping ----- *)

let test_csv_escaping () =
  check string "plain passes through" "abc" (Experiment.csv_field "abc");
  check string "comma quoted" "\"a,b\"" (Experiment.csv_field "a,b");
  check string "quote doubled" "\"say \"\"hi\"\"\"" (Experiment.csv_field "say \"hi\"");
  check string "newline quoted" "\"a\nb\"" (Experiment.csv_field "a\nb");
  (* RFC 4180 corners that once had no coverage: a bare CR must be
     quoted like LF (Excel and csv readers split rows on either),
     a lone quote doubles even with no other special byte, and
     multi-byte UTF-8 passes through untouched *)
  check string "carriage return quoted" "\"a\rb\"" (Experiment.csv_field "a\rb");
  check string "crlf quoted" "\"a\r\nb\"" (Experiment.csv_field "a\r\nb");
  check string "lone quote doubled and wrapped" "\"\"\"\""
    (Experiment.csv_field "\"");
  check string "leading quote" "\"\"\"x\"" (Experiment.csv_field "\"x");
  check string "utf-8 passes through unquoted" "caf\xC3\xA9"
    (Experiment.csv_field "caf\xC3\xA9");
  check string "utf-8 with comma still one field" "\"caf\xC3\xA9, bar\""
    (Experiment.csv_field "caf\xC3\xA9, bar");
  check string "empty field unquoted" "" (Experiment.csv_field "");
  (* a record whose FSV reason holds a comma must stay one CSV row *)
  let t =
    {
      Target.t_fn = "f";
      t_subsys = "fs";
      t_addr = 0xC0100000l;
      t_len = 2;
      t_insn = Kfi_isa.Insn.Nop;
      t_kind = Target.Text;
      t_byte = 0;
      t_bit = 0;
    }
  in
  let r =
    {
      Experiment.r_campaign = Target.A;
      r_target = t;
      r_workload = 0;
      r_outcome = Outcome.Fail_silence_violation ("bad, output", Outcome.Normal);
      r_predicted = false;
      r_retries = 0;
    }
  in
  let csv = Experiment.to_csv [ r ] in
  check bool "reason quoted" true (contains csv "\"bad, output\"");
  check int "exactly header + one row" 2
    (List.length
       (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' csv)))

(* ----- campaign-level: progress ticks and live telemetry ----- *)

let test_campaign_progress_and_telemetry () =
  let r = Lazy.force runner in
  let profile = Lazy.force profile in
  let ticks = ref [] in
  let buf = Buffer.create 4096 in
  let tm =
    Telemetry.create
      ~sink:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      ()
  in
  let records =
    Experiment.run_campaign
      ~config:
        (Config.make ~subsample:60 ~telemetry:tm
           ~on_progress:(fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
           ())
      r profile Target.A
  in
  let n = List.length records in
  check bool "ran something" true (n > 0);
  (* progress: starts at 0, ends with the completion tick done_=total *)
  let ticks = List.rev !ticks in
  check bool "first tick at 0" true (fst (List.hd ticks) = 0);
  let last = List.nth ticks (List.length ticks - 1) in
  check int "final tick done_=total" (snd last) (fst last);
  check int "one tick per target plus final" (n + 1) (List.length ticks);
  (* telemetry: one event per target plus campaign start/end, lint-clean *)
  (match Telemetry.lint (Buffer.contents buf) with
   | Ok events -> check int "events = targets + 2" (n + 2) events
   | Error (l, e) ->
     Alcotest.fail (Printf.sprintf "campaign telemetry lint: line %d: %s" l e));
  let s = Telemetry.summary tm in
  check int "summary targets" n s.Telemetry.s_targets;
  check int "summary run (nothing pruned)" n s.Telemetry.s_run;
  (* the summary's cycle total is exactly the sum of the per-target events *)
  let event_cycles =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter_map (fun l ->
           match Telemetry.parse l with
           | Telemetry.Obj fs when List.mem ("type", Telemetry.Str "target") fs -> (
             match List.assoc "cycles" fs with Telemetry.Int c -> Some c | _ -> None)
           | _ | (exception Telemetry.Parse_error _) -> None)
  in
  check int "one cycles field per target" n (List.length event_cycles);
  check bool "cycles counted" true (s.Telemetry.s_sim_cycles > 0);
  check int "summary cycles = sum of event cycles"
    (List.fold_left ( + ) 0 event_cycles) s.Telemetry.s_sim_cycles;
  (* and the rendered report section *)
  let txt = Kfi_analysis.Report.telemetry_summary tm in
  check bool "summary renders" true (contains txt "activation rate")

let suite =
  [
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    Alcotest.test_case "ring op encoding" `Quick test_ring_op_encoding;
    Alcotest.test_case "ring events by level" `Quick test_ring_events_level;
    Alcotest.test_case "ring snapshot/restore" `Quick test_ring_snapshot_restore;
    Alcotest.test_case "ring packed snapshot, set_seen" `Quick
      test_ring_packed_snapshot_and_set_seen;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl schema lint" `Quick test_jsonl_lint;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "machine snapshot round trip" `Slow test_machine_snapshot_roundtrip;
    Alcotest.test_case "trace isolation" `Slow test_trace_isolation;
    Alcotest.test_case "symbolize" `Slow test_symbolize;
    Alcotest.test_case "crash propagation + oops" `Slow test_crash_propagation_and_oops;
    Alcotest.test_case "campaign progress + telemetry" `Slow
      test_campaign_progress_and_telemetry;
  ]
