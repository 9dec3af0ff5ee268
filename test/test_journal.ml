(* Crash-safe campaign tests: the CRC-framed journal (round trip, torn
   tails, fingerprints), the retry/quarantine policy, the fail-stop
   fleet, and the headline robustness property: a campaign killed
   mid-run and resumed from its journal produces records, CSV, JSONL
   and progress ticks identical to an uninterrupted run. *)

open Kfi_injector
module Telemetry = Kfi_trace.Telemetry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let runner = Test_injector.runner
let profile = Test_trace.profile

let tmp_journal () = Filename.temp_file "kfi_journal" ".bin"

let mk_entry ?(fn = "f") ?(addr = 0xC0100000l) ?(byte = 0) ?(bit = 0)
    ?(outcome = Outcome.Not_manifested) () =
  {
    Journal.e_campaign = Target.A;
    e_fn = fn;
    e_addr = addr;
    e_byte = byte;
    e_bit = bit;
    e_workload = 0;
    e_outcome = outcome;
    e_predicted = false;
    e_retries = 0;
    e_cycles = 12345;
  }

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ----- CRC and framing ----- *)

let test_crc32_vectors () =
  (* the IEEE 802.3 check value, as in every CRC-32 reference *)
  check int "check vector" 0xCBF43926 (Journal.crc32 "123456789");
  check int "empty" 0 (Journal.crc32 "");
  check bool "order matters" true (Journal.crc32 "ab" <> Journal.crc32 "ba")

let test_roundtrip_and_fingerprint () =
  let path = tmp_journal () in
  let j = Journal.open_ path in
  Journal.check_fingerprint j ~fingerprint:"fp-1";
  let e1 = mk_entry ~fn:"schedule" ~byte:1 () in
  let e2 = mk_entry ~fn:"iget" ~bit:3 ~outcome:(Outcome.Hang Outcome.Normal) () in
  Journal.append j e1;
  Journal.append j e2;
  check int "appended" 2 (Journal.appended j);
  check int "nothing loaded" 0 (Journal.loaded j);
  Journal.close j;
  (* offline read sees both, in append order *)
  check bool "read_file round trip" true (Journal.read_file path = [ e1; e2 ]);
  (* resume: entries load, the fingerprint is enforced *)
  let j2 = Journal.open_ ~resume:true path in
  check int "loaded" 2 (Journal.loaded j2);
  check bool "no torn tail" false (Journal.torn_tail_truncated j2);
  check bool "find e1" true (Journal.find j2 (Journal.key_of_entry e1) = Some e1);
  check bool "find miss" true
    (Journal.find j2 ("A", "nosuch", 0l, 0, 0) = None);
  Journal.check_fingerprint j2 ~fingerprint:"fp-1";
  (try
     Journal.check_fingerprint j2 ~fingerprint:"fp-2";
     Alcotest.fail "fingerprint mismatch accepted"
   with Invalid_argument _ -> ());
  Journal.close j2;
  (* a fresh (non-resume) open truncates: no history survives *)
  let j3 = Journal.open_ path in
  check int "fresh open loads nothing" 0 (Journal.loaded j3);
  Journal.close j3;
  check int "file truncated" 0 (String.length (read_bytes path));
  Sys.remove path

let test_torn_tail_truncated () =
  let path = tmp_journal () in
  let j = Journal.open_ path in
  Journal.check_fingerprint j ~fingerprint:"fp";
  let e1 = mk_entry ~fn:"a" () and e2 = mk_entry ~fn:"b" () in
  Journal.append j e1;
  Journal.append j e2;
  Journal.close j;
  let intact = read_bytes path in
  (* a SIGKILL mid-write leaves a partial frame: a plausible header whose
     payload never made it to disk *)
  let torn_header = Bytes.create 8 in
  Bytes.set_int32_le torn_header 0 100l;
  Bytes.set_int32_le torn_header 4 0l;
  write_bytes path (intact ^ Bytes.to_string torn_header ^ "partial");
  let j2 = Journal.open_ ~resume:true path in
  check bool "torn tail detected" true (Journal.torn_tail_truncated j2);
  check int "intact entries kept" 2 (Journal.loaded j2);
  (* the tail was truncated: appending continues from the intact frames *)
  let e3 = mk_entry ~fn:"c" () in
  Journal.append j2 e3;
  Journal.close j2;
  check bool "append after truncation" true
    (Journal.read_file path = [ e1; e2; e3 ]);
  (* a CRC flip in the (now) final frame also reads as torn *)
  let bytes = read_bytes path in
  let flipped = Bytes.of_string bytes in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0xFF));
  write_bytes path (Bytes.to_string flipped);
  let j3 = Journal.open_ ~resume:true path in
  check bool "corrupt frame detected" true (Journal.torn_tail_truncated j3);
  check int "loses only the corrupt frame" 2 (Journal.loaded j3);
  Journal.close j3;
  Sys.remove path

(* Walk the journal's framing and return the byte offset just after the
   meta frame plus [k] entry frames — the state a SIGKILL would leave if
   it arrived once entry [k] was durable. *)
let offset_after_frames path k =
  let bytes = read_bytes path in
  let rec go off frames =
    if frames = k + 1 then off
    else
      let len =
        Int32.to_int (String.get_int32_le bytes off) land 0xFFFFFFFF
      in
      go (off + 8 + len) (frames + 1)
  in
  go 0 0

(* A single-frame journal cut or corrupted at *every* byte must never
   confuse resume: the intact prefix survives, the lost tail re-runs, and
   the torn flag fires everywhere except at a frame boundary. *)
let test_torn_every_byte_boundary () =
  let path = tmp_journal () in
  let j = Journal.open_ path in
  Journal.check_fingerprint j ~fingerprint:"fp";
  let e = mk_entry ~fn:"sweep" () in
  Journal.append j e;
  Journal.close j;
  let whole = read_bytes path in
  let meta_end = offset_after_frames path 0 in
  let size = String.length whole in
  for cut = 0 to size do
    write_bytes path (String.sub whole 0 cut);
    (* offline read: the intact prefix only, never an exception *)
    let entries = Journal.read_file path in
    check bool
      (Printf.sprintf "cut %d/%d: entry survives iff its frame is whole" cut size)
      true
      (entries = if cut = size then [ e ] else []);
    let j2 = Journal.open_ ~resume:true path in
    let boundary = cut = 0 || cut = meta_end || cut = size in
    check bool (Printf.sprintf "cut %d/%d: torn iff mid-frame" cut size)
      (not boundary)
      (Journal.torn_tail_truncated j2);
    check int (Printf.sprintf "cut %d/%d: loaded" cut size)
      (if cut = size then 1 else 0)
      (Journal.loaded j2);
    (* the journal stays appendable after truncation at any offset *)
    Journal.append j2 e;
    Journal.close j2;
    check bool (Printf.sprintf "cut %d/%d: append lands" cut size) true
      (List.mem e (Journal.read_file path))
  done;
  (* a flipped bit anywhere in the final frame reads as torn — the CRC
     (or the length sanity check) catches it, and the meta frame before
     it is untouched *)
  for off = meta_end to size - 1 do
    let b = Bytes.of_string whole in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
    write_bytes path (Bytes.to_string b);
    check bool (Printf.sprintf "flip @%d: entry rejected" off) true
      (Journal.read_file path = []);
    let j2 = Journal.open_ ~resume:true path in
    check bool (Printf.sprintf "flip @%d: torn detected" off) true
      (Journal.torn_tail_truncated j2);
    check int (Printf.sprintf "flip @%d: nothing loaded" off) 0
      (Journal.loaded j2);
    Journal.close j2
  done;
  Sys.remove path

(* A torn *tail* is a legitimate SIGKILL artifact; a bad frame in the
   *middle* of a journal — with intact frames after it — is media or
   logic corruption, and silently truncating would drop good entries.
   Both the offline reader and resume must refuse with Journal.Corrupt,
   whichever byte of the middle frame is hit (payload, CRC, or the
   length field that desynchronizes the walk). *)
let test_corrupt_middle_refused () =
  let path = tmp_journal () in
  let j = Journal.open_ path in
  Journal.check_fingerprint j ~fingerprint:"fp";
  let e1 = mk_entry ~fn:"first" () in
  let e2 = mk_entry ~fn:"second" () in
  let e3 = mk_entry ~fn:"third" () in
  List.iter (Journal.append j) [ e1; e2; e3 ];
  Journal.close j;
  let whole = read_bytes path in
  let f1_start = offset_after_frames path 0 in
  let f1_end = offset_after_frames path 1 in
  for off = f1_start to f1_end - 1 do
    let b = Bytes.of_string whole in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
    write_bytes path (Bytes.to_string b);
    (try
       ignore (Journal.read_file path);
       Alcotest.fail (Printf.sprintf "flip @%d: read_file truncated silently" off)
     with Journal.Corrupt _ -> ());
    try
      let j2 = Journal.open_ ~resume:true path in
      Journal.close j2;
      Alcotest.fail (Printf.sprintf "flip @%d: resume truncated silently" off)
    with Journal.Corrupt _ -> ()
  done;
  (* the same flips in the *final* frame stay plain torn tails *)
  let f3_start = offset_after_frames path 2 in
  let b = Bytes.of_string whole in
  Bytes.set b f3_start (Char.chr (Char.code (Bytes.get b f3_start) lxor 0x01));
  write_bytes path (Bytes.to_string b);
  check bool "final-frame flip still reads" true
    (Journal.read_file path = [ e1; e2 ]);
  let j3 = Journal.open_ ~resume:true path in
  check bool "final-frame flip is a torn tail" true
    (Journal.torn_tail_truncated j3);
  check int "intact prefix survives" 2 (Journal.loaded j3);
  Journal.close j3;
  Sys.remove path

(* ----- harness-abort surfacing (synthetic records) ----- *)

let test_abort_surfaces () =
  let abort =
    Outcome.Harness_abort { ha_reason = "deadline exceeded"; ha_retries = 2 }
  in
  check bool "not counted as activated" false (Outcome.is_activated abort);
  check bool "not a crash" false (Outcome.is_crash_or_hang abort);
  check string "category" "harness abort" (Outcome.category abort);
  let records =
    [
      {
        Experiment.r_campaign = Target.A;
        r_target =
          {
            Target.t_fn = "schedule";
            t_subsys = "kernel";
            t_addr = 0xC0100000l;
            t_len = 2;
            t_insn = Kfi_isa.Insn.Nop;
            t_kind = Target.Text;
            t_byte = 0;
            t_bit = 0;
          };
        r_workload = 0;
        r_outcome = abort;
        r_predicted = false;
        r_retries = 2;
      };
    ]
  in
  let csv = Experiment.to_csv records in
  check bool "csv row" true (Test_analysis.contains csv "harness_abort");
  check bool "csv reason" true (Test_analysis.contains csv "deadline exceeded");
  let fig4 = Kfi_analysis.Report.fig4 records in
  check bool "report surfaces quarantine" true
    (Test_analysis.contains fig4 "Harness abort")

(* ----- retry / quarantine policy ----- *)

let first_real_item () =
  let r = Lazy.force runner in
  let t =
    List.hd
      (Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:1 [ "schedule" ])
  in
  { Fleet.it_target = t; it_workload = 0; it_predicted = None; it_done = None }

let test_retry_recovers_transient () =
  let r = Lazy.force runner in
  let it = first_real_item () in
  let clean = Fleet.run_item_safe r it in
  (* fail the first attempt only: the retry must land the real outcome *)
  let policy =
    {
      Fleet.default_policy with
      Fleet.backoff_ms = 1.;
      chaos =
        Some
          (fun ~attempt _ ->
            if attempt = 0 then Some (Fleet.Chaos_raise "transient fault")
            else None);
    }
  in
  let res = Fleet.run_item_safe ~policy r it in
  check bool "outcome identical to clean run" true
    (res.Fleet.res_outcome = clean.Fleet.res_outcome);
  check int "one retry consumed" 1 res.Fleet.res_retries;
  check bool "the retry reused the given runner" true
    (Fleet.ran_on_given_runner res)

let test_quarantine_after_retries () =
  let r = Lazy.force runner in
  let it = first_real_item () in
  let policy =
    {
      Fleet.default_policy with
      Fleet.retries = 1;
      backoff_ms = 1.;
      chaos = Some (fun ~attempt:_ _ -> Some (Fleet.Chaos_raise "flaky runner"));
    }
  in
  match (Fleet.run_item_safe ~policy r it).Fleet.res_outcome with
  | Outcome.Harness_abort a ->
    check string "last failure reason" "flaky runner" a.Outcome.ha_reason;
    check int "retry budget consumed" 1 a.Outcome.ha_retries
  | o -> Alcotest.failf "expected quarantine, got %s" (Outcome.category o)

let test_deadline_quarantines_wedge () =
  let r = Lazy.force runner in
  let it = first_real_item () in
  (* the worker wedges past the wall-clock budget on every attempt *)
  let policy =
    {
      Fleet.default_policy with
      Fleet.deadline_ms = Some 5;
      retries = 0;
      backoff_ms = 1.;
      chaos = Some (fun ~attempt:_ _ -> Some (Fleet.Chaos_wedge_ms 40));
    }
  in
  match (Fleet.run_item_safe ~policy r it).Fleet.res_outcome with
  | Outcome.Harness_abort a ->
    check string "reason" "deadline exceeded" a.Outcome.ha_reason
  | o -> Alcotest.failf "expected quarantine, got %s" (Outcome.category o)

(* ----- campaign-level kill/resume determinism ----- *)

(* smaller than test_parallel's subsample so the three journal legs stay
   affordable; still >40 targets *)
let subsample = 240

let run_a ?journal ?policy ?(jobs = 1) () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let buf = Buffer.create 4096 in
  let tm =
    Telemetry.create
      ~sink:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      ()
  in
  let ticks = ref [] in
  let config =
    Config.make ~subsample ~telemetry:tm
      ~on_progress:(fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
      ~jobs ?journal ?policy ()
  in
  let records = Experiment.run_campaign ~config r p Target.A in
  (records, Buffer.contents buf, List.rev !ticks)

let test_kill_resume_determinism () =
  let base_records, base_jsonl, base_ticks = run_a () in
  check bool "ran something" true (List.length base_records > 40);
  let total = List.length base_records in
  let path = tmp_journal () in
  (* leg 1: a fresh journaled run changes nothing observable *)
  let j = Journal.open_ path in
  let r1, jsonl1, ticks1 = run_a ~journal:j () in
  check bool "journal off = journal on (records)" true (base_records = r1);
  check bool "journal off = journal on (JSONL)" true
    (String.equal base_jsonl jsonl1);
  check (Alcotest.list (Alcotest.pair int int)) "journal off = on (ticks)"
    base_ticks ticks1;
  check int "every run journaled" total (Journal.appended j);
  Journal.close j;
  (* leg 2: simulate a SIGKILL mid-campaign — keep the meta frame plus
     half the entries, with a torn frame where the kill interrupted a
     write — then resume *)
  let k = total / 2 in
  let cut = offset_after_frames path k in
  write_bytes path (String.sub (read_bytes path) 0 cut ^ "\x40\x00\x00\x00torn");
  let j2 = Journal.open_ ~resume:true path in
  check bool "torn tail truncated on resume" true (Journal.torn_tail_truncated j2);
  check int "completed entries survive the kill" k (Journal.loaded j2);
  let r2, jsonl2, ticks2 = run_a ~journal:j2 () in
  check bool "resumed records identical" true (base_records = r2);
  check bool "resumed CSV identical" true
    (String.equal (Experiment.to_csv base_records) (Experiment.to_csv r2));
  check bool "resumed JSONL identical" true
    (String.equal base_jsonl jsonl2);
  check (Alcotest.list (Alcotest.pair int int)) "resumed ticks identical"
    base_ticks ticks2;
  check int "only the lost half re-ran" (total - k) (Journal.appended j2);
  Journal.close j2;
  (* leg 3: resuming a *complete* journal re-runs nothing, on a fleet —
     and still emits every tick including the final 100% one *)
  let j3 = Journal.open_ ~resume:true path in
  check int "complete journal" total (Journal.loaded j3);
  let r3, jsonl3, ticks3 = run_a ~journal:j3 ~jobs:2 () in
  check bool "replayed records identical" true (base_records = r3);
  check bool "replayed JSONL identical" true
    (String.equal base_jsonl jsonl3);
  check (Alcotest.list (Alcotest.pair int int)) "replayed ticks identical"
    base_ticks ticks3;
  check int "nothing re-ran" 0 (Journal.appended j3);
  check bool "final 100% tick present" true
    (List.mem (total, total) ticks3);
  Journal.close j3;
  Sys.remove path

(* ----- the fail-stop fleet ----- *)

(* A worker whose journal append fails stops the whole run: the
   exception reaches the caller once every domain is joined, nothing is
   requeued, and the pool stays usable — a second run over the same
   items gives the serial results. *)
let test_fleet_stops_on_worker_failure () =
  let r = Lazy.force runner in
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:1 [ "schedule" ]
  in
  let items =
    Array.init 12 (fun i ->
        {
          Fleet.it_target = List.nth targets i;
          it_workload = 0;
          it_predicted =
            (if i mod 4 = 0 then None else Some Outcome.Not_manifested);
          it_done = None;
        })
  in
  let pool = Fleet.create ~jobs:2 r in
  let calls = Atomic.make 0 and completed = Atomic.make 0 in
  let on_complete _ _ _ =
    if Atomic.fetch_and_add calls 1 = 4 then failwith "journal: disk full";
    Atomic.incr completed
  in
  Alcotest.check_raises "the worker's exception reaches the caller"
    (Failure "journal: disk full") (fun () ->
      ignore (Fleet.run ~on_complete pool items));
  check bool "the run stopped early" true
    (Atomic.get completed < Array.length items);
  check bool "same pool, second run = serial results" true
    (Fleet.run pool items = Array.map (Fleet.run_item_safe r) items)

(* ----- harness abort, end to end -----

   Force one real target into quarantine and follow the abort through
   every surface a consumer reads: the record list, the CSV row, the
   per-target and aggregate JSONL telemetry, and the full paper report. *)
let test_abort_end_to_end () =
  let victim = Atomic.make None in
  let policy =
    {
      Fleet.default_policy with
      Fleet.retries = 1;
      backoff_ms = 1.;
      chaos =
        Some
          (fun ~attempt:_ t ->
            (* latch the first target actually run, then fail its every
               attempt; all other targets run clean *)
            (match Atomic.get victim with
             | None -> ignore (Atomic.compare_and_set victim None (Some t))
             | Some _ -> ());
            if Atomic.get victim = Some t then
              Some (Fleet.Chaos_raise "forced quarantine")
            else None);
    }
  in
  let records, jsonl, _ = run_a ~policy () in
  let aborted =
    List.filter
      (fun r ->
        match r.Experiment.r_outcome with
        | Outcome.Harness_abort _ -> true
        | _ -> false)
      records
  in
  check int "exactly one target quarantined" 1 (List.length aborted);
  let r = List.hd aborted in
  (match r.Experiment.r_outcome with
   | Outcome.Harness_abort a ->
     check string "reason carried" "forced quarantine" a.Outcome.ha_reason;
     check int "retry budget recorded" 1 a.Outcome.ha_retries
   | _ -> assert false);
  (* CSV: one ordinary row, outcome column + reason column *)
  let csv = Experiment.to_csv records in
  check bool "csv outcome column" true (Test_analysis.contains csv "harness_abort");
  check bool "csv reason column" true
    (Test_analysis.contains csv "forced quarantine");
  check bool "csv names the target" true
    (Test_analysis.contains csv r.Experiment.r_target.Target.t_fn);
  (* JSONL: the per-target event and the campaign_end aggregate *)
  check bool "jsonl per-target outcome" true
    (Test_analysis.contains jsonl "harness abort");
  check bool "jsonl campaign aggregate" true
    (Test_analysis.contains jsonl "\"aborted\":1");
  (* the full paper report surfaces the quarantine count *)
  let rn = Lazy.force runner and p = Lazy.force profile in
  let core = Kfi_profiler.Sampler.top_functions p ~coverage:0.95 in
  let report =
    Kfi_analysis.Report.full ~build:(Runner.build rn) ~profile:p ~core records
  in
  check bool "report counts the abort" true
    (Test_analysis.contains report
       "Harness aborts: 1 target(s) quarantined after retries")

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "journal round trip + fingerprint" `Quick
      test_roundtrip_and_fingerprint;
    Alcotest.test_case "torn tail truncated" `Quick test_torn_tail_truncated;
    Alcotest.test_case "mid-file corruption refused (Corrupt)" `Quick
      test_corrupt_middle_refused;
    Alcotest.test_case "torn/corrupt at every byte of a frame" `Quick
      test_torn_every_byte_boundary;
    Alcotest.test_case "harness abort surfaces" `Quick test_abort_surfaces;
    Alcotest.test_case "harness abort end-to-end (CSV, JSONL, report)" `Slow
      test_abort_end_to_end;
    Alcotest.test_case "retry recovers a transient fault" `Slow
      test_retry_recovers_transient;
    Alcotest.test_case "quarantine after retry budget" `Slow
      test_quarantine_after_retries;
    Alcotest.test_case "deadline quarantines a wedged worker" `Slow
      test_deadline_quarantines_wedge;
    Alcotest.test_case "kill/resume determinism (records, CSV, JSONL, ticks)"
      `Slow test_kill_resume_determinism;
    Alcotest.test_case "fleet stops on a worker failure" `Slow
      test_fleet_stops_on_worker_failure;
  ]
