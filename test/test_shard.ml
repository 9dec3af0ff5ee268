(* Process-isolated campaign shard tests: the wire protocol's framing
   and incremental decoder, the shard split, the restart backoff
   arithmetic, and the supervisor end to end — poison shards quarantined
   without stalling, wedged workers heartbeat-killed, a campaign that
   keeps losing its workers to SIGKILL still producing records identical
   to a serial in-process run, and the campaign journal written while
   the workers run, so a killed coordinator resumes from it. *)

open Kfi_injector
module Proto = Kfi_shard.Proto
module Plan = Kfi_shard.Plan
module Supervisor = Kfi_shard.Supervisor

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let runner = Test_injector.runner
let profile = Test_trace.profile

(* matches test_journal's scale: >40 campaign-A targets, affordable *)
let subsample = 240

let tmp_dir ?(prefix = "kfi_shard") () =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let mk_entry ?(fn = "f") ?(byte = 0) ?(bit = 0) () =
  {
    Journal.e_campaign = Target.A;
    e_fn = fn;
    e_addr = 0xC0100000l;
    e_byte = byte;
    e_bit = bit;
    e_workload = 1;
    e_outcome = Outcome.Not_manifested;
    e_predicted = false;
    e_retries = 0;
    e_cycles = 99;
  }

(* ----- the wire protocol ----- *)

(* Frame messages through a real pipe, then feed the coordinator-side
   decoder in awkward chunk sizes: every frame must come back intact,
   in order, regardless of how the bytes arrive. *)
let test_proto_roundtrip () =
  let msgs =
    [
      Proto.Ready 4242;
      Proto.Claimed 3;
      Proto.Entry
        {
          en_entry = mk_entry ~fn:"schedule" ~byte:2 ~bit:5 ();
          en_metrics =
            (let m = Kfi_obs.Metrics.create () in
             Kfi_obs.Metrics.incr m "inj.count";
             Kfi_obs.Metrics.observe m "inj.wall" 2.0;
             Kfi_obs.Metrics.snapshot m);
        };
      Proto.Done 3;
    ]
  in
  let r, w = Unix.pipe () in
  List.iter (Proto.send_from_worker w) msgs;
  Unix.close w;
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read r b 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf b 0 n;
      slurp ()
  in
  slurp ();
  Unix.close r;
  let stream = Buffer.to_bytes buf in
  List.iter
    (fun chunk ->
      let dec = Proto.Dec.create () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < Bytes.length stream do
        let n = min chunk (Bytes.length stream - !pos) in
        Proto.Dec.feed dec (Bytes.sub stream !pos n) n;
        pos := !pos + n;
        let rec drain () =
          match Proto.Dec.next dec with
          | Ok (Some m) ->
            got := m :: !got;
            drain ()
          | Ok None -> ()
          | Error e -> Alcotest.fail ("decoder error: " ^ e)
        in
        drain ()
      done;
      check bool
        (Printf.sprintf "all frames decoded (chunk %d)" chunk)
        true
        (List.rev !got = msgs))
    [ 1; 3; 7; Bytes.length stream ]

let test_proto_corrupt_frame () =
  let r, w = Unix.pipe () in
  Proto.send_from_worker w (Proto.Claimed 7);
  Unix.close w;
  let b = Bytes.create 4096 in
  let n = Unix.read r b 0 4096 in
  Unix.close r;
  (* flip a payload byte: the CRC must catch it *)
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0x01));
  let dec = Proto.Dec.create () in
  Proto.Dec.feed dec b n;
  (match Proto.Dec.next dec with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "corrupt frame decoded");
  (* an absurd length is rejected before any allocation *)
  let huge = Bytes.create 8 in
  Bytes.set_int32_le huge 0 0x7FFFFFFFl;
  Bytes.set_int32_le huge 4 0l;
  let dec2 = Proto.Dec.create () in
  Proto.Dec.feed dec2 huge 8;
  match Proto.Dec.next dec2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* ----- the shard split ----- *)

let fake_targets n =
  (* enumeration over a real function keeps Target.t honest *)
  let b = Lazy.force Test_injector.build in
  let all = Target.enumerate b ~campaign:Target.A ~seed:1 [ "schedule" ] in
  List.filteri (fun i _ -> i < n) all |> List.mapi (fun i t -> (t, i mod 3))

let test_plan_split () =
  let targets = fake_targets 10 in
  let split = Plan.split ~count:3 targets in
  check int "three shards" 3 (List.length split);
  (* concatenating in sh_index order reproduces the serial order *)
  let glued = List.concat_map (fun s -> s.Proto.sh_targets) split in
  check bool "order preserved" true (glued = targets);
  List.iteri (fun i s -> check int "indices dense" i s.Proto.sh_index) split;
  (* more shards than targets: empties dropped, order still whole *)
  let over = Plan.split ~count:64 targets in
  check int "one shard per target" 10 (List.length over);
  check bool "order preserved (over-split)" true
    (List.concat_map (fun s -> s.Proto.sh_targets) over = targets)

let test_plan_shard_count () =
  check int "no targets, no shards" 0 (Plan.shard_count ~workers:4 ~shards:0 ~targets:0);
  check int "default 4x workers" 8 (Plan.shard_count ~workers:2 ~shards:0 ~targets:100);
  check int "explicit wins" 3 (Plan.shard_count ~workers:2 ~shards:3 ~targets:100);
  check int "capped by targets" 5 (Plan.shard_count ~workers:2 ~shards:9 ~targets:5);
  check int "zero workers treated as one" 4
    (Plan.shard_count ~workers:0 ~shards:0 ~targets:100);
  check int "at least one" 1 (Plan.shard_count ~workers:0 ~shards:0 ~targets:1)

(* ----- restart backoff arithmetic ----- *)

let test_backoff_exponential_and_cap () =
  let policy =
    {
      Fleet.default_policy with
      Fleet.backoff_ms = 100.;
      backoff_cap_ms = 1000.;
      backoff_jitter = 0.;
    }
  in
  let d attempt = Fleet.backoff_delay_ms ~policy ~attempt ~salt:7 in
  check bool "attempt 0 is free" true (d 0 = 0.);
  check bool "attempt 1 = base" true (d 1 = 100.);
  check bool "attempt 2 doubles" true (d 2 = 200.);
  check bool "attempt 3 doubles again" true (d 3 = 400.);
  (* the cap is exact, and survives attempts that overflow the naive
     exponential *)
  check bool "attempt 5 capped" true (d 5 = 1000.);
  check bool "attempt 60 capped" true (d 60 = 1000.)

let test_backoff_jitter_bounds () =
  let policy =
    {
      Fleet.default_policy with
      Fleet.backoff_ms = 100.;
      backoff_cap_ms = 1_000_000.;
      backoff_jitter = 0.25;
    }
  in
  for attempt = 1 to 6 do
    let base = 100. *. (2. ** float_of_int (attempt - 1)) in
    for salt = 0 to 19 do
      let v = Fleet.backoff_delay_ms ~policy ~attempt ~salt in
      check bool
        (Printf.sprintf "within [0.75b, 1.25b] (a=%d s=%d)" attempt salt)
        true
        (v >= base *. 0.75 -. 1e-9 && v <= base *. 1.25 +. 1e-9)
    done
  done;
  (* deterministic: the same (attempt, salt) always backs off the same *)
  check bool "deterministic" true
    (Fleet.backoff_delay_ms ~policy ~attempt:3 ~salt:5
    = Fleet.backoff_delay_ms ~policy ~attempt:3 ~salt:5);
  (* the salt desynchronizes concurrent retries *)
  let distinct =
    List.init 20 (fun salt -> Fleet.backoff_delay_ms ~policy ~attempt:3 ~salt)
    |> List.sort_uniq compare
  in
  check bool "salts spread" true (List.length distinct > 1)

let test_backoff_exhaustion_quarantines () =
  (* the supervisor's poison rule rides the same policy: after the
     retry budget, the fleet quarantines as Harness_abort with the
     budget recorded — the shard-level analogue is covered end to end
     below *)
  let policy =
    {
      Fleet.default_policy with
      Fleet.deadline_ms = Some 0;
      retries = 2;
      backoff_ms = 1.;
    }
  in
  let r = Lazy.force runner in
  let targets = fake_targets 1 in
  let t, workload = List.hd targets in
  let item =
    { Fleet.it_target = t; it_workload = workload; it_predicted = None; it_done = None }
  in
  let res = Fleet.run_item_safe ~policy r item in
  (match res.Fleet.res_outcome with
   | Outcome.Harness_abort { ha_retries; _ } ->
     check int "full budget consumed" 2 ha_retries
   | o -> Alcotest.fail ("expected Harness_abort, got " ^ Outcome.category o));
  check int "res_retries mirrors the budget" 2 res.Fleet.res_retries;
  check bool "no timings to report for a quarantine" false
    (Fleet.ran_on_given_runner res)

(* ----- supervisor end to end ----- *)

let sup_config ?(shards = 2) ?(env = []) ?(poison_deaths = 3)
    ?(heartbeat = 120.) ?(max_restarts = 10) ?journal ?on_pulse ~dir () =
  Config.make ~subsample ~shards ?journal
    ~policy:{ Fleet.default_policy with Fleet.backoff_ms = 1. }
    ~supervisor:
      {
        Config.sup_workers = 2;
        sup_on_pulse = on_pulse;
        sup_worker_env = env;
        sup_poison_deaths = poison_deaths;
        sup_heartbeat_s = heartbeat;
        sup_max_restarts = max_restarts;
        sup_event_log = Some (Filename.concat dir "events.jsonl");
      }
    ()

let read_events dir =
  let ic = open_in (Filename.concat dir "events.jsonl") in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let count_ev dir ev =
  List.length
    (List.filter
       (fun l -> Test_trace.contains l (Printf.sprintf "\"ev\":%S" ev))
       (read_events dir))

(* Every shard poisoned: each claim SIGKILLs the worker before it even
   boots a kernel.  The supervisor must quarantine both shards after
   [poison_deaths] consecutive zero-progress deaths each and complete
   the campaign with every record a Harness_abort — no stall, no
   kernel boots in any worker.  The journal's directory name is not
   ASCII, and every event line must still be JSON. *)
let test_poison_shards_quarantined () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let dir = tmp_dir ~prefix:"kfi_shard_é" () in
  let path = Filename.concat dir "campaign.kj" in
  let journal = Journal.open_ path in
  Fun.protect
    ~finally:(fun () ->
      Journal.close journal;
      rm_rf dir)
    (fun () ->
      let config =
        sup_config ~dir ~journal ~shards:2 ~poison_deaths:2
          ~env:[ ("KFI_WORKER_CHAOS_POISON", "0,1") ]
          ()
      in
      let records = Supervisor.run_campaign ~config r p Target.A in
      let expected = Experiment.plan ~config r p Target.A in
      check int "every planned target recorded"
        (List.length expected) (List.length records);
      check bool "all quarantined" true
        (List.for_all
           (fun rec_ ->
             match rec_.Experiment.r_outcome with
             | Outcome.Harness_abort { ha_retries; _ } -> ha_retries = 2
             | _ -> false)
           records);
      check int "two shards quarantined" 2 (count_ev dir "quarantine");
      (* exactly-once requeue per death, and only non-final deaths requeue *)
      check int "one requeue per shard" 2 (count_ev dir "requeue");
      check int "four deaths total" 4 (count_ev dir "death");
      let module Tel = Kfi_trace.Telemetry in
      let events = List.map Tel.parse (read_events dir) in
      check bool "the start event names the journal" true
        (List.exists
           (function
             | Tel.Obj kvs ->
               List.assoc_opt "ev" kvs = Some (Tel.Str "start")
               && List.assoc_opt "journal" kvs = Some (Tel.Str path)
             | _ -> false)
           events))

(* A wedged worker (claims, then sleeps forever) must be heartbeat-
   killed; two consecutive wedges quarantine the shard. *)
let test_wedged_worker_heartbeat_killed () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        sup_config ~dir ~shards:1 ~poison_deaths:2 ~heartbeat:0.4
          ~env:[ ("KFI_WORKER_CHAOS_WEDGE", "0") ]
          ()
      in
      let records = Supervisor.run_campaign ~config r p Target.A in
      check bool "campaign completed" true (records <> []);
      check bool "all quarantined" true
        (List.for_all
           (fun rec_ ->
             match rec_.Experiment.r_outcome with
             | Outcome.Harness_abort _ -> true
             | _ -> false)
           records);
      check bool "wedge detected" true (count_ev dir "wedged" >= 2);
      check int "shard quarantined" 1 (count_ev dir "quarantine"))

(* The headline robustness property, in-tree: workers SIGKILL
   themselves after every 6 streamed entries, so the campaign loses its
   workers over and over — and the records, CSV and progress
   ticks are still identical to a serial in-process run. *)
let test_chaos_records_identical_to_serial () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let ticks_of run =
    let ticks = ref [] in
    let records =
      run (fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
    in
    (records, List.rev !ticks)
  in
  let serial_records, serial_ticks =
    ticks_of (fun on_progress ->
        let config = Config.make ~subsample ~on_progress () in
        Experiment.run_campaign ~config r p Target.A)
  in
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sup_records, sup_ticks =
        ticks_of (fun on_progress ->
            let config =
              {
                (sup_config ~dir ~shards:3
                   ~env:[ ("KFI_WORKER_CHAOS_DIE_AFTER", "6") ]
                   ~max_restarts:50 ())
                with
                Config.on_progress = Some on_progress;
              }
            in
            Supervisor.run_campaign ~config r p Target.A)
      in
      check bool "enough deaths to mean something" true
        (count_ev dir "death" >= 2);
      check int "same record count"
        (List.length serial_records) (List.length sup_records);
      check bool "records identical" true (serial_records = sup_records);
      check bool "CSV identical" true
        (Experiment.to_csv serial_records = Experiment.to_csv sup_records);
      check bool "progress ticks identical" true (serial_ticks = sup_ticks))

(* The last resort: one worker slot and no restart budget.  Its worker
   dies claiming the only shard and the slot retires; the shard is
   requeued (one zero-progress death is under the poison limit) and the
   coordinator runs it in-process, with records and CSV equal to a
   serial run's. *)
let test_retired_slot_runs_inline () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let serial =
    Experiment.run_campaign ~config:(Config.make ~subsample ()) r p Target.A
  in
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        sup_config ~dir ~shards:1 ~max_restarts:0
          ~env:[ ("KFI_WORKER_CHAOS_POISON", "0") ]
          ()
      in
      let records = Supervisor.run_campaign ~config r p Target.A in
      check int "one worker death" 1 (count_ev dir "death");
      check int "its slot retired" 1 (count_ev dir "retire");
      check int "the shard requeued" 1 (count_ev dir "requeue");
      check int "nothing quarantined" 0 (count_ev dir "quarantine");
      check int "the shard ran in-process" 1 (count_ev dir "inline");
      check bool "records identical" true (serial = records);
      check bool "CSV identical" true
        (Experiment.to_csv serial = Experiment.to_csv records))

(* Each worker's runner keeps a metrics registry and streams what it
   recorded with every entry; the coordinator folds that into the
   worker's fork, so the campaign's registry counts every injection the
   workers ran. *)
let test_worker_metrics_merged () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let module M = Kfi_obs.Metrics in
      let metrics = M.create () in
      let config =
        { (sup_config ~dir ~shards:1 ()) with Config.metrics = Some metrics }
      in
      let records = Supervisor.run_campaign ~config r p Target.A in
      let s = M.snapshot metrics in
      let ran = M.counter s "sup.entries" in
      check int "every target ran in a worker" (List.length records) ran;
      check int "merged inj.count" ran (M.counter s "inj.count");
      check int "one execute span per injection" ran
        (match M.hist s "phase.execute" with
         | Some h -> h.M.hs_count
         | None -> 0);
      check int "outcome counters add up" ran
        (List.fold_left
           (fun acc (k, n) ->
             if String.starts_with ~prefix:"outcome." k then acc + n else acc)
           0 s.M.sn_counters))

(* The supervisor log appends: a run of two supervised campaigns keeps
   both campaigns' events, one start event each. *)
let test_event_log_keeps_every_campaign () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config = sup_config ~dir ~shards:1 () in
      List.iter (fun c -> ignore (Supervisor.run_campaign ~config r p c)) [ Target.A; Target.C ];
      check int "one start event per campaign" 2 (count_ev dir "start");
      check int "one finish event per campaign" 2 (count_ev dir "finish"))

(* The coordinator journals each entry as it arrives, so a pulse of
   the supervision loop sees the campaign journal grow before the
   worker phase ends.  The coordinator then dies there (the pulse
   raises); a resumed run skips every entry it journaled and ends with
   records equal to a serial run's. *)
let test_journal_written_during_worker_phase () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let serial =
    Experiment.run_campaign ~config:(Config.make ~subsample ()) r p Target.A
  in
  let dir = tmp_dir () in
  let path = Filename.concat dir "campaign.kj" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seen = ref 0 in
      let on_pulse () =
        seen := List.length (Journal.read_file path);
        if !seen > 0 then raise Exit
      in
      let journal = Journal.open_ path in
      let config = sup_config ~dir ~journal ~shards:1 ~on_pulse () in
      (match Supervisor.run_campaign ~config r p Target.A with
       | _ -> Alcotest.fail "no pulse saw a journaled entry"
       | exception Exit -> ());
      Journal.close journal;
      check bool "entries journaled during the worker phase" true (!seen > 0);
      let journal = Journal.open_ ~resume:true path in
      check int "the resume skips them" !seen (Journal.loaded journal);
      let records =
        Supervisor.run_campaign ~config:(sup_config ~dir ~journal ~shards:1 ()) r p
          Target.A
      in
      Journal.close journal;
      check bool "records identical" true (serial = records))

(* Without a journal the coordinator records to a temp journal and
   deletes it once the replay has read it, also when the run raises:
   neither run leaves anything in the temp dir. *)
let test_no_temp_files_left () =
  let r = Lazy.force runner and p = Lazy.force profile in
  let dir = tmp_dir () and tmp = tmp_dir () in
  let temp_dir_name = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name temp_dir_name;
      rm_rf tmp;
      rm_rf dir)
    (fun () ->
      let left () = Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())) in
      let records = Supervisor.run_campaign ~config:(sup_config ~dir ()) r p Target.A in
      check bool "the campaign ran" true (records <> []);
      check (Alcotest.list Alcotest.string) "nothing left after a run" [] (left ());
      let on_pulse () = raise Exit in
      (match Supervisor.run_campaign ~config:(sup_config ~dir ~on_pulse ()) r p Target.A with
       | _ -> Alcotest.fail "the pulse did not raise"
       | exception Exit -> ());
      check (Alcotest.list Alcotest.string) "nothing left after a raise" [] (left ()))

let suite =
  [
    Alcotest.test_case "proto round trip (chunked decode)" `Quick test_proto_roundtrip;
    Alcotest.test_case "proto corrupt frame rejected" `Quick test_proto_corrupt_frame;
    Alcotest.test_case "split preserves order and indices" `Slow test_plan_split;
    Alcotest.test_case "shard count rules" `Quick test_plan_shard_count;
    Alcotest.test_case "backoff exponential, cap exact" `Quick test_backoff_exponential_and_cap;
    Alcotest.test_case "backoff jitter bounded + deterministic" `Quick test_backoff_jitter_bounds;
    Alcotest.test_case "retry exhaustion quarantines" `Slow test_backoff_exhaustion_quarantines;
    Alcotest.test_case "poison shards quarantined, no stall" `Slow test_poison_shards_quarantined;
    Alcotest.test_case "wedged worker heartbeat-killed" `Slow test_wedged_worker_heartbeat_killed;
    Alcotest.test_case "worker deaths: records identical to serial" `Slow
      test_chaos_records_identical_to_serial;
    Alcotest.test_case "retired slot: shard runs in-process" `Slow
      test_retired_slot_runs_inline;
    Alcotest.test_case "worker metrics merged into the campaign's" `Slow
      test_worker_metrics_merged;
    Alcotest.test_case "supervisor log keeps every campaign" `Slow
      test_event_log_keeps_every_campaign;
    Alcotest.test_case "journal written during the worker phase" `Slow
      test_journal_written_during_worker_phase;
    Alcotest.test_case "no temp files left, run or raise" `Slow
      test_no_temp_files_left;
  ]
