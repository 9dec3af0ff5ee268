(* Parallel-fleet tests: the Config record defaults, ordered collection
   through Fleet.run, and the headline determinism property: a jobs:4
   campaign produces records, CSV, telemetry JSONL and progress ticks
   identical to the serial run. *)

open Kfi_injector
module Telemetry = Kfi_trace.Telemetry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* share the booted runner and profile with the other test modules *)
let runner = Test_injector.runner
let profile = Test_trace.profile

(* ----- Config ----- *)

(* Config.default must mean exactly what the legacy entry points did
   with no optional arguments. *)
let test_config_default_fields () =
  let d = Config.default in
  check int "subsample" 1 d.Config.subsample;
  check int "seed" 42 d.Config.seed;
  check bool "hardening" false d.Config.hardening;
  check bool "no oracle" true (d.Config.oracle = None);
  check bool "no telemetry" true (d.Config.telemetry = None);
  check bool "no progress" true (d.Config.on_progress = None);
  check int "jobs" 1 d.Config.jobs;
  check bool "no journal" true (d.Config.journal = None);
  check bool "default policy: no deadline" true
    (d.Config.policy.Fleet.deadline_ms = None);
  check int "default policy: retries" 1 d.Config.policy.Fleet.retries;
  (* make () = default *)
  let m = Config.make () in
  check int "make subsample" d.Config.subsample m.Config.subsample;
  check int "make seed" d.Config.seed m.Config.seed;
  check int "make jobs" d.Config.jobs m.Config.jobs

(* the facade's Config.make resolves an oracle value into the hook *)
let test_facade_resolves_oracle () =
  let oracle = Kfi_staticoracle.Oracle.create (Kfi_kernel.Build.build ()) in
  let cfg = Kfi.Config.make ~oracle () in
  match cfg.Kfi.Config.oracle with
  | None -> Alcotest.fail "oracle not resolved"
  | Some pruner ->
    (* the resolved hook behaves like Oracle.pruner *)
    let targets =
      Target.enumerate (Kfi_kernel.Build.build ()) ~campaign:Target.A ~seed:1
        [ "schedule" ]
    in
    List.iter
      (fun t ->
        check bool "hook = pruner" true
          (pruner t = Kfi_staticoracle.Oracle.pruner oracle t))
      targets

(* ----- Fleet.run collection order ----- *)

(* An all-predicted plan needs no machine, so this exercises the claim +
   collector machinery in isolation: results arrive via on_result in
   strict index order, with zero timing and res_predicted set. *)
let test_fleet_ordered_collection () =
  let r = Lazy.force runner in
  let fleet = Fleet.create ~jobs:1 r in
  check int "pool size" 1 (Fleet.size fleet);
  check bool "primary preserved" true (Fleet.primary fleet == r);
  let targets =
    Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:1 [ "schedule" ]
  in
  let items =
    Array.of_list targets
    |> Array.map (fun t ->
           {
             Fleet.it_target = t;
             it_workload = 0;
             it_predicted = Some Outcome.Not_manifested;
             it_done = None;
           })
  in
  let seen = ref [] in
  let results =
    (* jobs above the pool size must clamp, not crash *)
    Fleet.run ~jobs:5
      ~on_result:(fun i _ res ->
        seen := i :: !seen;
        check bool "predicted" true res.Fleet.res_predicted;
        check int "zero cycles" 0 res.Fleet.res_cycles)
      fleet items
  in
  check int "all results" (Array.length items) (Array.length results);
  let expected = List.init (Array.length items) (fun i -> i) in
  check (Alcotest.list int) "on_result in serial order" expected (List.rev !seen);
  (* a collector callback failure must not hang the fleet *)
  Alcotest.check_raises "collector exception propagates" Exit (fun () ->
      ignore (Fleet.run ~on_result:(fun _ _ _ -> raise Exit) fleet items))

(* ----- the headline determinism property ----- *)

let run_campaign_a ~jobs =
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
    Config.make ~subsample:120 ~telemetry:tm
      ~on_progress:(fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
      ~jobs ()
  in
  let records = Experiment.run_campaign ~config r p Target.A in
  (records, Buffer.contents buf, List.rev !ticks)

let test_jobs4_identical_to_serial () =
  let serial, jsonl1, ticks1 = run_campaign_a ~jobs:1 in
  let parallel, jsonl4, ticks4 = run_campaign_a ~jobs:4 in
  check bool "ran something" true (List.length serial > 50);
  check bool "identical record lists" true (serial = parallel);
  check bool "identical CSV" true
    (String.equal (Experiment.to_csv serial) (Experiment.to_csv parallel));
  check (Alcotest.list (Alcotest.pair int int)) "identical progress ticks" ticks1
    ticks4;
  (* the parallel JSONL still passes the schema lint... *)
  (match Telemetry.lint jsonl4 with
   | Ok events -> check int "events = targets + 2" (List.length serial + 2) events
   | Error (l, e) ->
     Alcotest.failf "parallel telemetry lint: line %d: %s" l e);
  (* ...and is line-for-line identical to the serial one *)
  let lines = String.split_on_char '\n' in
  check (Alcotest.list Alcotest.string) "identical JSONL" (lines jsonl1)
    (lines jsonl4)

let suite =
  [
    Alcotest.test_case "Config.default fields" `Quick test_config_default_fields;
    Alcotest.test_case "facade resolves oracle once" `Quick
      test_facade_resolves_oracle;
    Alcotest.test_case "fleet ordered collection" `Slow
      test_fleet_ordered_collection;
    Alcotest.test_case "jobs:4 = jobs:1 (records, CSV, JSONL, ticks)" `Slow
      test_jobs4_identical_to_serial;
  ]
