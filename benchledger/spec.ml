(* What the ledger measures: the workloads, the end-to-end and per-layer
   metrics, the stored output digests, and the lint that holds
   BENCHMARK.json to these tables. *)

type workload = {
  name : string;
  campaigns : Kfi.Campaign.t list;
  subsample : int;  (** every k-th enumerated target, as [Config.subsample] *)
  backend : Kfi.Backend.kind;
  jobs : int;
  durable : bool;
      (** journal + telemetry files during the run, then a resume pass *)
  reference : Kfi.Backend.kind;  (** backend of the correctness spot-check *)
  spot_every : int;  (** spot-check every k-th planned target *)
}

(* Sizes: one pass over each population takes about 5 s on a 2-core
   x86-64 container, so a 20 s run makes four passes.  A-interp's
   population is every 3rd target of A-cached's, A-par2's is A-cached's.
   [spot_every] keeps the reference re-run near a second. *)
let workloads =
  [
    {
      name = "A-cached";
      campaigns = [ Kfi.Campaign.A ];
      subsample = 75;
      backend = Kfi.Backend.Cached;
      jobs = 1;
      durable = false;
      reference = Kfi.Backend.Interp;
      spot_every = 16;
    };
    {
      name = "A-interp";
      campaigns = [ Kfi.Campaign.A ];
      subsample = 225;
      backend = Kfi.Backend.Interp;
      jobs = 1;
      durable = false;
      reference = Kfi.Backend.Cached;
      spot_every = 4;
    };
    {
      name = "BC-durable";
      campaigns = [ Kfi.Campaign.B; Kfi.Campaign.C ];
      subsample = 6;
      backend = Kfi.Backend.Cached;
      jobs = 1;
      durable = true;
      reference = Kfi.Backend.Interp;
      spot_every = 16;
    };
    {
      name = "A-par2";
      campaigns = [ Kfi.Campaign.A ];
      subsample = 75;
      backend = Kfi.Backend.Cached;
      jobs = 2;
      durable = false;
      reference = Kfi.Backend.Interp;
      spot_every = 16;
    };
  ]

let workload name = List.find_opt (fun w -> w.name = name) workloads

type metric = { m_name : string; m_unit : string; m_better : string }

let m m_name m_unit = { m_name; m_unit; m_better = "lower" }

(* Reported by every run with tracing off. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "ms_per_target" "ms";
    m "peak_rss_mb" "MB";
  ]

(* Reported by every traced run, each with the end-to-end metric and the
   workload it is expected to move. *)
let per_layer =
  let l name unit ?(better = "lower") metric workload =
    ({ m_name = name; m_unit = unit; m_better = better }, (metric, workload))
  in
  [
    l "study.runner_create_s" "s" "setup_s" "A-cached";
    l "study.profile_s" "s" "setup_s" "A-cached";
    l "experiment.plan_ms" "ms" "ms_per_target" "BC-durable";
    l "experiment.phase_plan_ms" "ms" "ms_per_target" "BC-durable";
    l "experiment.collect_us_mean" "us" "ms_per_target" "BC-durable";
    l "runner.restore_ms_mean" "ms" "ms_per_target" "A-cached";
    l "runner.execute_ms_mean" "ms" "ms_per_target" "A-interp";
    l "runner.classify_ms_mean" "ms" "ms_per_target" "BC-durable";
    l "runner.inj_ms_mean" "ms" "ms_per_target" "A-cached";
    l "runner.inj_p50_ms" "ms" "ms_per_target" "A-cached";
    l "runner.inj_p90_ms" "ms" "ms_per_target" "A-cached";
    l "runner.activated_frac" "ratio" ~better:"higher" "ms_per_target" "A-cached";
    l "runner.not_activated_ms_mean" "ms" "ms_per_target" "A-cached";
    l "runner.activated_ms_mean" "ms" "ms_per_target" "A-cached";
    l "runner.busy_frac" "ratio" ~better:"higher" "ms_per_target" "A-par2";
    l "runner.minor_kw_per_target" "kw" "ms_per_target" "A-interp";
    l "runner.sim_mcycles_per_exec_s" "Mcycles/s" ~better:"higher"
      "ms_per_target" "A-cached";
    l "journal.fsync_ms_mean" "ms" "ms_per_target" "BC-durable";
    l "journal.resume_ms" "ms" "ms_per_target" "BC-durable";
    l "telemetry.bytes_per_target" "B" "ms_per_target" "BC-durable";
    l "fleet.boot_s" "s" "ms_per_target" "A-par2";
    l "attr.coverage" "ratio" ~better:"higher" "ms_per_target" "A-cached";
    l "trace.overhead_frac" "ratio" "ms_per_target" "A-cached";
  ]

(* Every workload plans from this enumeration seed; the run's seed only
   orders the plan, so that runs with different seeds execute the same
   population and differ in cost only through the code and the host. *)
let population_seed = 42

(* MD5 of [Kfi.Study.to_csv] over each workload's population, rows in
   population order, whatever order a run executes them in.  Regenerate
   with [main.exe digests] after a change meant to alter outcomes; it
   also checks the cross-workload relations (A-par2 equals A-cached,
   A-interp is every 3rd row of A-cached). *)
let digests =
  [
    ("A-cached", "327bcefa68a944d50321ecbfc45c0625");
    ("A-interp", "fb476fe90a733fc6b015ccc74f71c2cc");
    ("BC-durable", "e7bbfc88f6269533f66d8a66ab4802d0");
    ("A-par2", "327bcefa68a944d50321ecbfc45c0625");
  ]

let digest workload = List.assoc_opt workload digests

(* ---------- BENCHMARK.json ---------- *)

let is_name s =
  String.length s >= 1
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with '_' | '.' | '-' -> false | _ -> true

let is_unit s =
  String.length s >= 1
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       s

(* The bound each end-to-end metric may worsen by, from the spec file. *)
let bounds spec =
  match Json.field "end_to_end" spec with
  | Some (Json.List ms) ->
    List.filter_map
      (fun mj ->
        match (Json.to_str (Json.field "name" mj), Json.to_float (Json.field "bound" mj)) with
        | Some n, Some b -> Some (n, b)
        | _ -> None)
      ms
  | _ -> []

(* Every way BENCHMARK.json can break its format limits or disagree with
   the tables above; [] when it is sound. *)
let lint spec =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let keys = function Json.Obj f -> List.map fst f | _ -> [] in
  let expect_keys what want v =
    if List.sort compare (keys v) <> List.sort compare want then
      err "%s: keys must be exactly %s" what (String.concat ", " want)
  in
  expect_keys "BENCHMARK.json"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    spec;
  let list k =
    match Json.field k spec with Some (Json.List l) -> l | _ -> err "%s: not a list" k; []
  in
  let strs k = List.filter_map (fun v -> Json.to_str (Some v)) (list k) in
  let command = strs "command" in
  if command = [] || List.length command > 32 then err "command: 1 to 32 strings";
  List.iter
    (fun a ->
      if String.length a > 200 then err "command: argument over 200 characters";
      if String.length a > 0 && a.[0] = '/' then err "command: absolute path %s" a;
      if List.mem ".." (String.split_on_char '/' a) then err "command: %s leaves the repo" a)
    command;
  let paths = strs "paths" in
  if paths = [] || List.length paths > 16 then err "paths: 1 to 16 directories";
  (match Json.field "run_seconds" spec with
   | Some (Json.Int s) when s >= 1 && s <= 60 -> ()
   | _ -> err "run_seconds: a whole number from 1 to 60");
  let names = ref [] in
  let entries what ~max ~keys:want ~check =
    let l = list what in
    if l = [] || List.length l > max then err "%s: 1 to %d entries" what max;
    List.map
      (fun v ->
        expect_keys what want v;
        let name = Option.value ~default:"" (Json.to_str (Json.field "name" v)) in
        if not (is_name name) then err "%s: bad name %S" what name;
        if List.mem name !names then err "%s: name %s used twice" what name;
        names := name :: !names;
        check name v;
        name)
      l
  in
  let check_metric table what name v =
    let unit = Option.value ~default:"" (Json.to_str (Json.field "unit" v)) in
    let better = Json.to_str (Json.field "better" v) in
    if not (is_unit unit) then err "%s: bad unit %S" what unit;
    match List.find_opt (fun m -> m.m_name = name) table with
    | None -> err "%s: %s is not measured by the ledger" what name
    | Some m ->
      if m.m_unit <> unit then err "%s: %s has unit %s, ledger says %s" what name unit m.m_unit;
      if better <> Some m.m_better then err "%s: %s should be better %s" what name m.m_better
  in
  let wl =
    entries "workloads" ~max:8 ~keys:[ "name"; "why" ] ~check:(fun name v ->
        (match Json.to_str (Json.field "why" v) with
         | Some w when String.length w <= 200 && not (String.contains w '\n') -> ()
         | _ -> err "workloads: %s needs a one-line why of at most 200 characters" name);
        if workload name = None then err "workloads: %s is not defined by the ledger" name)
  in
  let e2e =
    entries "end_to_end" ~max:16 ~keys:[ "name"; "unit"; "better"; "bound" ]
      ~check:(fun name v ->
        check_metric end_to_end "end_to_end" name v;
        match Json.to_float (Json.field "bound" v) with
        | Some b when b > 0. && b <= 0.25 -> ()
        | _ -> err "end_to_end: %s needs a bound in (0, 0.25]" name)
  in
  let layers =
    entries "per_layer" ~max:128 ~keys:[ "name"; "unit"; "better" ]
      ~check:(check_metric (List.map fst per_layer) "per_layer")
  in
  let same what got want =
    if List.sort compare got <> List.sort compare want then
      err "%s: BENCHMARK.json lists %s, the ledger %s" what (String.concat " " got)
        (String.concat " " want)
  in
  same "workloads" wl (List.map (fun w -> w.name) workloads);
  same "end_to_end" e2e (List.map (fun m -> m.m_name) end_to_end);
  same "per_layer" layers (List.map (fun (m, _) -> m.m_name) per_layer);
  List.iter
    (fun (lm, (metric, w)) ->
      if not (List.mem metric e2e) then
        err "per_layer: %s moves unknown end-to-end metric %s" lm.m_name metric;
      if not (List.mem w wl) then err "per_layer: %s moves unknown workload %s" lm.m_name w)
    per_layer;
  (match List.assoc_opt "setup_s" (bounds spec) with
   | Some b ->
     if List.exists (fun (_, b') -> b' > b) (bounds spec) then
       err "end_to_end: setup_s must carry the largest bound"
   | None -> err "end_to_end: setup_s is required");
  List.iter
    (fun w ->
      match digest w.name with
      | Some d when String.length d = 32 -> ()
      | _ -> err "digests: none stored for %s" w.name)
    workloads;
  List.rev !errs
