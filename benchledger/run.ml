(* One ledger run: set the study up, plan the workload's target
   population, put it in an order drawn from the seed, execute it once
   per [pass_seconds] of the run, check the outputs and reduce the passes
   to the end-to-end metrics (untraced) or the per-layer metrics
   (traced).

   The loop is closed: each runner starts its next injection only when
   the previous one has finished, so the metrics are costs per planned
   target, not latencies under an offered rate.  Every pass starts from
   fresh execution backends, so each one pays the block decoding that a
   new campaign run pays. *)

module Study = Kfi.Study
module Config = Kfi.Config
module Experiment = Kfi.Injector.Experiment
module Runner = Kfi.Injector.Runner
module Journal = Kfi.Injector.Journal
module Outcome = Kfi.Injector.Outcome
module Metrics = Kfi.Obs.Metrics
module Telemetry = Kfi.Trace.Telemetry

let now = Unix.gettimeofday

(* The wall-clock helper every measurement here goes through. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Each campaign's targets, tagged with their index in the population. *)
type plan = (Kfi.Campaign.t * (int * Kfi.Injector.Target.t) list) list

let plan_size (plan : plan) =
  List.fold_left (fun n (_, ts) -> n + List.length ts) 0 plan

let config (w : Spec.workload) =
  Config.make ~subsample:w.subsample ~seed:Spec.population_seed ~backend:w.backend
    ~jobs:w.jobs ()

(* The workload's targets in enumeration order. *)
let population (w : Spec.workload) (study : Study.t) : plan =
  let config = config w in
  List.map
    (fun c -> (c, List.mapi (fun i t -> (i, t)) (Experiment.plan ~config study.runner study.profile c)))
    w.campaigns

(* The run's input: every campaign's population, shuffled by [seed]. *)
let order ~seed (plan : plan) : plan =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun (c, ts) ->
      let a = Array.of_list ts in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      (c, Array.to_list a))
    plan

(* Records back in population order, whatever order the plan ran in. *)
let canonical (plan : plan) records =
  let rec go plan records =
    match plan with
    | [] -> []
    | (_, ts) :: rest ->
      let a = Array.make (List.length ts) None in
      let rec place ts records =
        match (ts, records) with
        | (i, _) :: ts, r :: records ->
          a.(i) <- Some r;
          place ts records
        | _, records -> records
      in
      let records = place ts records in
      List.map Option.get (Array.to_list a) @ go rest records
  in
  go plan records

(* ---------- host speed ---------- *)

(* A fixed integer loop that shares no code with the program under test.
   On a shared host everything's speed drifts by tens of percent over
   minutes, and this loop's time drifts with it: a time divided by the
   loop's, taken around it, keeps what the program is responsible for. *)
let spin () =
  let acc = ref 0 in
  for i = 0 to 1_000_000 do
    acc := (!acc * 31 + i) land 0xFFFFFF;
    if !acc land 1 = 0 then acc := !acc lxor i
  done;
  !acc

(* The loop's time on the reference host, in seconds: there, times are
   reported unscaled. *)
let reference_spin_s = 0.002

(* How much slower than the reference the host runs now.  A run scales
   its times by the median of these samples, taken around every set-up
   and pass: one sample can land in a burst, the median follows the
   drift. *)
let slowness () =
  snd (timed (fun () -> ignore (Sys.opaque_identity (spin ())))) /. reference_spin_s

(* ---------- set-up ---------- *)

(* [Study.prepare]; traced, the same two steps are timed one by one. *)
let prepare ~traced =
  if not traced then
    let study, dt = timed (fun () -> Study.prepare ()) in
    (study, dt, [])
  else
    let runner, dt_runner = timed (fun () -> Runner.create ()) in
    let (profile, core), dt_profile =
      timed (fun () ->
          let profile =
            Kfi.Profiler.Sampler.profile_all ~build:(Runner.build runner)
              ~machine:(Runner.machine runner) ~baseline:(Runner.baseline runner) ()
          in
          (profile, Kfi.Profiler.Sampler.top_functions profile ~coverage:0.95))
    in
    ( { Study.runner; profile; core; fleet = None },
      dt_runner +. dt_profile,
      [ ("study.runner_create_s", dt_runner); ("study.profile_s", dt_profile) ] )

(* Set up [times] studies one after another, keeping the last; each
   earlier one is released first so only one is ever alive.  Returns the
   study, the median of each timing, and the host samples taken. *)
let setup ~traced ~times =
  let study = ref None and samples = ref [] and host = ref [] in
  for _ = 1 to max 1 times do
    study := None;
    Gc.full_major ();
    host := slowness () :: !host;
    let s, dt, parts = prepare ~traced in
    host := slowness () :: !host;
    study := Some s;
    samples := (("setup_s", dt) :: parts) :: !samples
  done;
  let median_of k = Stats.median (List.map (List.assoc k) !samples) in
  (Option.get !study, median_of, !host)

(* ---------- one pass over the plan ---------- *)

type pass = {
  traced : bool;
  wall : float;  (** everything the pass costs a user, in seconds *)
  live_s : float;  (** inside the live campaign calls *)
  resume_s : float;  (** reopening the journal for the resume pass *)
  t0 : float;
  ticks : float array;
      (** [ticks.(0)]: the first campaign call starts (after any fleet
          boot); [ticks.(i + 1)]: the progress tick of planned target
          [i], fired once it has finished *)
  t_end : float;
  host : float list;  (** the host's slowness before and after *)
  records : Experiment.record list;
  resumed : (Experiment.record list * int) option;
      (** records of the resume pass, and the targets it re-ran *)
  minor_words : float;
  snap : Metrics.snap;  (** empty when untraced *)
  tel_bytes : int;
  cycles : int;
}

let run_pass ~traced ~tmp (w : Spec.workload) (study : Study.t) (plan : plan) =
  (* detach every runner's backend: the campaign call attaches fresh ones
     (a fleet's workers follow the primary at the start of each run) *)
  Runner.set_backend study.runner Kfi.Backend.Interp;
  Option.iter (fun f -> ignore (Kfi.Injector.Fleet.run f [||])) study.fleet;
  Gc.full_major ();
  let metrics = if traced then Some (Metrics.create ~name:"ledger" ()) else None in
  let tel_bytes = ref 0 and files = ref [] in
  let telemetry ~count file =
    let write =
      if w.durable then begin
        let oc = open_out_bin (Filename.concat tmp file) in
        files := oc :: !files;
        fun line ->
          output_string oc line;
          output_char oc '\n'
      end
      else ignore
    in
    if w.durable || traced then
      Some
        (Telemetry.create
           ~sink:(fun line ->
             if count then tel_bytes := !tel_bytes + String.length line + 1;
             write line)
           ())
    else None
  in
  let base = { (config w) with Config.metrics } in
  let journal_path = Filename.concat tmp "campaign.kj" in
  let ticks = Array.make (plan_size plan + 1) 0. in
  let before = slowness () in
  let t0 = now () in
  let m0 = Gc.minor_words () in
  let journal = if w.durable then Some (Journal.open_ journal_path) else None in
  let tm = telemetry ~count:true "live.jsonl" in
  ticks.(0) <- now ();
  let records, live_s =
    timed (fun () ->
        let off = ref 0 in
        List.concat_map
          (fun (c, targets) ->
            let first = !off in
            off := first + List.length targets;
            let on_progress ~done_ ~total =
              if done_ < total then ticks.(first + done_ + 1) <- now ()
            in
            Experiment.run_targets
              ~config:{ base with journal; telemetry = tm; on_progress = Some on_progress }
              ?fleet:study.fleet study.runner study.profile c (List.map snd targets))
          plan)
  in
  Option.iter Journal.close journal;
  let resumed, resume_s =
    if not w.durable then (None, 0.)
    else begin
      let j, open_s = timed (fun () -> Journal.open_ ~resume:true journal_path) in
      let telemetry = telemetry ~count:false "resumed.jsonl" in
      let records =
        List.concat_map
          (fun (c, targets) ->
            Experiment.run_targets
              ~config:{ base with journal = Some j; telemetry }
              study.runner study.profile c (List.map snd targets))
          plan
      in
      let reran = Journal.appended j in
      Journal.close j;
      (Some (records, reran), open_s)
    end
  in
  List.iter close_out !files;
  let t_end = now () in
  let minor_words = Gc.minor_words () -. m0 in
  {
    traced;
    wall = t_end -. t0;
    live_s;
    resume_s;
    t0;
    ticks;
    t_end;
    host = [ before; slowness () ];
    records;
    resumed;
    minor_words;
    snap = (match metrics with Some m -> Metrics.snapshot m | None -> Metrics.empty);
    tel_bytes = !tel_bytes;
    cycles = (match tm with Some tm -> (Telemetry.summary tm).s_sim_cycles | None -> 0);
  }

(* ---------- checks ---------- *)

let every k l = List.filteri (fun i _ -> i mod k = 0) l

(* Every k-th target of the population again on the reference backend:
   its rows must equal the measured run's. *)
let spot_check (w : Spec.workload) (study : Study.t) (population : plan) records =
  let config = { (config w) with Config.backend = w.reference; jobs = 1 } in
  let got =
    List.concat_map
      (fun (c, targets) ->
        Experiment.run_targets ~config study.runner study.profile c
          (every w.spot_every (List.map snd targets)))
      population
  in
  let want =
    List.concat_map
      (fun (c, _) ->
        every w.spot_every
          (List.filter (fun (r : Experiment.record) -> r.r_campaign = c) records))
      population
  in
  String.equal (Experiment.to_csv got) (Experiment.to_csv want)

let aborts records =
  List.length
    (List.filter
       (fun (r : Experiment.record) ->
         match r.r_outcome with Outcome.Harness_abort _ -> true | _ -> false)
       records)

(* ---------- reduction ---------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* A pass is sized to take about this long on the reference host. *)
let pass_seconds = 5.

(* Targets per segment of the pass wall: few enough that a burst of host
   slowness spoils few segments, enough that the order in which two fleet
   workers surface their results evens out within one. *)
let segment = 8

(* The pass wall cut into consecutive segments — set-up before the first
   campaign call, every [segment] targets, and what follows the last
   tick — so that segment j of every pass covers the same work. *)
let segments ~host p =
  let n = Array.length p.ticks - 1 in
  let cuts = List.init ((n + segment - 1) / segment) (fun j -> p.ticks.(j * segment)) in
  let bounds = (p.t0 :: cuts) @ [ p.ticks.(n); p.t_end ] in
  let rec diffs = function a :: (b :: _ as tl) -> (b -. a) /. host :: diffs tl | _ -> [] in
  Array.of_list (diffs bounds)

(* Target i's cost: the time from the tick [jobs] targets earlier to
   its own.  Serially that is the gap between successive ticks; with j
   runners in a closed loop, j results arrive per injection time, and
   the gap between adjacent ticks measures only their interleaving. *)
let gaps ~host ~jobs p =
  Array.init (Array.length p.ticks - 1) (fun i ->
      (p.ticks.(i + 1) -. p.ticks.(max 0 (i + 1 - jobs))) /. host)

let pointwise_min = function
  | [] -> [||]
  | a :: rest -> List.fold_left (Array.map2 Float.min) a rest

(* Milliseconds per planned target at the reference host speed: every
   segment's best time over the passes, summed.  A shared host's
   slowness drifts over minutes, which the scaling by [host] removes, and
   comes in bursts of a few seconds, which a median over whole passes
   keeps and a per-segment minimum drops. *)
let ms_per_target ~host n passes =
  1000. *. Array.fold_left ( +. ) 0. (pointwise_min (List.map (segments ~host) passes))
  /. float_of_int n

(* Each target's best tick gap over the passes. *)
let best_gaps ~host ~jobs passes =
  Array.to_list (pointwise_min (List.map (gaps ~host ~jobs) passes))

let pass_ms_per_target n p = 1000. *. p.wall /. float_of_int n

let hist_sum snap k = match Metrics.hist snap k with Some h -> h.Metrics.hs_sum | None -> 0.

let hist_mean snap k =
  match Metrics.hist snap k with
  | Some h when h.Metrics.hs_count > 0 -> Metrics.mean h
  | _ -> nan

(* Best tick gaps paired with the records they timed, by outcome class. *)
let by_class ~host ~jobs passes =
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun (r : Experiment.record) g ->
      let k = Outcome.category r.r_outcome in
      Hashtbl.replace tbl k (g :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    (List.hd passes).records (best_gaps ~host ~jobs passes);
  List.sort compare (Hashtbl.fold (fun k l acc -> (k, l) :: acc) tbl [])

let class_ms_mean ~jobs passes keep =
  List.concat_map (fun (k, l) -> if keep k then l else []) (by_class ~host:1. ~jobs passes)
  |> Stats.mean
  |> ( *. ) 1000.

(* The pass's records appended to a scratch journal and reopened for
   resume, for workloads that run without one. *)
let scratch_journal ~tmp records =
  let m = Metrics.create ~name:"journal" () in
  let path = Filename.concat tmp "scratch.kj" in
  let j = Journal.open_ path in
  Journal.set_metrics j (Some m);
  Journal.check_fingerprint j ~fingerprint:"ledger";
  List.iter
    (fun (r : Experiment.record) ->
      let t = r.r_target in
      Journal.append j
        {
          Journal.e_campaign = r.r_campaign;
          e_fn = t.t_fn;
          e_addr = t.t_addr;
          e_byte = t.t_byte;
          e_bit = t.t_bit;
          e_workload = r.r_workload;
          e_outcome = r.r_outcome;
          e_predicted = r.r_predicted;
          e_retries = r.r_retries;
          e_cycles = 0;
        })
    records;
  Journal.close j;
  let j, resume_s = timed (fun () -> Journal.open_ ~resume:true path) in
  Journal.close j;
  (hist_mean (Metrics.snapshot m) "phase.journal_fsync", resume_s)

let layer_values ~tmp (w : Spec.workload) (study : Study.t) ~n ~setup_median
    ~boot_s ~plan_s ~untraced ~traced =
  let med f = Stats.median (List.map f traced) in
  let jobs = float_of_int w.jobs in
  let fsync_s, resume_s =
    if w.durable then
      (med (fun p -> hist_mean p.snap "phase.journal_fsync"), med (fun p -> p.resume_s))
    else scratch_journal ~tmp (List.hd traced).records
  in
  let boot_s =
    if w.jobs > 1 then boot_s
    else begin
      let _, dt = timed (fun () -> Study.fleet study ~jobs:2) in
      study.fleet <- None;
      dt
    end
  in
  let gaps = best_gaps ~host:1. ~jobs:w.jobs traced in
  let not_activated k = k = Outcome.category Outcome.Not_activated in
  [
    ("study.runner_create_s", setup_median "study.runner_create_s");
    ("study.profile_s", setup_median "study.profile_s");
    ("experiment.plan_ms", 1000. *. plan_s);
    ("experiment.phase_plan_ms", med (fun p -> 1000. *. hist_sum p.snap "phase.plan"));
    ("experiment.collect_us_mean", med (fun p -> 1e6 *. hist_mean p.snap "phase.collect"));
    ("runner.restore_ms_mean", med (fun p -> 1000. *. hist_mean p.snap "phase.restore"));
    ("runner.execute_ms_mean", med (fun p -> 1000. *. hist_mean p.snap "phase.execute"));
    ("runner.classify_ms_mean", med (fun p -> 1000. *. hist_mean p.snap "phase.classify"));
    ("runner.inj_ms_mean", med (fun p -> 1000. *. hist_mean p.snap "inj.wall"));
    ("runner.inj_p50_ms", 1000. *. Stats.median gaps);
    ("runner.inj_p90_ms", 1000. *. Stats.quantile gaps 0.9);
    ( "runner.activated_frac",
      med (fun p ->
          float_of_int (Metrics.counter p.snap "inj.activated")
          /. float_of_int (Metrics.counter p.snap "inj.count")) );
    ("runner.not_activated_ms_mean", class_ms_mean ~jobs:w.jobs traced not_activated);
    ( "runner.activated_ms_mean",
      class_ms_mean ~jobs:w.jobs traced (fun k -> not (not_activated k)) );
    ("runner.busy_frac", med (fun p -> hist_sum p.snap "inj.wall" /. (jobs *. p.live_s)));
    ("runner.minor_kw_per_target", med (fun p -> p.minor_words /. float_of_int n /. 1000.));
    ( "runner.sim_mcycles_per_exec_s",
      med (fun p -> float_of_int p.cycles /. hist_sum p.snap "phase.execute" /. 1e6) );
    ("journal.fsync_ms_mean", 1000. *. fsync_s);
    ("journal.resume_ms", 1000. *. resume_s);
    ("telemetry.bytes_per_target", med (fun p -> float_of_int p.tel_bytes /. float_of_int n));
    ("fleet.boot_s", boot_s);
    ( "attr.coverage",
      med (fun p ->
          let s = hist_sum p.snap in
          (s "phase.plan" +. (s "inj.wall" /. jobs) +. s "phase.collect"
          +. s "phase.journal_fsync" +. p.resume_s)
          /. p.wall) );
    ( "trace.overhead_frac",
      (ms_per_target ~host:1. n traced /. ms_per_target ~host:1. n untraced) -. 1. );
  ]

(* ---------- a whole run ---------- *)

type result = {
  correct : bool;
  problems : string list;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;
  detail : Json.t;
}

let md5 s = Digest.to_hex (Digest.string s)

let with_tmp tmp f =
  let dir = Filename.concat tmp (Printf.sprintf "run-%d" (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ tmp; dir ];
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      try Sys.rmdir tmp with Sys_error _ -> ())
    (fun () -> f dir)

(* [population] replaces the workload's (tests pass a few targets);
   [setups] is how many times the study is set up for [setup_s]. *)
let run ?(setups = 3) ?population:given ~tmp ~(workload : Spec.workload) ~seed
    ~seconds ~traced () =
  with_tmp tmp @@ fun tmp ->
  let w = workload in
  let study, setup_median, setup_host = setup ~traced ~times:setups in
  (* a -j N campaign run also boots its fleet before the first injection *)
  let boot_s, boot_host =
    if w.jobs <= 1 then (0., [])
    else begin
      let before = slowness () in
      let _, dt = timed (fun () -> Study.fleet study ~jobs:w.jobs) in
      (dt, [ before; slowness () ])
    end
  in
  let pop = match given with Some p -> p | None -> population w study in
  let plan_s =
    if traced then
      Stats.median (List.init 3 (fun _ -> snd (timed (fun () -> population w study))))
    else nan
  in
  let plan = order ~seed pop in
  let n = plan_size plan in
  (* one pass per [pass_seconds] of the run, whatever the host's speed,
     so every run's minima are over equally many passes; traced runs
     alternate untraced and traced passes so the tracing overhead is
     measured under the same conditions *)
  let count = max (if traced then 2 else 1) (truncate (seconds /. pass_seconds)) in
  let passes =
    List.init count (fun i -> run_pass ~traced:(traced && i mod 2 = 1) ~tmp w study plan)
  in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced_passes = List.filter (fun p -> p.traced) passes in
  let records = canonical plan (List.hd passes).records in
  let csv = Experiment.to_csv records in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same r = String.equal csv (Experiment.to_csv (canonical plan r)) in
  if not (List.for_all (fun p -> same p.records) passes) then problem "passes disagree";
  List.iter
    (fun p ->
      match p.resumed with
      | Some (r, reran) ->
        if not (same r) then problem "resumed CSV differs from the live one";
        if reran <> 0 then problem "resume re-ran %d targets" reran
      | None -> ())
    passes;
  let digest = md5 csv in
  (match (given, Spec.digest w.name) with
   | None, Some want when want <> digest -> problem "CSV digest %s, stored %s" digest want
   | None, None -> problem "no stored digest"
   | _ -> ());
  if not (spot_check w study pop records) then
    problem "reference %s spot-check differs" (Kfi.Backend.kind_name w.reference);
  let failed = List.fold_left (fun a p -> a + aborts p.records) 0 passes in
  let host =
    Stats.median (setup_host @ boot_host @ List.concat_map (fun p -> p.host) passes)
  in
  let values =
    if traced then
      layer_values ~tmp w study ~n ~setup_median ~boot_s ~plan_s ~untraced
        ~traced:traced_passes
    else
      [
        ("setup_s", (setup_median "setup_s" +. boot_s) /. host);
        ("ms_per_target", ms_per_target ~host n untraced);
        ("peak_rss_mb", peak_rss_mb ());
      ]
  in
  let table = if traced then List.map fst Spec.per_layer else Spec.end_to_end in
  let detail =
    Json.Obj
      [
        ("targets", Json.Int n);
        ("passes", Json.Int (List.length passes));
        ("csv_md5", Json.Str digest);
        ( "pass_ms_per_target",
          Json.List (List.map (fun p -> Json.Float (pass_ms_per_target n p)) passes) );
        ("host_slowness", Json.Float host);
        ( "outcomes",
          Json.Obj
            (List.map
               (fun (k, l) ->
                 ( k,
                   Json.Obj
                     [ ("n", Json.Int (List.length l)); ("ms_mean", Json.Float (1000. *. Stats.mean l)) ]
                 ))
               (by_class ~host ~jobs:w.jobs untraced)) );
      ]
  in
  {
    correct = !problems = [];
    problems = List.rev !problems;
    attempted = n * List.length passes;
    failed;
    metrics = List.map (fun (m : Spec.metric) -> (m, List.assoc m.m_name values)) table;
    detail;
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Spec.metric), v) ->
               (m.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.m_unit) ]))
             r.metrics) );
    ]

(* ---------- stored digests ---------- *)

(* One pass of every workload on one shared study: the digest table's
   lines, after checking the cross-workload relations. *)
let digests ~tmp =
  with_tmp tmp @@ fun tmp ->
  let study = Study.prepare () in
  let csv_of (w : Spec.workload) =
    let pop = population w study in
    Experiment.to_csv (run_pass ~traced:false ~tmp w study pop).records
  in
  let csvs = List.map (fun (w : Spec.workload) -> (w.name, csv_of w)) Spec.workloads in
  let csv name = List.assoc name csvs in
  (* A-interp's population is every k-th target of A-cached's *)
  let k =
    let sub name = (Option.get (Spec.workload name)).subsample in
    sub "A-interp" / sub "A-cached"
  in
  let every_kth_row csv =
    match String.split_on_char '\n' csv with
    | header :: rows ->
      String.concat "\n" (header :: every k (List.filter (( <> ) "") rows)) ^ "\n"
    | [] -> csv
  in
  let errors =
    (if csv "A-par2" <> csv "A-cached" then [ "A-par2 differs from A-cached" ] else [])
    @
    if every_kth_row (csv "A-cached") <> csv "A-interp" then
      [ Printf.sprintf "A-interp is not every %dth row of A-cached" k ]
    else []
  in
  (List.map (fun (name, csv) -> (name, md5 csv)) csvs, errors)
