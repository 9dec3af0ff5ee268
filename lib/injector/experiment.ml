(* Campaign orchestration: profile the kernel under the workloads, select
   target functions (the paper's "top 32 functions = 95% of samples" rule,
   widened per campaign as in Section 6 footnote 2), enumerate targets and
   run them.

   [subsample] scales an experiment down deterministically (every k-th
   target) so the default benchmark run finishes quickly; k = 1 reproduces
   the full-scale counts. *)

module Profiler = Kfi_profiler.Sampler
module Telemetry = Kfi_trace.Telemetry
module Forensics = Kfi_trace.Forensics

type record = {
  r_campaign : Target.campaign;
  r_target : Target.t;
  r_workload : int;
  r_outcome : Outcome.t;
  r_predicted : bool;
      (* the outcome came from the static oracle, not a real run *)
  r_retries : int;
      (* harness retries consumed before the outcome (0 normally; > 0
         after deadline misses / runner faults, and = the retry budget
         on a quarantined [Harness_abort]) *)
}

let injectable_subsystems = [ "arch"; "fs"; "kernel"; "mm" ]

let in_scope subsys = List.mem subsys injectable_subsystems

(* Function sets per campaign.  Campaign A sticks close to the core
   functions; B and C need many more functions to find enough conditional
   branches, as in the paper (51 / 81 / 176 functions). *)
let campaign_functions (runner : Runner.t) profile campaign =
  let core = Profiler.top_functions profile ~coverage:0.95 |> List.map fst in
  let wider = Profiler.top_functions profile ~coverage:0.999 |> List.map fst in
  let all_kernel_fns =
    List.map
      (fun f -> f.Kfi_asm.Assembler.f_name)
      (Runner.build runner).Kfi_kernel.Build.funcs
  in
  let dedup l =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun f ->
        if Hashtbl.mem seen f then false
        else begin
          Hashtbl.replace seen f ();
          true
        end)
      l
  in
  let fns =
    match campaign with
    | Target.A | Target.R -> core @ wider
    | Target.B -> core @ all_kernel_fns
    | Target.C -> core @ all_kernel_fns
  in
  dedup fns
  |> List.filter (fun fn -> in_scope (Profiler.subsys profile fn))

let subsample_targets ~subsample targets =
  if subsample <= 1 then targets
  else List.filteri (fun i _ -> i mod subsample = 0) targets

(* Pick the driving workload for a target.  Half the targets run under
   the workload that exercises the function hardest; the other half under
   a deterministic pseudo-random workload, approximating the paper's
   setup where the whole UnixBench suite generates activity (and giving
   realistic non-activation for cold paths). *)
let nworkloads = List.length Kfi_workload.Progs.names

let workload_for profile (t : Target.t) =
  let addr = Int32.to_int t.Target.t_addr land 0xFFFFFFFF in
  if (addr / 2) mod 2 = 0 then begin
    let w = Profiler.best_workload profile t.Target.t_fn in
    if w >= 0 then w else Kfi_workload.Progs.index_of "fstime"
  end
  else (addr * 2654435761) lsr 7 mod nworkloads

(* The static-oracle pruning hook ([Kfi_staticoracle.Oracle.pruner]):
   when it returns an outcome for a target, that outcome is recorded with
   [r_predicted = true] and the machine never runs.  The oracle only
   prunes provably-equivalent mutations, so the observable outcome
   distribution is preserved. *)
(* One "target" telemetry event, plus the aggregate counters the report
   surfaces.  Pruned targets cost no machine time, so their cycle field is
   zero and they stay out of the activation-rate denominator.  The cycle
   count comes in explicitly (not from the runner's [last_cycles]): under
   a fleet the run happened on another domain's runner. *)
let telemetry_target tm letter (t : Target.t) ~workload ~outcome ~predicted
    ~retries ~cycles =
  let open Telemetry in
  locked tm (fun () ->
      tm.n_targets <- tm.n_targets + 1;
      if predicted then tm.n_pruned <- tm.n_pruned + 1
      else begin
        tm.n_run <- tm.n_run + 1;
        tm.sim_cycles <- tm.sim_cycles + cycles;
        if Outcome.is_activated outcome then tm.n_activated <- tm.n_activated + 1;
        if Outcome.is_crash_or_hang outcome then
          tm.n_crash_hang <- tm.n_crash_hang + 1;
        match outcome with
        | Outcome.Harness_abort _ -> tm.n_aborted <- tm.n_aborted + 1
        | _ -> ()
      end);
  let path =
    match outcome with
    | Outcome.Crash { propagation = _ :: _ :: _ as p; _ } ->
      [ ("path", List (List.map (fun (fn, s) -> Str (fn ^ "(" ^ s ^ ")")) p)) ]
    | _ -> []
  in
  event tm "target"
    ([ ("campaign", Str letter);
       ("fn", Str t.Target.t_fn);
       ("subsys", Str t.Target.t_subsys);
       ("addr", Str (Printf.sprintf "0x%lx" t.Target.t_addr));
       ("byte", Int t.Target.t_byte);
       ("bit", Int t.Target.t_bit);
       ("workload", Str (List.nth Kfi_workload.Progs.names workload));
       ("outcome", Str (Outcome.category outcome));
       ("predicted", Bool predicted);
       ("retries", Int retries);
       ("cycles", Int cycles);
     ]
    @ path)

(* Run an already-enumerated target list.  [run_campaign] is the normal
   entry (enumerate + subsample + run); this one exists for embedders
   that shard or filter the enumeration themselves, and for tests that
   need edge-case target lists (e.g. the empty campaign). *)
let run_targets ?(config = Config.default) ?fleet runner profile campaign
    targets =
  let {
    Config.subsample;
    seed;
    hardening;
    oracle;
    telemetry;
    on_progress;
    jobs;
    journal;
    policy;
    metrics;
    backend;
    shards = _;
    supervisor = _;
  } =
    config
  in
  (match fleet with
   | Some f when Fleet.primary f != runner ->
     invalid_arg "Experiment.run_campaign: the fleet's primary runner differs"
   | _ -> ());
  Runner.set_hardening runner hardening;
  Runner.set_backend runner backend;
  Runner.set_metrics runner metrics;
  (match journal with Some j -> Journal.set_metrics j metrics | None -> ());
  let mtime name f =
    match metrics with
    | Some m -> Kfi_obs.Metrics.time m name f
    | None -> f ()
  in
  let total = List.length targets in
  let letter = Target.campaign_letter campaign in
  (* a resumed journal must have been written under the same config —
     otherwise the enumeration itself differs and entries are garbage *)
  (match journal with
   | Some j ->
     Journal.check_fingerprint j ~fingerprint:(Config.fingerprint config)
   | None -> ());
  (match telemetry with
   | Some tm ->
     Telemetry.event tm "campaign_start"
       [ ("campaign", Telemetry.Str letter);
         ("targets", Telemetry.Int total);
         ("subsample", Telemetry.Int subsample);
         ("seed", Telemetry.Int seed);
       ]
   | None -> ());
  (* the planning pass: workload choice and oracle resolution are
     machine-independent, so they happen here, serially, whatever [jobs]
     is — workers then only ever touch their own runner *)
  let items =
    mtime "phase.plan" @@ fun () ->
    Array.of_list targets
    |> Array.map (fun (t : Target.t) ->
           let workload = workload_for profile t in
           let predicted = match oracle with Some o -> o t | None -> None in
           (* journal replay: oracle-pruned targets are recomputed above
              (they were never journaled); everything else found in the
              journal is surfaced from its entry instead of re-run.  The
              deterministic cycle count rides along so the replayed
              telemetry matches a live run's *)
           let done_ =
             match (journal, predicted) with
             | Some j, None -> (
               match Journal.find j (Journal.key_of_target campaign t) with
               | Some e when e.Journal.e_workload = workload ->
                 Some
                   {
                     Fleet.res_outcome = e.Journal.e_outcome;
                     res_cycles = e.Journal.e_cycles;
                     res_predicted = e.Journal.e_predicted;
                     res_retries = e.Journal.e_retries;
                   }
               | _ -> None)
             | _ -> None
           in
           {
             Fleet.it_target = t;
             it_workload = workload;
             it_predicted = predicted;
             it_done = done_;
           })
  in
  (match metrics with
   | Some m ->
     let count p = Array.fold_left (fun a it -> if p it then a + 1 else a) 0 in
     Kfi_obs.Metrics.incr m ~by:total "campaign.targets";
     Kfi_obs.Metrics.incr m
       ~by:(count (fun it -> it.Fleet.it_predicted <> None) items)
       "campaign.pruned";
     Kfi_obs.Metrics.incr m
       ~by:(count (fun it -> it.Fleet.it_done <> None) items)
       "campaign.replayed"
   | None -> ());
  (* progress ticks and telemetry always fire in serial target order:
     the serial loop emits as it runs, the fleet's collector re-orders.
     Pruned and journal-replayed targets tick like any other, so tick
     counts are identical across prune/skip/resume. *)
  let emit i (it : Fleet.item) (res : Fleet.result) =
    (* the collector-merge span: progress + telemetry emission, on the
       collecting domain, in serial target order *)
    mtime "phase.collect" @@ fun () ->
    (match on_progress with Some f -> f ~done_:i ~total | None -> ());
    match telemetry with
    | Some tm ->
      telemetry_target tm letter it.Fleet.it_target ~workload:it.Fleet.it_workload
        ~outcome:res.Fleet.res_outcome ~predicted:res.Fleet.res_predicted
        ~retries:res.Fleet.res_retries ~cycles:res.Fleet.res_cycles
    | None -> ()
  in
  (* the journal hook fires in *completion* order, on the domain that ran
     the injection, the moment it finishes — a kill at any point loses at
     most the in-flight injections, never a completed one *)
  let journal_append _i (it : Fleet.item) (res : Fleet.result) =
    match journal with
    | Some j when it.Fleet.it_done = None && not res.Fleet.res_predicted ->
      let t = it.Fleet.it_target in
      Journal.append j
        {
          Journal.e_campaign = campaign;
          e_fn = t.Target.t_fn;
          e_addr = t.Target.t_addr;
          e_byte = t.Target.t_byte;
          e_bit = t.Target.t_bit;
          e_workload = it.Fleet.it_workload;
          e_outcome = res.Fleet.res_outcome;
          e_predicted = res.Fleet.res_predicted;
          e_retries = res.Fleet.res_retries;
          e_cycles = res.Fleet.res_cycles;
        }
    | _ -> ()
  in
  let results =
    if jobs <= 1 then
      Array.mapi
        (fun i it ->
          let res = Fleet.run_item_safe ~policy runner it in
          journal_append i it res;
          emit i it res;
          res)
        items
    else begin
      let pool =
        match fleet with
        | Some f ->
          Fleet.ensure f ~jobs;
          f
        | None -> Fleet.create ~jobs runner
      in
      Fleet.run ~jobs ~policy ?metrics ~on_result:emit
        ~on_complete:journal_append pool items
    end
  in
  (* completion tick: per-target ticks report the count *before* each
     target, so consumers would otherwise never see done_ = total.  On an
     empty campaign (total = 0) the per-target loop emits nothing and this
     is the run's one and only tick — never two. *)
  (match on_progress with Some f -> f ~done_:total ~total | None -> ());
  (match telemetry with
   | Some tm ->
     let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
     let run = count (fun r -> not r.Fleet.res_predicted) in
     let activated =
       count (fun r ->
           (not r.Fleet.res_predicted) && Outcome.is_activated r.Fleet.res_outcome)
     in
     let aborted =
       count (fun r ->
           match r.Fleet.res_outcome with
           | Outcome.Harness_abort _ -> true
           | _ -> false)
     in
     Telemetry.event tm "campaign_end"
       [ ("campaign", Telemetry.Str letter);
         ("targets", Telemetry.Int total);
         ("run", Telemetry.Int run);
         ("pruned", Telemetry.Int (total - run));
         ("activated", Telemetry.Int activated);
         ("aborted", Telemetry.Int aborted);
       ]
   | None -> ());
  Array.to_list
    (Array.mapi
       (fun i (it : Fleet.item) ->
         {
           r_campaign = campaign;
           r_target = it.Fleet.it_target;
           r_workload = it.Fleet.it_workload;
           r_outcome = results.(i).Fleet.res_outcome;
           r_predicted = results.(i).Fleet.res_predicted;
           r_retries = results.(i).Fleet.res_retries;
         })
       items)

(* The planning half of a campaign, exposed so the shard supervisor can
   split the very same target list the serial path would run. *)
let plan ?(config = Config.default) runner profile campaign =
  let fns = campaign_functions runner profile campaign in
  Target.enumerate (Runner.build runner) ~campaign ~seed:config.Config.seed fns
  |> subsample_targets ~subsample:config.Config.subsample

(* The normal campaign entry: enumerate, subsample, run. *)
let run_campaign ?(config = Config.default) ?fleet runner profile campaign =
  run_targets ~config ?fleet runner profile campaign
    (plan ~config runner profile campaign)

(* RFC 4180 field quoting: fields holding a comma, quote or line break
   are double-quoted, with embedded quotes doubled. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* CSV export for offline analysis. *)
let to_csv records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "campaign,function,subsystem,addr,byte,bit,workload,outcome,cause,latency,crash_fn,crash_subsys,severity,dumped,predicted,retries,propagation\n";
  List.iter
    (fun r ->
      let t = r.r_target in
      let outcome, cause, latency, cfn, csub, sev, dumped, path =
        match r.r_outcome with
        | Outcome.Not_activated -> ("not_activated", "", "", "", "", "", "", "")
        | Outcome.Not_manifested -> ("not_manifested", "", "", "", "", "", "", "")
        | Outcome.Fail_silence_violation (why, sev) ->
          ("fsv", why, "", "", "", Outcome.severity_name sev, "", "")
        | Outcome.Crash c ->
          ( "crash",
            Outcome.cause_name c.Outcome.cause,
            string_of_int c.Outcome.latency,
            Option.value ~default:"" c.Outcome.crash_fn,
            Option.value ~default:"" c.Outcome.crash_subsys,
            Outcome.severity_name c.Outcome.severity,
            string_of_bool c.Outcome.dumped,
            Forensics.path_to_string c.Outcome.propagation )
        | Outcome.Hang sev ->
          ("hang", "", "", "", "", Outcome.severity_name sev, "", "")
        | Outcome.Harness_abort a ->
          ("harness_abort", a.Outcome.ha_reason, "", "", "", "", "", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,0x%lx,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%d,%s\n"
           (Target.campaign_letter r.r_campaign)
           (csv_field t.Target.t_fn) (csv_field t.Target.t_subsys)
           t.Target.t_addr t.Target.t_byte t.Target.t_bit
           (List.nth Kfi_workload.Progs.names r.r_workload)
           outcome (csv_field cause) latency (csv_field cfn) (csv_field csub)
           sev dumped
           (if r.r_predicted then "yes" else "no")
           r.r_retries (csv_field path)))
    records;
  Buffer.contents buf
