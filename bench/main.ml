(* The paper's evaluation: regenerates every table and figure from a
   fresh fault-injection study, plus the extension experiments that vary
   what the injection ledger (benchledger/) keeps fixed: the interface
   assertions, the fault model, the static oracle, the trace level and
   the metrics plane.  The study's speed is measured by the ledger.

   Usage:
     bench/main.exe                 # everything, scaled-down campaigns
     bench/main.exe table1 fig4     # selected experiments
     bench/main.exe --subsample 3   # denser sweep
     bench/main.exe obs --max-overhead-pct 5   # exit 1 above 5% overhead

   Experiment ids: table1 fig1 table4 fig4 table5 fig6 fig7 fig8 ablation regcmp
   oracle trace obs.  Any other argument exits 2. *)

let ids =
  [ "table1"; "fig1"; "table4"; "fig4"; "table5"; "fig6"; "fig7"; "fig8"; "ablation";
    "regcmp"; "oracle"; "trace"; "obs" ]

let header title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title (String.make 78 '=')

(* The wanted ids (all of them when none is given), --subsample and
   --max-overhead-pct; any other argument is a usage error. *)
let parse_args args =
  let usage bad =
    Printf.eprintf
      "bench: bad argument %S\n\
       usage: main.exe [ID...] [--subsample N] [--max-overhead-pct P]\n\
       ids: %s\n"
      bad (String.concat " " ids);
    exit 2
  in
  let rec go wanted subsample cap = function
    | [] -> ((if wanted = [] then ids else wanted), subsample, cap)
    | ("--subsample" as flag) :: v :: tl -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> go wanted n cap tl
      | _ -> usage (flag ^ " " ^ v))
    | ("--max-overhead-pct" as flag) :: v :: tl -> (
      match float_of_string_opt v with
      | Some p -> go wanted subsample (Some p) tl
      | None -> usage (flag ^ " " ^ v))
    | id :: tl when List.mem id ids -> go (id :: wanted) subsample cap tl
    | bad :: _ -> usage bad
  in
  go [] 12 None args

let () =
  let wanted, subsample, max_overhead_pct =
    parse_args (List.tl (Array.to_list Sys.argv))
  in
  let want x = List.mem x wanted in
  let need_study =
    List.exists want
      [ "table1"; "fig4"; "table5"; "fig6"; "fig7"; "fig8"; "ablation"; "regcmp"; "oracle";
        "trace"; "obs" ]
  in
  if need_study then begin
    Printf.eprintf "bench: booting kernel, golden runs, profiling...\n%!";
    let study = Kfi.Study.prepare () in
    let profile = study.Kfi.Study.profile in
    let build = Kfi.Study.build study in
    if want "table1" then begin
      header "Table 1 — Function Distribution Among Kernel Modules";
      print_string (Kfi.Analysis.Report.table1 profile ~core:study.Kfi.Study.core);
      print_newline ();
      print_string (Kfi.Analysis.Report.profile_detail profile ~core:study.Kfi.Study.core)
    end;
    if want "fig1" then begin
      header "Figure 1 — Size of Kernel Subsystems";
      print_string (Kfi.Analysis.Report.fig1 build)
    end;
    if want "table4" then begin
      header "Table 4 — Fault Injection Campaigns";
      print_string Kfi.Analysis.Report.table4
    end;
    let need_records =
      List.exists want [ "fig4"; "table5"; "fig6"; "fig7"; "fig8" ]
    in
    if need_records then begin
      Printf.eprintf "bench: running campaigns (subsample %d)...\n%!" subsample;
      let on_progress ~done_ ~total =
        if done_ mod 100 = 0 then Printf.eprintf "\r  %d/%d%!" done_ total
      in
      let records =
        Kfi.Study.run_campaigns
          ~config:(Kfi.Config.make ~subsample ~on_progress ())
          study ()
      in
      Printf.eprintf "\r  %d experiments done\n%!" (List.length records);
      if want "fig4" then begin
        header "Figure 4 — Error Activation and Failure Distribution";
        print_string (Kfi.Analysis.Report.fig4 records)
      end;
      if want "fig6" then begin
        header "Figure 6 — Distribution of Crash Causes";
        print_string (Kfi.Analysis.Report.fig6 records)
      end;
      if want "fig7" then begin
        header "Figure 7 — Crash Latency in CPU Cycles";
        print_string (Kfi.Analysis.Report.fig7 records)
      end;
      if want "fig8" then begin
        header "Figure 8 — Error Propagation";
        print_string (Kfi.Analysis.Report.fig8 records)
      end;
      if want "table5" then begin
        header "Table 5 — Summary of Most Severe Crashes";
        print_string (Kfi.Analysis.Report.table5 records)
      end
    end;
    if want "regcmp" then begin
      header
        "Extension — instruction-stream vs direct register corruption (paper footnote 1)";
      let pie tag records =
        let p = Kfi.Analysis.Stats.outcome_pie records in
        let _, total = Kfi.Analysis.Stats.fig4_rows records in
        let act = total.Kfi.Analysis.Stats.f4_activated in
        let pc n = Kfi.Analysis.Stats.pct n act in
        Printf.printf
          "%-24s activated %4d: not manifested %4.1f%% | fsv %4.1f%% | crash %4.1f%% | hang/unknown %4.1f%%\n"
          tag act
          (pc p.Kfi.Analysis.Stats.p_not_manifested)
          (pc p.Kfi.Analysis.Stats.p_fsv)
          (pc p.Kfi.Analysis.Stats.p_dumped_crash)
          (pc p.Kfi.Analysis.Stats.p_hang_unknown)
      in
      Printf.eprintf "bench: campaign A (instruction stream)...\n%!";
      let a =
        Kfi.Study.run_campaign
          ~config:(Kfi.Config.make ~subsample:(subsample * 2) ())
          study Kfi.Campaign.A
      in
      Printf.eprintf "bench: campaign R (register corruption)...\n%!";
      let r =
        Kfi.Study.run_campaign
          ~config:(Kfi.Config.make ~subsample:(max 1 (subsample / 2)) ())
          study Kfi.Campaign.R
      in
      pie "A: instruction stream" a;
      pie "R: register bits" r;
      let causes tag records =
        let cs = Kfi.Analysis.Stats.crash_causes records in
        let total = List.fold_left (fun acc (_, n) -> acc + n) 0 cs in
        Printf.printf "%-24s crash causes:" tag;
        List.iter
          (fun (name, n) ->
            Printf.printf " %s %.0f%%," name (Kfi.Analysis.Stats.pct n total))
          cs;
        print_newline ()
      in
      causes "A: instruction stream" a;
      causes "R: register bits" r;
      Printf.printf
        "\n(footnote 1 of the paper argues instruction-stream errors subsume register\n corruption: manifesting register errors indeed crash through the same causes,\n but register flips are transient and mostly benign, unlike persistent text\n corruption)\n"
    end;
    if want "ablation" then begin
      header
        "Ablation — interface assertions at subsystem boundaries (paper Section 7.4)";
      let summarize tag records =
        let _, total = Kfi.Analysis.Stats.fig4_rows records in
        let prop, crashes = Kfi.Analysis.Stats.propagation_rate records in
        let ms = List.length (Kfi.Analysis.Stats.most_severe records) in
        Printf.printf
          "%-22s activated %4d | crash/hang %4d (%4.1f%% of activated) | propagated %3d/%d | most severe %d\n"
          tag total.Kfi.Analysis.Stats.f4_activated total.Kfi.Analysis.Stats.f4_crash_hang
          (Kfi.Analysis.Stats.pct total.Kfi.Analysis.Stats.f4_crash_hang
             total.Kfi.Analysis.Stats.f4_activated)
          prop crashes ms
      in
      Printf.eprintf "bench: ablation baseline (campaign A)...\n%!";
      let base =
        Kfi.Study.run_campaign
          ~config:(Kfi.Config.make ~subsample:(subsample * 2) ())
          study Kfi.Campaign.A
      in
      Printf.eprintf "bench: ablation hardened (campaign A)...\n%!";
      let hard =
        Kfi.Study.run_campaign
          ~config:(Kfi.Config.make ~subsample:(subsample * 2) ~hardening:true ())
          study Kfi.Campaign.A
      in
      summarize "baseline kernel" base;
      summarize "hardened interfaces" hard;
      Printf.printf
        "\n(hardened: fs/mm entry points validate their data structures and kill the\n offending process instead of corrupting kernel state — the containment\n strategy the paper proposes from its propagation analysis)\n"
    end;
    if want "oracle" then begin
      header "Extension — static mutation oracle: campaign pruning and validation";
      let oracle = Kfi.Study.make_oracle study in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      Printf.eprintf "bench: campaign A without oracle...\n%!";
      let plain, t_plain =
        timed (fun () ->
            Kfi.Study.run_campaign ~config:(Kfi.Config.make ~subsample ()) study
              Kfi.Campaign.A)
      in
      Printf.eprintf "bench: campaign A with oracle pruning...\n%!";
      let pruned, t_pruned =
        timed (fun () ->
            Kfi.Study.run_campaign
              ~config:(Kfi.Config.make ~subsample ~oracle ())
              study Kfi.Campaign.A)
      in
      let n_pruned = List.length (List.filter (fun r -> r.Kfi.Injector.Experiment.r_predicted) pruned) in
      Printf.printf "%-28s %6d experiments in %6.2f s\n" "without oracle"
        (List.length plain) t_plain;
      Printf.printf "%-28s %6d experiments in %6.2f s  (%d pruned statically, %.1f%% faster)\n"
        "with oracle" (List.length pruned) t_pruned n_pruned
        (100. *. (t_plain -. t_pruned) /. t_plain);
      (* pruning must not disturb the failure statistics *)
      let pie tag records =
        let p = Kfi.Analysis.Stats.outcome_pie records in
        Printf.printf
          "%-28s not manifested %4d | fsv %3d | crash %4d | hang/unknown %3d\n" tag
          p.Kfi.Analysis.Stats.p_not_manifested p.Kfi.Analysis.Stats.p_fsv
          p.Kfi.Analysis.Stats.p_dumped_crash p.Kfi.Analysis.Stats.p_hang_unknown
      in
      pie "without oracle" plain;
      pie "with oracle" pruned;
      (* pruning must only replace rows, never change the others: the
         CSVs agree byte-for-byte once oracle-predicted rows are dropped
         from both sides *)
      let drop_predicted a b =
        List.combine a b
        |> List.filter (fun (_, (p : Kfi.Injector.Experiment.record)) ->
               not p.Kfi.Injector.Experiment.r_predicted)
        |> List.split
      in
      let plain', pruned' = drop_predicted plain pruned in
      let csv_same =
        String.equal (Kfi.Study.to_csv plain') (Kfi.Study.to_csv pruned')
      in
      Printf.printf "CSV modulo oracle-predicted rows: %s\n"
        (if csv_same then "byte-identical" else "DIFFERS (BUG)");
      print_newline ();
      (* predicted-vs-observed confusion matrix over the unpruned run *)
      print_string (Kfi.Analysis.Report.oracle_matrix oracle plain);
      print_string (Kfi.Analysis.Report.slice_matrix oracle plain);
      (* static-analysis throughput and the interprocedural prune-rate
         gain over the per-function baseline *)
      let module Target = Kfi.Injector.Target in
      let module Oracle = Kfi.Staticoracle.Oracle in
      let fns =
        List.filter_map
          (fun (f : Kfi.Asm.Assembler.fn_info) ->
            if
              List.mem f.Kfi.Asm.Assembler.f_subsys
                Kfi.Injector.Experiment.injectable_subsystems
            then Some f.Kfi.Asm.Assembler.f_name
            else None)
          build.Kfi.Kernel.Build.funcs
      in
      let targets = Target.enumerate build ~campaign:Target.A ~seed:42 fns in
      let n_targets = List.length targets in
      let count_equiv o =
        List.length
          (List.filter
             (fun t ->
               match Oracle.classify o t with
               | Oracle.Equivalent _ -> true
               | _ -> false)
             targets)
      in
      let intra = Oracle.create ~interprocedural:false build in
      let n_intra = count_equiv intra in
      (* force the call graph + summaries outside the timed region *)
      ignore (Oracle.summaries oracle);
      let (), t_classify = timed (fun () -> ignore (count_equiv oracle)) in
      let n_ip = count_equiv oracle in
      let (), t_slice =
        timed (fun () -> List.iter (fun t -> ignore (Oracle.slice oracle t)) targets)
      in
      let rate n t = if t > 0. then float_of_int n /. t else 0. in
      Printf.printf
        "\nprune rate: %d/%d targets (%.1f%%) interprocedural vs %d (%.1f%%) \
         intraprocedural\n"
        n_ip n_targets
        (Kfi.Analysis.Stats.pct n_ip n_targets)
        n_intra
        (Kfi.Analysis.Stats.pct n_intra n_targets);
      Printf.printf "classify: %.0f targets/s; classify+slice: %.0f targets/s\n"
        (rate n_targets t_classify)
        (rate n_targets t_slice);
      let json =
        Kfi.Trace.Telemetry.(
          Obj
            [
              ("experiment", Str "oracle");
              ("campaign", Str "A");
              ("subsample", Int subsample);
              ("targets_enumerated", Int n_targets);
              ("pruned_interprocedural", Int n_ip);
              ("pruned_intraprocedural", Int n_intra);
              ("prune_rate", Float (Kfi.Analysis.Stats.pct n_ip n_targets));
              ( "prune_rate_intraprocedural",
                Float (Kfi.Analysis.Stats.pct n_intra n_targets) );
              ("classify_targets_per_s", Float (rate n_targets t_classify));
              ("slice_targets_per_s", Float (rate n_targets t_slice));
              ("campaign_s_without_oracle", Float t_plain);
              ("campaign_s_with_oracle", Float t_pruned);
              ("experiments_without_oracle", Int (List.length plain));
              ("experiments_pruned_in_run", Int n_pruned);
              ("csv_identical_modulo_predicted", Bool csv_same);
            ])
      in
      let oc = open_out "BENCH_oracle.json" in
      output_string oc (Kfi.Trace.Telemetry.to_string json ^ "\n");
      close_out oc;
      Printf.printf "wrote BENCH_oracle.json\n"
    end;
    if want "trace" then begin
      header "Extension — flight recorder overhead (campaign A per trace level)";
      let runner = study.Kfi.Study.runner in
      let sweep level name =
        Kfi.Injector.Runner.set_trace_level runner level;
        Printf.eprintf "bench: campaign A with tracing %s...\n%!" name;
        let t0 = Unix.gettimeofday () in
        let records =
          Kfi.Study.run_campaign ~config:(Kfi.Config.make ~subsample ()) study
            Kfi.Campaign.A
        in
        (name, Unix.gettimeofday () -. t0, List.length records)
      in
      let off = sweep Kfi.Isa.Trace.Off "off" in
      let ring = sweep Kfi.Isa.Trace.Ring "ring" in
      let full = sweep Kfi.Isa.Trace.Full "full" in
      Kfi.Injector.Runner.set_trace_level runner Kfi.Isa.Trace.Ring;
      let _, t_off, _ = off in
      List.iter
        (fun (name, dt, n) ->
          Printf.printf
            "tracing %-6s %6d experiments in %6.2f s  (%6.1f inj/s, %+5.1f%% vs off)\n"
            name n dt
            (float_of_int n /. dt)
            (100. *. (dt -. t_off) /. t_off))
        [ off; ring; full ];
      Printf.printf
        "\n(with the recorder off the per-instruction cost is one level compare;\n\
        \ the ring level buys every crash a propagation path, full adds machine\n\
        \ events — the price of always-on forensics)\n"
    end;
    if want "obs" then begin
      header
        "Extension — observability plane (campaign A: metrics off / on, phase \
         shares)";
      let module Metrics = Kfi.Obs.Metrics in
      let module Writer = Kfi.Obs.Writer in
      let now () = Unix.gettimeofday () in
      let runner = study.Kfi.Study.runner and profile = study.Kfi.Study.profile in
      let targets =
        Kfi.Injector.Experiment.plan ~config:(Kfi.Config.make ~subsample ()) runner profile
          Kfi.Campaign.A
      in
      let m = Metrics.create ~name:"bench" () in
      let stream = Filename.temp_file "kfi_bench_obs" ".jsonl" in
      let w =
        Writer.create ~interval_ms:200 ~path:stream (fun () -> Metrics.snapshot m)
      in
      (* One target as a one-target campaign, metrics off or on (with the
         writer riding the progress ticks, as in kfi-campaign). *)
      let run_one ~on target =
        let config =
          if on then
            Kfi.Config.make ~subsample ~metrics:m
              ~on_progress:(fun ~done_:_ ~total:_ -> Writer.maybe_tick w)
              ()
          else Kfi.Config.make ~subsample ()
        in
        let t0 = now () in
        let r =
          Kfi.Injector.Experiment.run_targets ~config runner profile Kfi.Campaign.A [ target ]
        in
        (r, now () -. t0)
      in
      (* Each target runs back to back with metrics off and on, [rounds]
         times, half of them with each arm first.  A target's overhead
         is the median of its on/off ratios: the two arms of a pair ran
         a few milliseconds apart, so a drift of the host's speed hits
         both alike; a burst that spoils one round is outvoted; and the
         second run of a pair, which finds the target's memory in the
         host's caches, is the off arm as often as the on arm.  The gate
         is the mean overhead over the activated targets, each of which
         runs the metrics path once.  Weighting them equally keeps the
         few long ones (the interpreter runs hangs to the watchdog for
         over a second, long enough for the host's speed to change
         between the arms) from deciding it, and it is no lower than
         the wall ratio when, as here, the metrics cost about the same
         per injection.  Not-activated targets take microseconds and
         are left out of the mean; the wall ratio below counts them.
         The first round's records are the ones compared. *)
      let rounds = 4 in
      let n = List.length targets in
      let off_s = Array.make_matrix n rounds 0. and on_s = Array.make_matrix n rounds 0. in
      let base = ref [] and on_ = ref [] in
      for round = 0 to rounds - 1 do
        Printf.eprintf "bench: campaign A, metrics off and on per target (round %d of %d)...\n%!"
          (round + 1) rounds;
        List.iteri
          (fun i target ->
            let arm on =
              let r, dt = run_one ~on target in
              if round = 0 then
                if on then on_ := List.rev_append r !on_ else base := List.rev_append r !base;
              (if on then on_s else off_s).(i).(round) <- dt
            in
            if (round + i) mod 2 = 0 then begin
              arm false;
              arm true
            end
            else begin
              arm true;
              arm false
            end)
          targets
      done;
      Writer.close w;
      let snap = Metrics.snapshot m in
      let median a =
        let a = Array.copy a in
        Array.sort compare a;
        let k = Array.length a in
        if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.
      in
      let t_off = Array.fold_left (fun acc a -> acc +. median a) 0. off_s
      and t_on = Array.fold_left (fun acc a -> acc +. median a) 0. on_s in
      let base = List.rev !base and on_ = List.rev !on_ in
      let wall_pct = 100. *. ((t_on /. t_off) -. 1.) in
      let ratios =
        List.concat
          (List.mapi
             (fun i r ->
               if Kfi.Injector.Outcome.is_activated r.Kfi.Injector.Experiment.r_outcome then
                 [ median (Array.map2 ( /. ) on_s.(i) off_s.(i)) ]
               else [])
             base)
      in
      let activated = List.length ratios in
      let overhead_pct =
        100. *. ((List.fold_left ( +. ) 0. ratios /. float_of_int (max 1 activated)) -. 1.)
      in
      let csv_same =
        String.equal (Kfi.Study.to_csv base) (Kfi.Study.to_csv on_)
      in
      Printf.printf "median of %d back-to-back off/on pairs per target:\n" rounds;
      Printf.printf "metrics off  %6d experiments in %6.2f s\n" n t_off;
      Printf.printf "metrics on   %6d experiments in %6.2f s  (wall %+5.1f%%)\n"
        (List.length on_) t_on wall_pct;
      Printf.printf "metrics overhead per activated injection: %+5.1f%% (mean of %d)\n"
        overhead_pct activated;
      Printf.printf "CSV %s across off / on\n"
        (if csv_same then "byte-identical" else "DIFFERS (BUG)");
      let shares = Option.value ~default:[] (Writer.phase_shares snap) in
      List.iter
        (fun (name, pct) -> Printf.printf "  %-10s %5.1f%% of injection wall\n" name pct)
        shares;
      let hist_ms key q =
        match Metrics.hist snap key with
        | Some h -> Metrics.quantile h q *. 1000.
        | None -> 0.
      in
      let json =
        Kfi.Trace.Telemetry.(
          Obj
            [
              ("experiment", Str "obs");
              ("campaign", Str "A");
              ("subsample", Int subsample);
              ("experiments", Int n);
              ("rounds", Int rounds);
              ("targets_s_metrics_off", Float t_off);
              ("targets_s_metrics_on", Float t_on);
              ("overhead_pct", Float overhead_pct);
              ("wall_overhead_pct", Float wall_pct);
              ("csv_identical", Bool csv_same);
              ( "phase_shares_pct",
                Obj (List.map (fun (k, v) -> (k, Float v)) shares) );
              ("inj_wall_p50_ms", Float (hist_ms "inj.wall" 0.5));
              ("inj_wall_p99_ms", Float (hist_ms "inj.wall" 0.99));
              ("journal_fsync_p99_ms", Float (hist_ms "phase.journal_fsync" 0.99));
            ])
      in
      let oc = open_out "BENCH_obs.json" in
      output_string oc (Kfi.Trace.Telemetry.to_string json ^ "\n");
      close_out oc;
      Printf.printf "wrote BENCH_obs.json (stream: %s)\n" stream;
      Sys.remove stream;
      (try Sys.remove (Writer.rollup_path stream) with Sys_error _ -> ());
      match max_overhead_pct with
      | Some cap when overhead_pct > cap ->
        Printf.eprintf "bench: metrics overhead %.1f%% exceeds the %.1f%% cap\n"
          overhead_pct cap;
        exit 1
      | Some cap ->
        Printf.printf "overhead %.1f%% within the %.1f%% cap\n" overhead_pct cap
      | None -> ()
    end
  end;
  if want "fig1" && not need_study then begin
    header "Figure 1 — Size of Kernel Subsystems";
    print_string (Kfi.Analysis.Report.fig1 (Kfi.Kernel.Build.build ()))
  end;
  if want "table4" && not need_study then begin
    header "Table 4 — Fault Injection Campaigns";
    print_string Kfi.Analysis.Report.table4
  end
