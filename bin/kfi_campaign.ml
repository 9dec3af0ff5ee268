(* Run the paper's fault-injection campaigns and print every table/figure.

   kfi-campaign                  # scaled-down sweep (fast)
   kfi-campaign --full           # full-scale target enumeration
   kfi-campaign -j 4             # four worker domains, same records
   kfi-campaign --backend cached # dirty-page restore + block engine, same records
   kfi-campaign -c A --subsample 20 --csv out.csv --jsonl out.jsonl
   kfi-campaign --journal run.kj # crash-safe: every injection fsync'd
   kfi-campaign --journal run.kj --resume   # continue after a SIGKILL
   kfi-campaign --metrics m.jsonl           # stream metric frames (kfi-stats)
   kfi-campaign --workers 4                 # process-isolated worker shards:
                                            # SIGKILL a worker, same records *)

open Cmdliner

let run campaigns subsample full csv_path jsonl_path seed quiet hardening jobs
    backend journal_path resume deadline_ms retries metrics_path
    metrics_interval_ms workers shards supervisor_log =
  let subsample = if full then 1 else subsample in
  Printf.eprintf "booting kernel + golden runs + profiling...\n%!";
  let study = Kfi.Study.prepare () in
  let journal =
    Option.map
      (fun path ->
        let j = Kfi.Injector.Journal.open_ ~resume path in
        if resume then begin
          Printf.eprintf "journal %s: %d completed injection(s) to skip%s\n%!"
            path
            (Kfi.Injector.Journal.loaded j)
            (if Kfi.Injector.Journal.torn_tail_truncated j then
               " (torn final entry truncated)"
             else "")
        end;
        j)
      journal_path
  in
  let policy =
    {
      Kfi.Injector.Fleet.default_policy with
      Kfi.Injector.Fleet.deadline_ms;
      retries;
    }
  in
  let metrics, metrics_writer =
    match metrics_path with
    | None -> (None, None)
    | Some path ->
      let m = Kfi.Obs.Metrics.create ~name:"campaign" () in
      let w =
        Kfi.Obs.Writer.create ~interval_ms:metrics_interval_ms ~path (fun () ->
            Kfi.Obs.Metrics.snapshot m)
      in
      (Some m, Some w)
  in
  let jsonl_oc = Option.map open_out jsonl_path in
  let telemetry =
    Option.map
      (fun oc ->
        Kfi.Trace.Telemetry.create
          ~sink:(fun line ->
            output_string oc line;
            output_char oc '\n')
          ())
      jsonl_oc
  in
  let campaigns =
    match campaigns with
    | [] -> [ Kfi.Campaign.A; Kfi.Campaign.B; Kfi.Campaign.C ]
    | l ->
      List.map
        (function
          | "A" | "a" -> Kfi.Campaign.A
          | "B" | "b" -> Kfi.Campaign.B
          | "C" | "c" -> Kfi.Campaign.C
          | "R" | "r" -> Kfi.Campaign.R
          | s -> failwith ("unknown campaign " ^ s))
        l
  in
  let on_progress ~done_ ~total =
    (* the writer is tickless: frames ride the progress callback *)
    (match metrics_writer with
     | Some w -> Kfi.Obs.Writer.maybe_tick w
     | None -> ());
    if (not quiet) && done_ mod 50 = 0 then
      Printf.eprintf "\r  %d/%d experiments%!" done_ total
  in
  let supervisor =
    if workers <= 0 then None
    else
      Some
        {
          Kfi.Config.default_supervisor with
          Kfi.Config.sup_workers = workers;
          sup_event_log = supervisor_log;
          sup_on_pulse =
            (* the tickless metrics writer has no progress callback to
               ride during the worker phase: pulse it from the
               supervision loop *)
            Option.map
              (fun w () -> Kfi.Obs.Writer.maybe_tick w)
              metrics_writer;
        }
  in
  (* every campaign of this run appends to the supervisor log *)
  if Option.is_some supervisor then Option.iter (fun p -> close_out (open_out p)) supervisor_log;
  let config =
    Kfi.Config.make ~subsample ~seed ~hardening ?telemetry ~on_progress ~jobs
      ~backend ?journal ~policy ?metrics ~shards ?supervisor ()
  in
  if jobs > 1 && Option.is_none supervisor then begin
    Printf.eprintf "booting %d worker runners...\n%!" (jobs - 1);
    ignore (Kfi.Study.fleet study ~jobs)
  end;
  let records =
    List.concat_map
      (fun c ->
        Printf.eprintf "campaign %s...\n%!" (Kfi.Injector.Target.campaign_letter c);
        let r = Kfi.Study.run_campaign ~config study c in
        Printf.eprintf "\r  %d experiments done\n%!" (List.length r);
        r)
      campaigns
  in
  print_string (Kfi.Study.report ?telemetry study records);
  (match csv_path with
   | Some path ->
     let oc = open_out path in
     output_string oc (Kfi.Study.to_csv records);
     close_out oc;
     Printf.eprintf "wrote %s\n%!" path
   | None -> ());
  (match (jsonl_oc, jsonl_path) with
   | Some oc, Some path ->
     close_out oc;
     Printf.eprintf "wrote %s\n%!" path
   | _ -> ());
  (match (journal, journal_path) with
   | Some j, Some path ->
     Printf.eprintf "journal %s: %d skipped, %d appended\n%!" path
       (Kfi.Injector.Journal.loaded j)
       (Kfi.Injector.Journal.appended j);
     Kfi.Injector.Journal.close j
   | _ -> ());
  (match (metrics_writer, metrics_path) with
   | Some w, Some path ->
     Kfi.Obs.Writer.close w;
     Printf.eprintf "wrote %s and %s (try: kfi-stats %s)\n%!" path
       (Kfi.Obs.Writer.rollup_path path)
       path
   | _ -> ());
  0

let campaigns_arg =
  Arg.(value & opt_all string [] & info [ "c"; "campaign" ] ~doc:"Campaign (A, B or C); repeatable.")

let subsample_arg =
  Kfi_cli.subsample ~default:12 ~doc:"Run every k-th target (1 = full scale)." ()

let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Full-scale sweep (subsample 1).")
let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write raw records to CSV.")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ]
        ~doc:"Write the telemetry event log (JSONL, one event per target).")
let seed_arg = Kfi_cli.seed ()
let quiet_arg = Kfi_cli.quiet ()

let hardening_arg =
  Arg.(
    value & flag
    & info [ "hardening" ]
        ~doc:"Enable the kernel's interface assertions (Section 7.4 ablation).")

let jobs_arg = Kfi_cli.jobs ()
let backend_arg = Kfi_cli.backend ()

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Crash-safe campaign journal: every completed injection is \
           CRC-framed and fsync'd to $(docv), so a run killed at any point \
           can be resumed with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from an existing $(b,--journal): completed targets are \
           skipped (a torn final entry is truncated and re-run) and the \
           final CSV/JSONL are identical to an uninterrupted run.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget per injection attempt; a miss is retried and a \
           persistent offender is quarantined as a harness abort.")

let retries_arg =
  Arg.(
    value
    & opt int Kfi.Injector.Fleet.default_policy.Kfi.Injector.Fleet.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retries (with exponential backoff, on a fresh runner from the \
           second retry) before a failing injection is quarantined.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Stream cumulative metric frames (JSONL) to $(docv) while the \
           campaign runs, plus a final rollup to $(docv).rollup — inspect \
           with $(b,kfi-stats).  Pure observation: records, CSV, telemetry \
           JSONL and the journal are byte-identical with or without it.")

let metrics_interval_arg =
  Arg.(
    value & opt int 500
    & info [ "metrics-interval-ms" ] ~docv:"MS"
        ~doc:"Frame interval for $(b,--metrics) (0 = only the final frame).")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Run each campaign as process-isolated shards executed by $(docv) \
           supervised $(b,kfi-worker) processes.  The coordinator appends \
           every injection a worker streams to the one campaign journal as \
           it arrives ($(b,--journal), so a killed run continues under \
           $(b,--resume); without it, a temp journal deleted at the end).  \
           A worker killed or wedged at any instant is restarted with \
           exponential backoff and its shard requeued; the CSV/JSONL/journal \
           are byte-identical to a serial run.  0 disables (in-process \
           execution).")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard count for $(b,--workers) (0 = 4x the worker count).  More \
           shards = finer-grained requeue on worker death, more assignment \
           chatter.")

let supervisor_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "supervisor-log" ] ~docv:"PATH"
        ~doc:
          "JSONL supervisor event log for $(b,--workers) (spawns, deaths, \
           requeues, quarantines, finished shards) — observability only, \
           never part of the determinism gate.")

let cmd =
  Cmd.v
    (Cmd.info "kfi-campaign" ~doc:"Kernel fault-injection campaigns (DSN'03 reproduction)")
    Term.(
      const run $ campaigns_arg $ subsample_arg $ full_arg $ csv_arg $ jsonl_arg
      $ seed_arg $ quiet_arg $ hardening_arg $ jobs_arg $ backend_arg
      $ journal_arg $ resume_arg $ deadline_arg $ retries_arg $ metrics_arg
      $ metrics_interval_arg $ workers_arg $ shards_arg
      $ supervisor_log_arg)

let () = exit (Cmd.eval' cmd)
