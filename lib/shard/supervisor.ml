(* The supervising coordinator: process-level fault isolation for
   campaigns.

   The paper's harness only finished its >35,000 injections because the
   controller survived losing the machine under test at any moment
   (hardware watchdog + reboot loop, Section 3).  PR 4 gave this
   harness the same property against losing the *campaign process*
   (journal + resume); this module removes the remaining single point
   of failure while a campaign runs: injections execute in kfi-worker
   processes that the OS, not the OCaml runtime, isolates.  A worker
   SIGKILLed, OOM-killed, wedged or crashed takes down only its own
   incarnation — the coordinator reaps it, restarts the slot with
   exponential backoff, requeues the shard it held, and quarantines
   shards that keep killing their owners.

   One journal: the coordinator appends every entry a worker streams to
   the campaign journal as it arrives (the record path below), so a
   killed coordinator loses only the injections in flight and
   [--resume] picks up the rest.  Determinism: the output is
   byte-identical to a serial in-process run whatever the crash/restart
   interleaving.  The chain that guarantees it:
     1. planning (enumeration, subsampling, workload choice, oracle) is
        serial and deterministic, done once by the coordinator;
     2. outcomes are deterministic, so *which* process runs a target
        cannot matter, and the journal takes each key once;
     3. the final pass replays the journal through
        [Experiment.run_targets] with jobs = 1 — the very code path the
        CI kill/resume gate already holds byte-identical to an
        uninterrupted serial run (records, CSV, JSONL, ticks). *)

module J = Kfi_injector.Journal
module C = Kfi_injector.Config
module Fleet = Kfi_injector.Fleet
module Runner = Kfi_injector.Runner
module Target = Kfi_injector.Target
module Outcome = Kfi_injector.Outcome
module Experiment = Kfi_injector.Experiment
module M = Kfi_obs.Metrics
module Tel = Kfi_trace.Telemetry

(* ----- the record path ----- *)

(* The journal holds [key] for [workload] — the rule the serial replay
   uses to surface an entry instead of re-running its target. *)
let holds j key workload =
  match J.find j key with Some e -> e.J.e_workload = workload | None -> false

let unjournaled j campaign targets =
  List.filter
    (fun ((tgt : Target.t), workload) ->
      not (holds j (J.key_of_target campaign tgt) workload))
    targets

let record j (e : J.entry) =
  if holds j (J.key_of_entry e) e.J.e_workload then false
  else begin
    J.append j e;
    true
  end

let quarantine j campaign targets ~reason ~deaths =
  let missing = unjournaled j campaign targets in
  List.iter
    (fun ((tgt : Target.t), workload) ->
      J.append j
        {
          J.e_campaign = campaign;
          e_fn = tgt.Target.t_fn;
          e_addr = tgt.Target.t_addr;
          e_byte = tgt.Target.t_byte;
          e_bit = tgt.Target.t_bit;
          e_workload = workload;
          e_outcome =
            Outcome.Harness_abort { ha_reason = reason; ha_retries = deaths };
          e_predicted = false;
          e_retries = deaths;
          e_cycles = 0;
        })
    missing;
  List.length missing

(* ----- shard + worker-slot state ----- *)

type shard_status =
  | Pending
  | Assigned of int (* slot *)
  | Completed
  | Quarantined

type sstate = {
  shard : Proto.shard; (* the planned slice *)
  mutable status : shard_status;
  mutable deaths : int; (* consecutive zero-progress owner deaths *)
}

type slot = {
  idx : int;
  obs : M.t option; (* per-worker fork: takes in the worker's metrics *)
  mutable pid : int; (* 0 = not running *)
  mutable to_w : Unix.file_descr;
  mutable from_w : Unix.file_descr;
  mutable dec : Proto.Dec.t;
  mutable desync : bool; (* a corrupt frame: decode nothing more *)
  mutable ready : bool;
  mutable assigned : sstate option;
  mutable progress : int; (* entries journaled this assignment *)
  mutable beat : float;
  mutable restarts : int;
  mutable retired : bool; (* restart budget exhausted *)
  mutable restart_at : float; (* backoff deadline; 0 = none scheduled *)
}

type t = {
  sup : C.supervisor;
  config : C.t;
  campaign : Target.campaign;
  journal : J.t; (* the campaign journal: the one durable record *)
  exe : string;
  hello : Proto.hello;
  shards : sstate list; (* in sh_index order *)
  slots : slot array;
  rbuf : Bytes.t;
  ev_oc : out_channel option;
  metrics : M.t option;
  t0 : float;
}

let invalid_fd = Unix.stdin (* placeholder for slots not yet spawned *)

(* ----- small utilities ----- *)

let now () = Unix.gettimeofday ()

(* One JSONL line per supervisor event — the CI chaos artifact. *)
let log_event t ev kvs =
  match t.ev_oc with
  | None -> ()
  | Some oc ->
    output_string oc
      (Tel.to_string (Tel.Obj (("ts", Tel.Float (now () -. t.t0)) :: ("ev", Tel.Str ev) :: kvs)));
    output_char oc '\n';
    flush oc

let mincr t ?by key = match t.metrics with Some m -> M.incr m ?by key | None -> ()
let mgauge t key v = match t.metrics with Some m -> M.set_gauge m key v | None -> ()
let mobserve t key v = match t.metrics with Some m -> M.observe m key v | None -> ()

let worker_exe () =
  match Sys.getenv_opt "KFI_WORKER_EXE" with
  | Some p -> p
  | None -> (
    let dir = Filename.dirname Sys.executable_name in
    let candidates =
      [ Filename.concat dir "kfi_worker.exe";
        Filename.concat dir "../bin/kfi_worker.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
      failwith
        "Shard.Supervisor: kfi-worker binary not found next to the running \
         executable (set KFI_WORKER_EXE)")

(* ----- spawning and tearing down workers ----- *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn t s =
  let stdin_r, stdin_w = Unix.pipe () in
  let stdout_r, stdout_w = Unix.pipe () in
  (* the parent-retained ends must not leak into other workers *)
  Unix.set_close_on_exec stdin_w;
  Unix.set_close_on_exec stdout_r;
  let env =
    Array.append (Unix.environment ())
      (Array.of_list
         (List.map (fun (k, v) -> k ^ "=" ^ v) t.sup.C.sup_worker_env))
  in
  let pid =
    Unix.create_process_env t.exe [| t.exe |] env stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  s.pid <- pid;
  s.to_w <- stdin_w;
  s.from_w <- stdout_r;
  s.dec <- Proto.Dec.create ();
  s.desync <- false;
  s.ready <- false;
  s.assigned <- None;
  s.progress <- 0;
  s.beat <- now ();
  s.restart_at <- 0.;
  mincr t "sup.spawns";
  mgauge t (Printf.sprintf "sup.proc%d.pid" s.idx) (float_of_int pid);
  mgauge t (Printf.sprintf "sup.proc%d.live" s.idx) 1.;
  log_event t "spawn" [ ("slot", Tel.Int s.idx); ("pid", Tel.Int pid) ];
  (* EPIPE here means the child died instantly; reaping handles it *)
  try Proto.send_to_worker s.to_w (Proto.Hello t.hello)
  with Unix.Unix_error (Unix.EPIPE, _, _) -> ()

(* ----- the shard queue ----- *)

let next_pending t =
  List.find_opt (fun ss -> ss.status = Pending) t.shards

let pending_count t =
  List.length (List.filter (fun ss -> ss.status = Pending) t.shards)

let settled t =
  List.for_all
    (fun ss ->
      match ss.status with
      | Completed | Quarantined -> true
      | Pending | Assigned _ -> false)
    t.shards

let done_count t =
  List.length
    (List.filter
       (fun ss -> match ss.status with Completed | Quarantined -> true | _ -> false)
       t.shards)

let todo t ss = unjournaled t.journal t.campaign ss.shard.Proto.sh_targets

(* A requeued shard's next owner gets only what is not journaled yet *)
let try_assign t s =
  if s.pid <> 0 && s.ready && s.assigned = None then
    match next_pending t with
    | None -> ()
    | Some ss ->
      let sh_targets = todo t ss in
      ss.status <- Assigned s.idx;
      s.assigned <- Some ss;
      s.progress <- 0;
      s.beat <- now ();
      mgauge t
        (Printf.sprintf "sup.proc%d.shard" s.idx)
        (float_of_int ss.shard.Proto.sh_index);
      log_event t "assign"
        [ ("slot", Tel.Int s.idx);
          ("shard", Tel.Int ss.shard.Proto.sh_index);
          ("targets", Tel.Int (List.length sh_targets));
        ];
      (try
         Proto.send_to_worker s.to_w
           (Proto.Assign { ss.shard with Proto.sh_targets })
       with Unix.Unix_error (Unix.EPIPE, _, _) -> ())

(* ----- incoming frames ----- *)

let handle_msg t s (m : Proto.from_worker) =
  s.beat <- now ();
  match m with
  | Proto.Ready _pid ->
    s.ready <- true;
    log_event t "ready" [ ("slot", Tel.Int s.idx); ("pid", Tel.Int s.pid) ];
    try_assign t s
  | Proto.Claimed index ->
    log_event t "claim" [ ("slot", Tel.Int s.idx); ("shard", Tel.Int index) ]
  | Proto.Entry { en_entry; en_metrics } ->
    if record t.journal en_entry then s.progress <- s.progress + 1;
    mincr t "sup.entries";
    (match s.obs with
     | Some o ->
       M.add o en_metrics;
       M.incr o (Printf.sprintf "sup.proc%d.entries" s.idx)
     | None -> ())
  | Proto.Done index -> (
    match s.assigned with
    | Some ss when ss.shard.Proto.sh_index = index ->
      (* the worker streamed every target before acking, and the stream
         is read in order, so each one is journaled by now *)
      (match todo t ss with
       | [] -> ()
       | ((tgt : Target.t), _) :: _ ->
         failwith
           (Printf.sprintf
              "Shard.Supervisor: shard %d acked Done without an entry for \
               %s:%d:%d"
              index tgt.Target.t_fn tgt.Target.t_byte tgt.Target.t_bit));
      ss.status <- Completed;
      ss.deaths <- 0;
      s.assigned <- None;
      mgauge t (Printf.sprintf "sup.proc%d.shard" s.idx) (-1.);
      mgauge t "sup.shards_done" (float_of_int (done_count t));
      log_event t "done"
        [ ("slot", Tel.Int s.idx); ("shard", Tel.Int index);
          ("journaled", Tel.Int s.progress);
        ];
      try_assign t s
    | _ -> log_event t "stray_done" [ ("slot", Tel.Int s.idx); ("shard", Tel.Int index) ])

(* Act on every whole frame decoded so far.  A corrupt frame means a
   desynchronized stream that cannot be trusted: stop decoding it and
   kill the worker; the death path requeues what is not journaled. *)
let rec frames t s =
  if not s.desync then
    match Proto.Dec.next s.dec with
    | Ok None -> ()
    | Ok (Some m) ->
      handle_msg t s m;
      frames t s
    | Error e ->
      s.desync <- true;
      log_event t "protocol_error" [ ("slot", Tel.Int s.idx); ("error", Tel.Str e) ];
      if s.pid <> 0 then try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* ----- worker death ----- *)

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "signaled %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg

let handle_death t s ~how =
  s.pid <- 0;
  s.ready <- false;
  (* the dead worker's last frames may still sit in the pipe: journal
     them before its shard is requeued *)
  let rec read_rest () =
    match Unix.read s.from_w t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> ()
    | n ->
      Proto.Dec.feed s.dec t.rbuf n;
      read_rest ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_rest ()
    | exception Unix.Unix_error _ -> ()
  in
  read_rest ();
  frames t s;
  close_noerr s.to_w;
  close_noerr s.from_w;
  mgauge t (Printf.sprintf "sup.proc%d.live" s.idx) 0.;
  log_event t "death"
    [ ("slot", Tel.Int s.idx); ("how", Tel.Str how);
      ("progress", Tel.Int s.progress);
    ];
  (match s.assigned with
   | None -> ()
   | Some ss ->
     s.assigned <- None;
     let index = ss.shard.Proto.sh_index in
     (* consecutive *zero-progress* deaths: an incarnation that
        journaled at least one new entry resets the count — the shard
        is advancing and will finish, however many lives it costs *)
     if s.progress > 0 then ss.deaths <- 0 else ss.deaths <- ss.deaths + 1;
     if todo t ss = [] then ss.status <- Completed
     else if ss.deaths >= t.sup.C.sup_poison_deaths then begin
       let reason =
         Printf.sprintf "poison shard %d: killed %d consecutive workers (last: %s)"
           index ss.deaths how
       in
       let synthesized =
         quarantine t.journal t.campaign ss.shard.Proto.sh_targets ~reason
           ~deaths:ss.deaths
       in
       ss.status <- Quarantined;
       mincr t "sup.quarantined";
       log_event t "quarantine"
         [ ("shard", Tel.Int index); ("deaths", Tel.Int ss.deaths);
           ("synthesized", Tel.Int synthesized); ("reason", Tel.Str reason);
         ]
     end
     else begin
       (* requeue exactly once per death: the shard re-enters the queue
          here and nowhere else, and its next owner is assigned only
          the targets not yet journaled *)
       ss.status <- Pending;
       mincr t "sup.requeued";
       log_event t "requeue" [ ("shard", Tel.Int index); ("deaths", Tel.Int ss.deaths) ]
     end);
  s.restarts <- s.restarts + 1;
  mgauge t (Printf.sprintf "sup.proc%d.restarts" s.idx) (float_of_int s.restarts);
  if s.restarts > t.sup.C.sup_max_restarts then begin
    s.retired <- true;
    log_event t "retire" [ ("slot", Tel.Int s.idx); ("restarts", Tel.Int s.restarts) ]
  end
  else begin
    let delay_ms =
      Fleet.backoff_delay_ms ~policy:t.config.C.policy ~attempt:s.restarts
        ~salt:s.idx
    in
    s.restart_at <- now () +. (delay_ms /. 1000.);
    mincr t "sup.restarts";
    mobserve t "sup.backoff_s" (delay_ms /. 1000.);
    log_event t "restart_scheduled"
      [ ("slot", Tel.Int s.idx); ("attempt", Tel.Int s.restarts);
        ("delay_ms", Tel.Float delay_ms);
      ]
  end

let reap_blocking t s =
  match Unix.waitpid [] s.pid with
  | _, status -> handle_death t s ~how:(status_string status)
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    handle_death t s ~how:"unknown (ECHILD)"

let drain t s =
  match Unix.read s.from_w t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error ((Unix.EBADF | Unix.ECONNRESET), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 ->
    (* EOF: the worker closed stdout, i.e. it is exiting — reap now so
       the select loop does not spin on a permanently-readable fd *)
    reap_blocking t s
  | n ->
    Proto.Dec.feed s.dec t.rbuf n;
    frames t s

(* ----- the supervision loop ----- *)

let update_gauges t =
  let n = now () in
  Array.iter
    (fun s ->
      if s.pid <> 0 then
        mgauge t (Printf.sprintf "sup.proc%d.beat_age_s" s.idx) (n -. s.beat))
    t.slots;
  mgauge t "sup.shards_done" (float_of_int (done_count t))

let inline_fallback t runner =
  (* every worker slot is dead and out of restart budget, but shards
     remain: finish them in-process rather than stall the campaign, set
     up as a worker's runner would be *)
  Runner.set_hardening runner t.config.C.hardening;
  Runner.set_backend runner t.config.C.backend;
  Runner.set_metrics runner t.metrics;
  List.iter
    (fun ss ->
      if ss.status = Pending then begin
        log_event t "inline" [ ("shard", Tel.Int ss.shard.Proto.sh_index) ];
        Worker.run_shard ~runner ~policy:t.config.C.policy ~campaign:t.campaign
          { ss.shard with Proto.sh_targets = todo t ss }
          ~on_entry:(fun e ->
            ignore (record t.journal e);
            mincr t "sup.entries";
            match t.sup.C.sup_on_pulse with Some f -> f () | None -> ());
        ss.status <- Completed
      end)
    t.shards

let supervise t runner =
  let capacity_left () =
    Array.exists (fun s -> s.pid <> 0 || not s.retired) t.slots
  in
  while not (settled t) do
    let n = now () in
    (* restarts that have served their backoff, while work remains *)
    Array.iter
      (fun s ->
        if
          s.pid = 0 && (not s.retired) && s.restart_at > 0.
          && n >= s.restart_at
          && pending_count t > 0
        then spawn t s)
      t.slots;
    Array.iter (fun s -> if s.pid <> 0 then try_assign t s) t.slots;
    let fds =
      Array.to_list t.slots
      |> List.filter_map (fun s -> if s.pid <> 0 then Some s.from_w else None)
    in
    let readable, _, _ =
      if fds = [] then ([], [], [])
      else
        try Unix.select fds [] [] 0.05
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match
          Array.to_list t.slots
          |> List.find_opt (fun s -> s.pid <> 0 && s.from_w == fd)
        with
        | Some s -> drain t s
        | None -> ())
      readable;
    (* reap exits the pipe did not announce *)
    Array.iter
      (fun s ->
        if s.pid <> 0 then
          match Unix.waitpid [ Unix.WNOHANG ] s.pid with
          | 0, _ -> ()
          | _, status -> handle_death t s ~how:(status_string status)
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            handle_death t s ~how:"unknown (ECHILD)")
      t.slots;
    (* heartbeat: a worker silent too long while owning a shard is as
       good as dead — SIGKILL it and let the death path requeue *)
    let n = now () in
    Array.iter
      (fun s ->
        if
          s.pid <> 0 && s.assigned <> None
          && n -. s.beat > t.sup.C.sup_heartbeat_s
        then begin
          log_event t "wedged"
            [ ("slot", Tel.Int s.idx); ("silent_s", Tel.Float (n -. s.beat)) ];
          try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      t.slots;
    update_gauges t;
    (match t.sup.C.sup_on_pulse with Some f -> f () | None -> ());
    if pending_count t > 0 && not (capacity_left ()) then inline_fallback t runner
  done

(* Stop every live worker: ask the idle ones nicely and kill any still
   holding a shard (it reads no Shutdown before the shard ends), then
   give stragglers a moment.  Runs when the worker phase ends and when
   it raises. *)
let shutdown t =
  Array.iter
    (fun s ->
      if s.pid <> 0 then begin
        (if s.assigned <> None then
           try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
         else
           try Proto.send_to_worker s.to_w Proto.Shutdown
           with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
        close_noerr s.to_w
      end)
    t.slots;
  let deadline = now () +. 5. in
  Array.iter
    (fun s ->
      if s.pid <> 0 then begin
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] s.pid with
          | 0, _ ->
            if now () > deadline then begin
              (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] s.pid)
            end
            else begin
              Unix.sleepf 0.02;
              wait ()
            end
          | _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        wait ();
        close_noerr s.from_w;
        s.pid <- 0;
        mgauge t (Printf.sprintf "sup.proc%d.live" s.idx) 0.
      end)
    t.slots

(* ----- the entry point ----- *)

let run_campaign ~(config : C.t) runner profile campaign =
  let sup =
    match config.C.supervisor with
    | Some s -> s
    | None -> invalid_arg "Shard.Supervisor.run_campaign: no supervisor config"
  in
  (* plan exactly what the serial path would run *)
  let targets = Experiment.plan ~config runner profile campaign in
  let planned =
    List.map (fun tgt -> (tgt, Experiment.workload_for profile tgt)) targets
  in
  (* without --journal the record still goes through a journal: a temp
     file, gone once the replay has read it *)
  let journal, temp =
    match config.C.journal with
    | Some j -> (j, None)
    | None ->
      let path = Filename.temp_file "kfi-campaign" ".kj" in
      (J.open_ path, Some path)
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          J.close journal;
          try Sys.remove path with Sys_error _ -> ())
        temp)
    (fun () ->
      J.check_fingerprint journal ~fingerprint:(C.fingerprint config);
      (* what actually needs a worker: not oracle-predicted, not already
         journaled *)
      let pending =
        List.filter
          (fun ((tgt : Target.t), _) ->
            match config.C.oracle with Some o -> o tgt = None | None -> true)
          (unjournaled journal campaign planned)
      in
      let nshards =
        Plan.shard_count ~workers:sup.C.sup_workers ~shards:config.C.shards
          ~targets:(List.length pending)
      in
      let shards =
        Plan.split ~count:nshards pending
        |> List.map (fun shard -> { shard; status = Pending; deaths = 0 })
      in
      if shards <> [] then begin
        let exe = worker_exe () in
        let nslots = max 1 (min sup.C.sup_workers (List.length shards)) in
        let t =
          {
            sup;
            config;
            campaign;
            journal;
            exe;
            hello =
              {
                Proto.h_campaign = campaign;
                h_hardening = config.C.hardening;
                h_backend = config.C.backend;
                h_max_cycles = Runner.max_cycles runner;
                h_deadline_ms = config.C.policy.Fleet.deadline_ms;
                h_retries = config.C.policy.Fleet.retries;
              };
            shards;
            slots =
              Array.init nslots (fun idx ->
                  {
                    idx;
                    obs =
                      Option.map
                        (fun m ->
                          M.fork m ~name:(Printf.sprintf "sup.proc%d" idx))
                        config.C.metrics;
                    pid = 0;
                    to_w = invalid_fd;
                    from_w = invalid_fd;
                    dec = Proto.Dec.create ();
                    desync = false;
                    ready = false;
                    assigned = None;
                    progress = 0;
                    beat = 0.;
                    restarts = 0;
                    retired = false;
                    restart_at = 0.;
                  });
            rbuf = Bytes.create 65536;
            ev_oc =
              Option.map
                (open_out_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644)
                sup.C.sup_event_log;
            metrics = config.C.metrics;
            t0 = now ();
          }
        in
        mgauge t "sup.workers" (float_of_int nslots);
        mgauge t "sup.shards" (float_of_int (List.length shards));
        log_event t "start"
          [ ("campaign", Tel.Str (Target.campaign_letter campaign));
            ("workers", Tel.Int nslots);
            ("shards", Tel.Int (List.length shards));
            ("pending", Tel.Int (List.length pending));
            ("journal", Tel.Str (J.path journal));
          ];
        (* SIGPIPE would kill the coordinator on a write to a freshly
           dead worker; convert to EPIPE for the duration *)
        let prev_sigpipe =
          try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
          with Invalid_argument _ | Sys_error _ -> None
        in
        Fun.protect
          ~finally:(fun () ->
            shutdown t;
            (match prev_sigpipe with
             | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
             | None -> ());
            match t.ev_oc with Some oc -> close_out_noerr oc | None -> ())
          (fun () ->
            Array.iter (fun s -> spawn t s) t.slots;
            supervise t runner;
            log_event t "finish"
              [ ("quarantined",
                 Tel.Int
                   (List.length
                      (List.filter (fun ss -> ss.status = Quarantined) t.shards)));
              ])
      end;
      (* replay: every planned target is now either oracle-predicted or
         journaled, so this serial pass touches no machine and emits
         records/CSV/JSONL/progress byte-identical to a serial run — the
         exact code path the CI kill/resume gate certifies *)
      let config' =
        { config with C.jobs = 1; journal = Some journal; supervisor = None }
      in
      Experiment.run_targets ~config:config' runner profile campaign targets)
