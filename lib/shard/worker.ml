(* The kfi-worker process body, and the shard-execution routine it
   shares with the supervisor's inline fallback.

   A worker is deliberately dumb: it speaks Proto on stdin/stdout,
   boots its own runner lazily (on the first Assign, so a worker that
   only ever gets poison shards never pays a kernel boot), executes the
   targets it is assigned with the same [Fleet.run_item_safe] the
   in-process paths use, and streams each finished injection to the
   coordinator, which journals it.  It keeps no state on disk: dying at
   any instant loses at most the injection in flight, and the next
   owner of the shard is assigned only the targets not yet journaled.

   Chaos knobs ride the environment so CI and tests can provoke every
   supervisor failure path without special builds:

     KFI_WORKER_CHAOS_POISON=i,j   SIGKILL self on claiming shard i/j
     KFI_WORKER_CHAOS_WEDGE=i,j    wedge (sleep) after claiming i/j
     KFI_WORKER_CHAOS_DIE_AFTER=n  SIGKILL self after n streamed entries

   Poison and wedge fire before the lazy runner boot, so the
   supervisor-facing failure tests cost no kernel boots at all. *)

module J = Kfi_injector.Journal
module M = Kfi_obs.Metrics
module Fleet = Kfi_injector.Fleet
module Runner = Kfi_injector.Runner
module Target = Kfi_injector.Target

type chaos = { poison : int list; wedge : int list; die_after : int option }

let chaos_of_env () =
  let ints name =
    match Sys.getenv_opt name with
    | None | Some "" -> []
    | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
  in
  {
    poison = ints "KFI_WORKER_CHAOS_POISON";
    wedge = ints "KFI_WORKER_CHAOS_WEDGE";
    die_after =
      Option.bind (Sys.getenv_opt "KFI_WORKER_CHAOS_DIE_AFTER") int_of_string_opt;
  }

(* Execute a shard's targets against [runner], in order, handing each
   finished injection's journal entry to [on_entry]. *)
let run_shard ~runner ~policy ~campaign (sh : Proto.shard) ~on_entry =
  List.iter
    (fun ((t : Target.t), workload) ->
      let item =
        { Fleet.it_target = t; it_workload = workload; it_predicted = None; it_done = None }
      in
      let res = Fleet.run_item_safe ~policy runner item in
      on_entry
        {
          J.e_campaign = campaign;
          e_fn = t.Target.t_fn;
          e_addr = t.Target.t_addr;
          e_byte = t.Target.t_byte;
          e_bit = t.Target.t_bit;
          e_workload = workload;
          e_outcome = res.Fleet.res_outcome;
          e_predicted = res.Fleet.res_predicted;
          e_retries = res.Fleet.res_retries;
          e_cycles = res.Fleet.res_cycles;
        })
    sh.Proto.sh_targets

let main () =
  (* The protocol owns fd 1.  Point stdout at stderr so any stray
     library print (boot chatter, debug output) cannot desynchronize
     the frame stream. *)
  let proto_out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let in_fd = Unix.stdin in
  let chaos = chaos_of_env () in
  let hello = ref None in
  let runner = ref None in
  (* each injection's metrics go out with its entry and start afresh *)
  let obs = ref (M.create ()) in
  let streamed = ref 0 in
  let self_destruct () = Unix.kill (Unix.getpid ()) Sys.sigkill in
  let rec loop () =
    match Proto.recv_to_worker in_fd with
    | None | Some Proto.Shutdown -> exit 0
    | Some (Proto.Hello h) ->
      hello := Some h;
      Proto.send_from_worker proto_out (Proto.Ready (Unix.getpid ()));
      loop ()
    | Some (Proto.Assign sh) ->
      let h =
        match !hello with
        | Some h -> h
        | None -> failwith "kfi-worker: Assign before Hello"
      in
      Proto.send_from_worker proto_out (Proto.Claimed sh.Proto.sh_index);
      if List.mem sh.Proto.sh_index chaos.poison then self_destruct ();
      if List.mem sh.Proto.sh_index chaos.wedge then Unix.sleep 3600;
      let r =
        match !runner with
        | Some r -> r
        | None ->
          let r = Runner.create ~max_cycles:h.Proto.h_max_cycles () in
          Runner.set_hardening r h.Proto.h_hardening;
          Runner.set_backend r h.Proto.h_backend;
          Runner.set_metrics r (Some !obs);
          runner := Some r;
          r
      in
      let policy =
        {
          Fleet.default_policy with
          Fleet.deadline_ms = h.Proto.h_deadline_ms;
          retries = h.Proto.h_retries;
        }
      in
      run_shard ~runner:r ~policy ~campaign:h.Proto.h_campaign sh
        ~on_entry:(fun en_entry ->
          let en_metrics = M.snapshot !obs in
          obs := M.create ();
          Runner.set_metrics r (Some !obs);
          Proto.send_from_worker proto_out (Proto.Entry { en_entry; en_metrics });
          incr streamed;
          match chaos.die_after with
          | Some n when !streamed >= n -> self_destruct ()
          | _ -> ());
      Proto.send_from_worker proto_out (Proto.Done sh.Proto.sh_index);
      loop ()
  in
  (* EPIPE on a send means the coordinator is gone: exit quietly — the
     campaign journal holds every entry it received. *)
  try loop () with
  | Unix.Unix_error (Unix.EPIPE, _, _) -> exit 0
  | Failure msg ->
    prerr_endline ("kfi-worker: " ^ msg);
    exit 1
