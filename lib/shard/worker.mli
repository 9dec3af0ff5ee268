(** The [kfi-worker] process body, and the shard-execution routine it
    shares with the supervisor's inline fallback. *)

val run_shard :
  runner:Kfi_injector.Runner.t ->
  policy:Kfi_injector.Fleet.policy ->
  fingerprint:string ->
  dir:string ->
  campaign:Kfi_injector.Target.campaign ->
  Proto.shard ->
  on_entry:(Kfi_injector.Journal.entry -> Kfi_injector.Fleet.result -> unit) ->
  int
(** Execute a shard against [runner], resuming from (and fsync-appending
    to) the shard's journal under [dir]: targets already journaled by a
    previous owner are skipped, everything else runs through
    {!Kfi_injector.Fleet.run_item_safe} under [policy].  [on_entry]
    fires after each append — the entry is already durable.  Returns
    the number of entries appended by this call. *)

val main : unit -> unit
(** The worker process: redirect stray stdout to stderr, speak
    {!Proto} on the original stdin/stdout, boot a runner lazily on the
    first [Assign], loop until [Shutdown]/EOF.  Honors the
    [KFI_WORKER_CHAOS_POISON] / [KFI_WORKER_CHAOS_WEDGE] /
    [KFI_WORKER_CHAOS_DIE_AFTER] environment knobs (see the
    implementation header) used by tests and the CI chaos stage. *)
