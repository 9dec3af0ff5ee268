(** The [kfi-worker] process body, and the shard-execution routine it
    shares with the supervisor's inline fallback. *)

val run_shard :
  runner:Kfi_injector.Runner.t ->
  policy:Kfi_injector.Fleet.policy ->
  campaign:Kfi_injector.Target.campaign ->
  Proto.shard ->
  on_entry:(Kfi_injector.Journal.entry -> unit) ->
  unit
(** Execute every target of the shard against [runner], in order,
    through {!Kfi_injector.Fleet.run_item_safe} under [policy], and hand
    each finished injection's journal entry to [on_entry]. *)

val main : unit -> unit
(** The worker process: redirect stray stdout to stderr, speak
    {!Proto} on the original stdin/stdout, boot a runner lazily on the
    first [Assign], loop until [Shutdown]/EOF.  Honors the
    [KFI_WORKER_CHAOS_POISON] / [KFI_WORKER_CHAOS_WEDGE] /
    [KFI_WORKER_CHAOS_DIE_AFTER] environment knobs (see the
    implementation header) used by tests and the CI chaos stage. *)
