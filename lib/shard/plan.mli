(** Shard planning: split a campaign's planned (target, workload) list
    into shards named by their index. *)

val shard_count : workers:int -> shards:int -> targets:int -> int
(** The shard count for a run: [shards] if positive (capped by the
    target count), else [4 * workers] — small enough to amortize
    assignment chatter, large enough that losing a worker forfeits at
    most ~1/4 of one worker's share of progress.  0 when there is
    nothing to run. *)

val split : count:int -> (Kfi_injector.Target.t * int) list -> Proto.shard list
(** Contiguous balanced split preserving serial order: concatenating
    the result in [sh_index] order is the input list.  Empty shards
    (more shards requested than targets) are dropped. *)
