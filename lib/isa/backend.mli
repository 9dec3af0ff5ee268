(** The pluggable execution backend: run-until-event and
    snapshot/restore behind one interface, with two implementations.

    {!Interp} is the reference step interpreter (the pre-existing
    {!Machine.run} path) — the semantic ground truth every other backend
    is differentially checked against.  {!Cached} layers two caches on
    the same machine: dirty-page tracked restore (O(dirty pages) instead
    of a full-image copy) and a pre-decoded basic-block engine keyed by
    physical address, whose blocks re-check the bytes they were decoded
    from after a write to their page — so both caches survive across
    experiments, which touch only a few pages each.  Outcomes,
    registers, traces and telemetry are byte-identical between the two;
    the [backend.equiv] fuzz property and the CI byte-identity gates
    enforce it. *)

type kind = Interp | Cached

val kind_name : kind -> string
(** ["interp"] / ["cached"] — the CLI spelling. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_name} (also accepts ["interpreter"] and ["bb"]). *)

val all_kinds : kind list

type t

val create : kind -> Machine.t -> t
(** Attach a backend to a machine.  {!Cached} turns on dirty tracking
    (memory pages and disk blocks) and installs the block cache's
    page-write hook. *)

val detach : t -> unit
(** Undo {!create}: remove hooks and tracking so another backend (or
    none) can take over the machine. *)

val kind : t -> kind

val run : t -> max_cycles:int -> Machine.run_result
(** Run until an event, exactly as {!Machine.run}. *)

val snapshot : t -> Machine.snapshot
val restore : t -> Machine.snapshot -> unit

val set_trace_level : t -> Trace.level -> unit
(** Set the machine's flight-recorder level (both backends feed the
    recorder identically). *)

val stats : t -> Bbexec.stats option
(** Block-cache statistics; [None] for the interpreter. *)
