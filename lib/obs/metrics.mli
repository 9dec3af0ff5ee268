(** The campaign metrics registry: counters, gauges and log-bucketed
    latency histograms, with immutable {e mergeable} snapshots.

    Registries form a tree: {!fork} hangs a child registry off a parent
    (one per worker domain, so hot-path updates only contend on the
    owner's leaf mutex) and {!snapshot} folds the whole tree into one
    {!snap}.  {!merge} is associative and commutative: counters add,
    gauges keep the maximum (high-water marks), histograms add
    element-wise over fixed global bucket boundaries, so a quantile read
    off a merged histogram is within one bucket (~19% relative) of the
    exact sample quantile.

    Everything here is wall-clock flavored and volatile by construction:
    snapshots must never enter a determinism-gated artifact (records,
    CSV, telemetry JSONL, journal entries). *)

type t
(** A mutable registry.  All operations are thread-safe. *)

val create : ?name:string -> unit -> t

val name : t -> string

val fork : t -> name:string -> t
(** A child registry, folded into every subsequent [snapshot parent].
    Hand one to each worker domain so updates stay contention-free. *)

val incr : t -> ?by:int -> string -> unit
(** Bump a counter (created at 0 on first use; [by] defaults to 1). *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge.  Within one registry the last write wins; across merged
    registries the {e maximum} survives, so treat shared-name gauges as
    high-water marks. *)

val observe : t -> string -> float -> unit
(** Record one value (typically seconds) into a histogram. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk and {!observe} its wall-clock duration (also on
    exception). *)

(** {2 Bucket geometry}

    128 geometric buckets shared by every histogram: bucket 0 is
    [[0, 1e-7]] seconds, each later bucket is [2^0.25] (~19%) wider, and
    bucket 127 doubles as the overflow bucket (~300 s and beyond). *)

val nbuckets : int
val bucket_of : float -> int
val bucket_bounds : int -> float * float
(** [(lower, upper)] edges of a bucket ([upper] of the last bucket is
    nominal: it also absorbs every larger observation). *)

(** {2 Snapshots} *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** [infinity] when empty *)
  hs_max : float;  (** [neg_infinity] when empty *)
  hs_buckets : (int * int) list;  (** sparse [(index, count)], sorted *)
}

type snap = {
  sn_counters : (string * int) list;  (** all three sorted by key *)
  sn_gauges : (string * float) list;
  sn_hists : (string * hsnap) list;
}

val empty : snap
(** The identity of {!merge}. *)

val snapshot : t -> snap
(** The registry and all its forked descendants, merged. *)

val merge : snap -> snap -> snap
(** Associative, commutative (bucket and counter fields exactly; float
    sums up to addition reordering), with {!empty} as identity. *)

val add : t -> snap -> unit
(** Fold a snapshot into a registry under {!merge}'s rules: afterwards
    [snapshot t] is the merge of its former snapshot and the argument.
    How a coordinator takes in a worker process's metrics. *)

val counter : snap -> string -> int
(** 0 when absent. *)

val gauge : snap -> string -> float option
val hist : snap -> string -> hsnap option

val mean : hsnap -> float

val quantile : hsnap -> float -> float
(** Nearest-rank quantile ([quantile h 0.5] = p50).  The answer is a
    bucket representative clamped into the observed [min, max]: exact
    for single-valued histograms, within one bucket otherwise. *)

val hsnap_to_json : hsnap -> Kfi_trace.Telemetry.value
(** One histogram as [{count,sum,min,max,buckets:[[i,n],...]}]. *)

val to_json : snap -> Kfi_trace.Telemetry.value
(** [{"counters":{...},"gauges":{...},"hists":{name:{count,sum,min,max,
    buckets:[[i,n],...]}}}] — keys sorted, so equal snapshots render
    byte-identically. *)

val of_json : Kfi_trace.Telemetry.value -> (snap, string) result
(** Inverse of {!to_json} up to float formatting precision.  Extra keys
    are ignored, so a whole metric frame parses directly. *)
