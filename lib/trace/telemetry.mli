(** Structured campaign telemetry: a JSONL event log (one JSON object per
    line) plus aggregate counters surfaced in {!Kfi_analysis.Report}.
    Includes a strict JSON parser used to schema-lint event logs in CI.
    Every field is deterministic (per-injection wall time lives only in
    {!Kfi_obs} spans), so the logs of two equivalent runs compare with
    [cmp]. *)

(** Minimal JSON value. *)
type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** Render on one line (JSONL-safe: embedded newlines are escaped). *)

exception Parse_error of string

val parse : string -> value
(** Strict single-value parse; raises {!Parse_error}. *)

val lint_line : string -> (string, string) result
(** Validate one JSONL line against the event schema: every event needs a
    string ["type"] and an integer ["seq"], plus the required keys of its
    type.  [Ok type] or [Error reason]. *)

val lint : string -> (int, int * string) result
(** Validate a whole document (blank lines ignored).  [Ok n] events, or
    [Error (line_number, reason)] for the first offending line. *)

(** Telemetry sink with aggregate counters.  The counters are mutable and
    filled in by {!Kfi_injector.Experiment}; mutate them under {!locked}
    if the sink may be shared across domains. *)
type t = {
  sink : string -> unit;
  lock : Mutex.t;  (** guards [seq], the sink and the counters *)
  mutable seq : int;
  mutable n_targets : int;
  mutable n_run : int;
  mutable n_pruned : int;
  mutable n_activated : int;
  mutable n_crash_hang : int;
  mutable n_aborted : int;  (** quarantined as [Harness_abort] *)
  mutable sim_cycles : int;
}

val create : ?sink:(string -> unit) -> unit -> t
(** [sink] receives each rendered JSONL line (default: discard). *)

val locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the sink's lock — for batches of counter updates.
    {!event} takes the lock itself; do not call it inside [f]. *)

val event : t -> string -> (string * value) list -> unit
(** Emit one event: [type] and an auto-incremented [seq] are prepended.
    Atomic (sequence numbering and the sink call happen under the
    lock), so concurrent emitters cannot interleave or skew [seq]. *)

(** Immutable aggregate view for reports. *)
type summary = {
  s_targets : int;
  s_run : int;
  s_pruned : int;
  s_activated : int;
  s_crash_hang : int;
  s_aborted : int;
  s_sim_cycles : int;
  s_events : int;
}

val summary : t -> summary
val summary_to_string : summary -> string
