(** The coordinator <-> [kfi-worker] wire protocol: length-prefixed,
    CRC-framed Marshal messages over the worker's stdin/stdout pipes
    (the journal's framing exactly: u32 LE payload length, u32 LE
    CRC-32, payload).

    Message flow: the coordinator sends [Hello] once, the worker
    answers [Ready]; each [Assign] is acknowledged by [Claimed], then a
    stream of [Entry] frames (one per injection, {e after} the entry is
    fsync'd to the worker's shard journal), then [Done] — the ack that
    lets the coordinator mark the shard complete.  A worker that dies
    before [Done] leaves its shard journal as the durable record: the
    coordinator requeues the shard and the next owner skips everything
    already journaled, so each injection is executed effectively once
    and merged exactly once. *)

type hello = {
  h_fingerprint : string;
      (** {!Kfi_injector.Config.fingerprint} — guards shard journals
          against mixing runs, exactly like the campaign journal *)
  h_campaign : Kfi_injector.Target.campaign;
  h_hardening : bool;
  h_backend : Kfi_isa.Backend.kind;
  h_max_cycles : int;
  h_deadline_ms : int option;
  h_retries : int;
  h_shard_dir : string;  (** where the worker opens shard journals *)
}

type shard = {
  sh_id : string;
      (** content address: hex digest of fingerprint + campaign letter +
          every (target, workload) in the shard — see {!Plan.shard_id} *)
  sh_index : int;  (** position in the split; stable across requeues *)
  sh_targets : (Kfi_injector.Target.t * int) list;
      (** (target, planned workload index), in serial campaign order *)
}

type to_worker =
  | Hello of hello
  | Assign of shard
  | Shutdown

type from_worker =
  | Ready of int  (** worker pid, sent once in answer to [Hello] *)
  | Claimed of string  (** shard id — the worker owns it from here *)
  | Entry of {
      en_shard : string;
      en_entry : Kfi_injector.Journal.entry;
          (** already durable in the shard journal when this is sent *)
      en_metrics : Kfi_obs.Metrics.snap;
          (** the metrics the worker's runner recorded for this
              injection (phase spans, outcome and block-cache counters),
              for the coordinator's per-worker fork — volatile, never in
              gated artifacts *)
    }
  | Done of string * int
      (** shard id + entries appended by this incarnation: the ack *)

val max_frame : int

val send_to_worker : Unix.file_descr -> to_worker -> unit
val send_from_worker : Unix.file_descr -> from_worker -> unit
(** Whole-frame blocking writes.  Raise [Unix_error (EPIPE, _, _)] if
    the peer is gone (the coordinator ignores SIGPIPE while running). *)

val recv_to_worker : Unix.file_descr -> to_worker option
(** Blocking read of one frame on the worker side; [None] on EOF (clean
    or torn — either way the coordinator is gone and the worker exits).
    Raises [Failure] on a corrupt frame (desynchronized stream). *)

(** Incremental per-worker frame decoder for the coordinator's
    [select] loop. *)
module Dec : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> unit
  (** Append the first [n] bytes of the buffer to the stream. *)

  val next : t -> (from_worker option, string) result
  (** The next complete frame, [Ok None] if more bytes are needed,
      [Error] on a corrupt frame (the coordinator kills and restarts
      the worker — the shard journal, not the stream, is the durable
      record, so nothing is lost). *)
end
