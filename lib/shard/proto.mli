(** The coordinator <-> [kfi-worker] wire protocol: Marshal messages
    over the worker's stdin/stdout pipes, one per frame, in the
    journal's frames ({!Kfi_injector.Journal.frame}: u32 LE payload
    length, u32 LE CRC-32, payload).

    Message flow: the coordinator sends [Hello] once, the worker
    answers [Ready]; each [Assign] is acknowledged by [Claimed], then a
    stream of [Entry] frames (one per injection), then [Done] — the ack
    that lets the coordinator mark the shard complete.  The coordinator
    appends each streamed entry to the campaign journal, the one durable
    record.  A worker that dies before [Done] loses at most the
    injection in flight: the coordinator requeues the shard and assigns
    the next owner only the targets not yet journaled, so each injection
    is journaled exactly once. *)

type hello = {
  h_campaign : Kfi_injector.Target.campaign;
  h_hardening : bool;
  h_backend : Kfi_isa.Backend.kind;
  h_max_cycles : int;
  h_deadline_ms : int option;
  h_retries : int;
}

type shard = {
  sh_index : int;  (** position in the split; names the shard, stable across requeues *)
  sh_targets : (Kfi_injector.Target.t * int) list;
      (** (target, planned workload index), in serial campaign order *)
}

type to_worker =
  | Hello of hello
  | Assign of shard
  | Shutdown

type from_worker =
  | Ready of int  (** worker pid, sent once in answer to [Hello] *)
  | Claimed of int  (** shard index — the worker owns it from here *)
  | Entry of {
      en_entry : Kfi_injector.Journal.entry;
          (** one finished injection, for the coordinator to journal *)
      en_metrics : Kfi_obs.Metrics.snap;
          (** the metrics the worker's runner recorded for this
              injection (phase spans, outcome and block-cache counters),
              for the coordinator's per-worker fork — volatile, never in
              gated artifacts *)
    }
  | Done of int
      (** shard index: every assigned target was streamed — the ack *)

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
      the worker; the campaign journal holds every entry already
      decoded, so only the rest of the shard runs again). *)
end
