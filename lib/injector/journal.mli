(** Append-only, CRC-framed, fsync'd campaign journal.

    One entry per {e completed} injection, keyed by
    [(campaign, fn, addr, byte, bit)].  A campaign opened with
    [~resume:true] replays the journal, skips completed targets, and —
    because every outcome in this harness is deterministic — produces
    CSV/JSONL byte-identical to an uninterrupted run.  A torn final
    frame left by a SIGKILL mid-write is detected (CRC / length check)
    and truncated away; the one affected target simply re-runs.

    This is the harness-side analogue of the paper's hardware-watchdog
    reboot loop (Section 3): the >35,000-injection study survived losing
    the machine under test at any moment by keeping campaign state off
    the victim. *)

type entry = {
  e_campaign : Target.campaign;
  e_fn : string;
  e_addr : int32;
  e_byte : int;
  e_bit : int;
  e_workload : int;  (** index into the campaign's workload list *)
  e_outcome : Outcome.t;
  e_predicted : bool;  (** the static oracle pre-classified this target *)
  e_retries : int;  (** harness retries consumed (0 on a clean first run) *)
  e_cycles : int;  (** deterministic simulated cycle count of the run *)
}

type key = string * string * int32 * int * int
(** [(campaign letter, fn, addr, byte, bit)] — [addr] disambiguates
    instructions of the same function; the letter keeps campaigns A/B/C
    apart in one shared journal. *)

val key_of_target : Target.campaign -> Target.t -> key
val key_of_entry : entry -> key

type t

exception Corrupt of string
(** An unreadable frame with intact frames {e after} it — mid-file
    corruption of the campaign journal (a damaged disk block, say; its
    one writer, the campaign process, only ever appends).  Raised by
    {!open_} [~resume:true] and {!read_file} instead of silently
    truncating, which would drop the intact entries that follow.  An
    unreadable {e final} frame (nothing intact after it) remains a torn
    tail: truncated and re-run. *)

val open_ : ?resume:bool -> string -> t
(** [open_ ?resume path] opens (creating if needed) the journal at
    [path].  With [resume:false] (default) any existing file is
    truncated — a fresh run.  With [resume:true] existing intact frames
    are loaded for [find]; a torn tail is truncated so subsequent
    appends start at the last intact frame, and mid-file corruption
    raises {!Corrupt}.  Thread-safe: fleet workers may [append]
    concurrently. *)

val path : t -> string
(** The file the journal was opened on. *)

val check_fingerprint : t -> fingerprint:string -> unit
(** On a fresh journal, record [fingerprint] (a digest of the run
    config: seed, subsample, hardening, oracle) as the header frame.  On
    a resumed journal, raise [Invalid_argument] if it does not match the
    recorded one — resuming under a different config would enumerate
    different targets and silently corrupt the output. *)

val find : t -> key -> entry option
(** The completed entry for [key], if one was loaded at [open_] time or
    appended since. *)

val append : t -> entry -> unit
(** Append one completed injection.  The frame is flushed and fsync'd
    before returning: once [append] returns, the record survives a
    SIGKILL of the whole process. *)

val entries : t -> entry list
(** All known entries, unordered. *)

val loaded : t -> int
(** Entries replayed from disk at [open_] time (resume). *)

val appended : t -> int
(** Entries appended by this process. *)

val torn_tail_truncated : t -> bool
(** [open_ ~resume:true] found and truncated a torn final frame. *)

val set_metrics : t -> Kfi_obs.Metrics.t option -> unit
(** Attach an observability registry: each {!append} observes its
    write+flush+fsync stall into the [phase.journal_fsync] histogram
    and bumps [journal.appends].  The on-disk format is untouched. *)

val close : t -> unit

val read_file : string -> entry list
(** Offline inspection: decode all intact frames of a journal file
    without opening it for writing.  Raises {!Corrupt} on mid-file
    corruption (a torn tail is tolerated, as at {!open_}). *)

(** {2 Framing}

    A frame is a u32 LE payload length, the u32 LE CRC-32 of the
    payload, and the payload.  The journal's frames carry entries; the
    [lib/shard] worker pipe ([Kfi_shard.Proto]) carries its messages in
    the same frames, encoded and checked here. *)

val max_frame : int
(** The largest payload a frame may declare: 16 MB. *)

val frame : string -> string
(** [frame payload] is the whole frame that carries [payload]. *)

val frame_header : Bytes.t -> int -> (int * int, string) result
(** The payload length and CRC-32 declared by the 8-byte frame header at
    the given offset; [Error] when the length exceeds {!max_frame} — a
    torn file or a desynchronized stream. *)

val crc32 : string -> int
(** IEEE 802.3 CRC-32 of a string; a frame is intact when this equals
    its header's CRC. *)
