(** Simple devices: port-mapped console output and a block disk. *)

val console_port : int
(** Port 0xE9: bytes written here are the user-visible tty stream (they
    also appear in the combined console transcript). *)

val klog_port : int
(** Port 0xE8: the kernel log (printk).  Appears only in the combined
    transcript — golden-run comparison ignores it. *)

val poweroff_port : int
(** Port 0xF4: writing a byte powers the machine off with that byte as
    the exit code. *)

val snapshot_port : int
(** Port 0xF5: writing any byte pauses the run loop so the host can take
    a machine snapshot (the injector's per-experiment baseline). *)

val block_size : int
(** Disk block size in bytes (1024). *)

module Disk : sig
  type t

  val create : blocks:int -> t
  val of_image : bytes -> t
  (** A disk initialised from (a copy of) an image, e.g. from [Mkfs]. *)

  val blocks : t -> int
  val image : t -> bytes
  (** The live backing store (not a copy): what fsck inspects post-run. *)

  val in_range : t -> int -> bool
  val read_block : t -> int -> bytes
  val write_block : t -> int -> bytes -> unit
  val copy : t -> t
  (** A snapshot of the contents.  Under tracking, the live disk is
      resynchronized to the snapshot. *)

  val restore : t -> from:t -> unit
  (** Restore the contents from a snapshot taken with {!copy}.  Under
      tracking, restoring to the snapshot the disk was last synchronized
      with copies only the blocks written since; otherwise it copies the
      whole image (and resynchronizes). *)

  val set_tracking : t -> bool -> unit
  (** Turn written-block tracking on or off ({!Phys.set_tracking}'s
      protocol at block granularity).  Writes through {!image} bypass
      it. *)

  val synced : t -> base:t -> bool
  (** Tracking is on and the unwritten blocks equal [base]'s. *)

  val block_equal : t -> int -> bytes -> bool
  (** Whether a block holds exactly the given bytes. *)

  val written_blocks : t -> int list
  (** Blocks written since the last sync point (sorted, deduplicated);
      empty when tracking is off. *)
end
