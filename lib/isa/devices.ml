(* Simple devices: console (port I/O) and a block disk.

   Port map: writing a byte to port 0xE9 appends it to the console; writing
   to port 0xF4 powers the machine off with that byte as the exit code. *)

let console_port = 0xE9 (* user-visible tty *)
let klog_port = 0xE8    (* kernel log (printk); both land in the console
                           transcript, but only tty output is compared
                           against golden runs *)
let poweroff_port = 0xF4

(* Writing any byte to this port pauses the run loop so the host can take a
   machine snapshot (the injector's per-experiment "reboot" baseline). *)
let snapshot_port = 0xF5

let block_size = 1024

(* The disk mirrors [Phys]'s snapshot protocol at block granularity.
   Under tracking the live disk remembers the snapshot its unwritten
   blocks equal ([synced]) and the blocks written since, so restoring to
   that snapshot copies only those; any other restore is a full copy
   that resynchronizes. *)
module Disk = struct
  type t = {
    data : Bytes.t;
    mutable track : bool;
    mutable written : Bytes.t; (* block -> '\001' if written since the sync *)
    mutable written_list : int list;
    mutable synced : t option; (* the snapshot the unwritten blocks equal *)
  }

  let of_bytes data =
    { data; track = false; written = Bytes.empty; written_list = []; synced = None }

  let create ~blocks = of_bytes (Bytes.make (blocks * block_size) '\000')
  let of_image image = of_bytes (Bytes.copy image)
  let blocks t = Bytes.length t.data / block_size
  let image t = t.data

  let in_range t block = block >= 0 && block < blocks t

  let read_block t block =
    let b = Bytes.create block_size in
    Bytes.blit t.data (block * block_size) b 0 block_size;
    b

  let write_block t block bytes =
    if t.track && Bytes.get t.written block = '\000' then begin
      Bytes.set t.written block '\001';
      t.written_list <- block :: t.written_list
    end;
    Bytes.blit bytes 0 t.data (block * block_size) block_size

  let sync t s =
    List.iter (fun b -> Bytes.unsafe_set t.written b '\000') t.written_list;
    t.written_list <- [];
    t.synced <- Some s

  let set_tracking t on =
    if on <> t.track then begin
      t.track <- on;
      t.written <- (if on then Bytes.make (blocks t) '\000' else Bytes.empty);
      t.written_list <- [];
      t.synced <- None
    end

  let written_blocks t = List.sort_uniq compare t.written_list

  let is_synced t s = match t.synced with Some s' -> s' == s | None -> false
  let synced t ~base = t.track && is_synced t base

  let block_equal t block bytes =
    let rec go i =
      i = block_size
      || (Bytes.unsafe_get t.data ((block * block_size) + i) = Bytes.unsafe_get bytes i
          && go (i + 1))
    in
    go 0

  let copy t =
    let s = of_bytes (Bytes.copy t.data) in
    if t.track then sync t s;
    s

  let restore t ~from =
    if t.track && is_synced t from then
      List.iter
        (fun b -> Bytes.blit from.data (b * block_size) t.data (b * block_size) block_size)
        t.written_list
    else Bytes.blit from.data 0 t.data 0 (Bytes.length t.data);
    if t.track then sync t from
end
