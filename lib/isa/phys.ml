(* Physical memory: a flat little-endian byte array, with optional
   dirty-page tracking so a restore touches O(dirty pages) instead of the
   whole image (the cached execution backend's snapshot protocol).

   Tracking model: the live memory remembers which snapshot its clean
   pages equal ([synced_to]) and which pages have been written since
   ([dirty]).  Restoring to that same snapshot copies only the dirty
   pages.  Restoring any other snapshot is a full copy that
   resynchronizes to it, so states that a runner hops between are kept
   as deltas over one snapshot ([delta]) rather than as snapshots of
   their own. *)

let page_size = 4096
let page_shift = 12

type t = {
  data : Bytes.t;
  id : int; (* unique per value: snapshot identity for incremental restore *)
  npages : int;
  mutable track : bool;
  mutable dirty : Bytes.t; (* page -> '\001' if written since the last sync *)
  mutable dirty_list : int list;
  mutable synced_to : int; (* snapshot id the clean pages equal; -1 = unknown *)
}

exception Bad_physical_address of int

let next_id = Atomic.make 0

let make_raw data =
  let npages = (Bytes.length data + page_size - 1) / page_size in
  {
    data;
    id = Atomic.fetch_and_add next_id 1;
    npages;
    track = false;
    dirty = Bytes.empty;
    dirty_list = [];
    synced_to = -1;
  }

let create size = make_raw (Bytes.make size '\000')
let size t = Bytes.length t.data

let check t addr n =
  if addr < 0 || addr + n > Bytes.length t.data then raise (Bad_physical_address addr)

(* ----- dirty tracking ----- *)

let[@inline] mark_page t p =
  if Bytes.unsafe_get t.dirty p = '\000' then begin
    Bytes.unsafe_set t.dirty p '\001';
    t.dirty_list <- p :: t.dirty_list
  end

let clear_dirty t =
  List.iter (fun p -> Bytes.unsafe_set t.dirty p '\000') t.dirty_list;
  t.dirty_list <- []

let set_tracking t on =
  if on && not t.track then begin
    t.dirty <- Bytes.make t.npages '\000';
    t.dirty_list <- [];
    t.synced_to <- -1;
    t.track <- true
  end
  else if (not on) && t.track then begin
    t.track <- false;
    t.dirty <- Bytes.empty;
    t.dirty_list <- [];
    t.synced_to <- -1
  end

let tracking t = t.track
let dirty_pages t = List.sort_uniq compare t.dirty_list

(* ----- accesses ----- *)

let read8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let write8 t addr v =
  check t addr 1;
  if t.track then mark_page t (addr lsr page_shift);
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff))

let read32 t addr =
  check t addr 4;
  Bytes.get_int32_le t.data addr

let write32 t addr v =
  check t addr 4;
  if t.track then begin
    mark_page t (addr lsr page_shift);
    mark_page t ((addr + 3) lsr page_shift)
  end;
  Bytes.set_int32_le t.data addr v

let blit_in t ~dst bytes =
  let len = Bytes.length bytes in
  if t.track && len > 0 then
    for p = dst lsr page_shift to (dst + len - 1) lsr page_shift do
      mark_page t p
    done;
  Bytes.blit bytes 0 t.data dst len

let blit_out t ~src ~len =
  let b = Bytes.create len in
  Bytes.blit t.data src b 0 len;
  b

(* Whether [len] bytes of [a] from [ao] on equal those of [b] from [bo]
   on, a word at a time.  Loops, not local functions, which would
   allocate a closure per call. *)
let sub_equal a ao b bo len =
  let i = ref 0 in
  while !i + 8 <= len && Bytes.get_int64_le a (ao + !i) = Bytes.get_int64_le b (bo + !i) do
    i := !i + 8
  done;
  while !i < len && Bytes.get a (ao + !i) = Bytes.get b (bo + !i) do
    incr i
  done;
  !i = len

let holds t addr b =
  let len = Bytes.length b in
  addr >= 0 && addr + len <= Bytes.length t.data && sub_equal t.data addr b 0 len

(* ----- snapshot / restore ----- *)

let copy t =
  let s = make_raw (Bytes.copy t.data) in
  if t.track then begin
    (* The live memory now equals this snapshot exactly: resynchronize. *)
    clear_dirty t;
    t.synced_to <- s.id
  end;
  s

let page_span t p = min page_size (Bytes.length t.data - (p lsl page_shift))

let copy_page t ~from p =
  let off = p lsl page_shift in
  Bytes.blit from.data off t.data off (page_span t p)

(* To the synced snapshot: the dirty pages.  Anything else is a full
   copy. *)
let restore t ~from =
  if t.track && t.synced_to = from.id then begin
    let pages = t.dirty_list in
    List.iter (copy_page t ~from) pages;
    clear_dirty t;
    Some pages
  end
  else begin
    Bytes.blit from.data 0 t.data 0 (Bytes.length t.data);
    if t.track then begin
      clear_dirty t;
      t.synced_to <- from.id
    end;
    None
  end

(* The pages written since the restore to [base] whose contents differ
   from [base]: what a delta checkpoint needs to rebuild the live memory
   on top of [base]. *)
let delta t ~base =
  if not t.track || t.synced_to <> base.id then
    invalid_arg "Phys.delta: memory not synchronized to the base";
  dirty_pages t
  |> List.filter_map (fun p ->
         let off = p lsl page_shift and len = page_span t p in
         if sub_equal t.data off base.data off len then None
         else Some (p, Bytes.sub t.data off len))
