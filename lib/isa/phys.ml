(* Physical memory: a flat little-endian byte array, with optional
   dirty-page tracking so a restore touches O(dirty pages) instead of the
   whole image (the cached execution backend's snapshot protocol).

   Tracking model: the live memory remembers which snapshot its clean
   pages equal ([synced_to]) and which pages have been written since
   ([dirty]).  Restoring to that same snapshot copies only the dirty
   pages.  Restoring any other snapshot is a full copy that
   resynchronizes to it, so states that a runner hops between are kept
   as deltas over one snapshot ([delta]) rather than as snapshots of
   their own.

   A dirty page is either [fresh] (written since the last {!settle}) or
   settled (written before it, unchanged since).  Settling lets the
   owner of a delta checkpoint tell which pages still hold what it last
   wrote or captured, so a later capture or compare only looks at the
   fresh ones.

   A read watch over one physical range sets a bit per byte read there
   (every [read8]/[read32], and what {!touch} reports), so the injector
   can learn which kernel-text bytes a run reads. *)

let page_size = 4096
let page_shift = 12

type t = {
  data : Bytes.t;
  id : int; (* unique per value: snapshot identity for incremental restore *)
  npages : int;
  mutable track : bool;
  mutable dirty : Bytes.t;
      (* page -> '\000' clean since the last sync, '\001' settled,
         '\002' fresh *)
  mutable dirty_list : int list;
  mutable synced_to : int; (* snapshot id the clean pages equal; -1 = unknown *)
  mutable watch_lo : int;
  mutable watch_hi : int; (* watched range [lo, hi); empty when hi = 0 *)
  mutable watch_map : Bytes.t; (* bit [a - lo]: byte [a] was read *)
  mutable watch_starts : Bytes.t; (* bit [a - lo]: {!touch} reported a fetch at [a] *)
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
    watch_lo = 0;
    watch_hi = 0;
    watch_map = Bytes.empty;
    watch_starts = Bytes.empty;
  }

let create size = make_raw (Bytes.make size '\000')
let size t = Bytes.length t.data

let check t addr n =
  if addr < 0 || addr + n > Bytes.length t.data then raise (Bad_physical_address addr)

(* ----- dirty tracking ----- *)

let fresh = '\002'

let[@inline] mark_page t p =
  let s = Bytes.unsafe_get t.dirty p in
  if s <> fresh then begin
    if s = '\000' then t.dirty_list <- p :: t.dirty_list;
    Bytes.unsafe_set t.dirty p fresh
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

let settle t = List.iter (fun p -> Bytes.unsafe_set t.dirty p '\001') t.dirty_list
let is_dirty t p = t.track && Bytes.get t.dirty p <> '\000'
let is_fresh t p = t.track && Bytes.get t.dirty p = fresh

(* ----- the read watch ----- *)

let watch t ~lo ~len =
  t.watch_map <- Bytes.make ((len + 7) / 8) '\000';
  t.watch_starts <- Bytes.make ((len + 7) / 8) '\000';
  t.watch_lo <- lo;
  t.watch_hi <- lo + len

let unwatch t =
  t.watch_hi <- 0;
  t.watch_map <- Bytes.empty;
  t.watch_starts <- Bytes.empty

let take_watched t =
  let m = t.watch_map in
  t.watch_map <- Bytes.make (Bytes.length m) '\000';
  Bytes.fill t.watch_starts 0 (Bytes.length t.watch_starts) '\000';
  m

let[@inline] set_bit map i =
  let b = i lsr 3 in
  Bytes.unsafe_set map b (Char.unsafe_chr (Char.code (Bytes.unsafe_get map b) lor (1 lsl (i land 7))))

let note_range t addr n =
  let lo = if addr > t.watch_lo then addr else t.watch_lo in
  let hi = if addr + n < t.watch_hi then addr + n else t.watch_hi in
  for a = lo to hi - 1 do
    set_bit t.watch_map (a - t.watch_lo)
  done

let[@inline] note t addr n = if addr < t.watch_hi && addr + n > t.watch_lo then note_range t addr n

let note_fetch t addr n =
  set_bit t.watch_starts (addr - t.watch_lo);
  note_range t addr n

(* A fetch of an instruction already fetched since the map was taken
   adds nothing: one bit test settles it. *)
let[@inline] touch t addr n =
  if addr < t.watch_hi && addr >= t.watch_lo then begin
    let i = addr - t.watch_lo in
    if Char.code (Bytes.unsafe_get t.watch_starts (i lsr 3)) land (1 lsl (i land 7)) = 0 then
      note_fetch t addr n
  end

(* ----- accesses ----- *)

let read8 t addr =
  check t addr 1;
  note t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let write8 t addr v =
  check t addr 1;
  if t.track then mark_page t (addr lsr page_shift);
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff))

let read32 t addr =
  check t addr 4;
  note t addr 4;
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

let synced t ~base = t.track && t.synced_to = base.id

(* The pages written since the restore to [base] whose contents differ
   from [base]: what a delta checkpoint needs to rebuild the live memory
   on top of [base].  A settled page is [settled p]'s bytes when that
   names them, and otherwise equal to [base]; a fresh page equal to
   [settled p] shares its bytes. *)
let delta t ~base ~settled =
  if not (synced t ~base) then invalid_arg "Phys.delta: memory not synchronized to the base";
  dirty_pages t
  |> List.filter_map (fun p ->
         let off = p lsl page_shift and len = page_span t p in
         let prev = settled p in
         if Bytes.unsafe_get t.dirty p <> fresh then Option.map (fun d -> (p, d)) prev
         else if sub_equal t.data off base.data off len then None
         else
           match prev with
           | Some d when sub_equal t.data off d 0 len -> Some (p, d)
           | _ -> Some (p, Bytes.sub t.data off len))

(* Whether [len] bytes of memory from [off] on equal [src]'s from [soff]
   on, except that the byte at [skip] must hold [src]'s byte xor [xor]. *)
let equal_masked t off len src soff ~skip ~xor =
  if skip < off || skip >= off + len then sub_equal t.data off src soff len
  else
    let k = skip - off in
    sub_equal t.data off src soff k
    && Char.code (Bytes.get t.data skip) = Char.code (Bytes.get src (soff + k)) lxor xor
    && sub_equal t.data (skip + 1) src (soff + k + 1) (len - k - 1)

let page_holds t p data ~skip ~xor =
  equal_masked t (p lsl page_shift) (page_span t p) data 0 ~skip ~xor

let page_is_base t ~base p ~skip ~xor =
  let off = p lsl page_shift in
  equal_masked t off (page_span t p) base.data off ~skip ~xor
