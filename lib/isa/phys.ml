(* Physical memory: a flat little-endian byte array, with optional
   dirty-page tracking so a restore touches O(dirty pages) instead of the
   whole image (the cached execution backend's snapshot protocol).

   Tracking model: the live memory remembers which snapshot its clean
   pages equal ([synced_to]) and which pages have been written since
   ([dirty]).  Restoring to that same snapshot copies only the dirty
   pages; restoring to a different known snapshot additionally copies the
   (cached, computed-once) set of pages on which the two snapshots
   differ.  Pinned pages — device/MMIO-like frames whose content the
   guest does not own — are restored unconditionally.  Any restore to an
   unknown snapshot falls back to a full copy and re-synchronizes. *)

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
  mutable pinned : int list; (* device pages: always restored *)
  registry : (int, t) Hashtbl.t; (* snapshots seen by this live memory *)
  diffs : (int * int, int list) Hashtbl.t; (* cached inter-snapshot page diffs *)
  mutable visited : Bytes.t; (* scratch bitmap for restore-set union *)
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
    pinned = [];
    registry = Hashtbl.create 8;
    diffs = Hashtbl.create 8;
    visited = Bytes.empty;
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
    t.visited <- Bytes.make t.npages '\000';
    t.dirty_list <- [];
    t.synced_to <- -1;
    t.track <- true
  end
  else if (not on) && t.track then begin
    t.track <- false;
    t.dirty <- Bytes.empty;
    t.visited <- Bytes.empty;
    t.dirty_list <- [];
    t.synced_to <- -1;
    Hashtbl.reset t.registry;
    Hashtbl.reset t.diffs
  end

let tracking t = t.track
let dirty_pages t = List.sort_uniq compare t.dirty_list

let pin_page t p =
  if p < 0 || p >= t.npages then invalid_arg "Phys.pin_page";
  if not (List.mem p t.pinned) then t.pinned <- p :: t.pinned

let pinned_pages t = List.sort_uniq compare t.pinned

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

(* ----- snapshot / restore ----- *)

let copy t =
  let s = make_raw (Bytes.copy t.data) in
  if t.track then begin
    (* The live memory now equals this snapshot exactly: resynchronize. *)
    Hashtbl.replace t.registry s.id s;
    clear_dirty t;
    t.synced_to <- s.id
  end;
  s

let page_span t p = min page_size (Bytes.length t.data - (p lsl page_shift))

let copy_page t ~from p =
  let off = p lsl page_shift in
  Bytes.blit from.data off t.data off (page_span t p)

let page_equal a b off len =
  let rec words i =
    i + 8 > len || (Int64.equal (Bytes.get_int64_le a (off + i)) (Bytes.get_int64_le b (off + i)) && words (i + 8))
  in
  let rec tail i =
    i >= len || (Bytes.get a (off + i) = Bytes.get b (off + i) && tail (i + 1))
  in
  words 0 && tail (len land lnot 7)

(* Pages on which two snapshots differ; computed once per pair and cached
   on the live memory (the pair set is tiny: one snapshot per workload). *)
let diff_pages t a b =
  if a.id = b.id then []
  else begin
    let key = if a.id < b.id then (a.id, b.id) else (b.id, a.id) in
    match Hashtbl.find_opt t.diffs key with
    | Some d -> d
    | None ->
      let d = ref [] in
      for p = t.npages - 1 downto 0 do
        let off = p lsl page_shift in
        if not (page_equal a.data b.data off (page_span t p)) then d := p :: !d
      done;
      Hashtbl.replace t.diffs key !d;
      !d
  end

let full_restore t ~from = Bytes.blit from.data 0 t.data 0 (Bytes.length t.data)

let restore t ~from =
  if not t.track then begin
    full_restore t ~from;
    None
  end
  else begin
    Hashtbl.replace t.registry from.id from;
    let incremental extra =
      Bytes.fill t.visited 0 t.npages '\000';
      let out = ref [] in
      let add p =
        if Bytes.unsafe_get t.visited p = '\000' then begin
          Bytes.unsafe_set t.visited p '\001';
          copy_page t ~from p;
          out := p :: !out
        end
      in
      List.iter add t.dirty_list;
      List.iter add extra;
      List.iter add t.pinned;
      clear_dirty t;
      t.synced_to <- from.id;
      Some !out
    in
    if t.synced_to = from.id then incremental []
    else
      match
        if t.synced_to < 0 then None else Hashtbl.find_opt t.registry t.synced_to
      with
      | Some base -> incremental (diff_pages t base from)
      | None ->
        full_restore t ~from;
        clear_dirty t;
        t.synced_to <- from.id;
        None
  end

(* The pages written since the restore to [base], plus the pinned ones,
   whose contents differ from [base]: what a delta checkpoint needs to
   rebuild the live memory on top of [base]. *)
let delta t ~base =
  if not t.track || t.synced_to <> base.id then
    invalid_arg "Phys.delta: memory not synchronized to the base";
  List.sort_uniq compare (List.rev_append t.dirty_list t.pinned)
  |> List.filter_map (fun p ->
         let off = p lsl page_shift and len = page_span t p in
         if page_equal t.data base.data off len then None
         else Some (p, Bytes.sub t.data off len))
