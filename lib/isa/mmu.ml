(* Hardware-walked two-level page tables (i386-style) with a small TLB.

   PDE/PTE format: bit0 present, bit1 writable, bit2 user, bits 12..31 frame.
   Page-fault error code: bit0 = protection violation (page was present),
   bit1 = write access, bit2 = fault while in user mode. *)

let page_size = 4096
let page_shift = 12

let pte_present = 0x1
let pte_writable = 0x2
let pte_user = 0x4

exception Page_fault of int32 * int32 (* faulting vaddr, error code *)

let tlb_size = 1024

type t = {
  phys : Phys.t;
  tlb_tag : int array;    (* vpn, or -1 for empty *)
  tlb_frame : int array;  (* physical frame number *)
  tlb_perm : int array;   (* pte_writable lor pte_user subset *)
  mutable gen : int;      (* bumped on every fill, invalidation or flush *)
}

let create phys =
  {
    phys;
    tlb_tag = Array.make tlb_size (-1);
    tlb_frame = Array.make tlb_size 0;
    tlb_perm = Array.make tlb_size 0;
    gen = 0;
  }

let flush t =
  Array.fill t.tlb_tag 0 tlb_size (-1);
  t.gen <- t.gen + 1

(* The TLB is state the guest can see: a page-table update takes effect
   only once its entry is flushed or evicted (the kernel downgrades a
   fork's PTEs in a loop and flushes once, after it).  A checkpoint taken
   mid-run keeps a copy. *)
type tlb = { s_tag : int array; s_frame : int array; s_perm : int array }

let save t =
  { s_tag = Array.copy t.tlb_tag; s_frame = Array.copy t.tlb_frame; s_perm = Array.copy t.tlb_perm }

let load t s =
  Array.blit s.s_tag 0 t.tlb_tag 0 tlb_size;
  Array.blit s.s_frame 0 t.tlb_frame 0 tlb_size;
  Array.blit s.s_perm 0 t.tlb_perm 0 tlb_size;
  t.gen <- t.gen + 1

let tlb_bytes = 3 * tlb_size * (Sys.word_size / 8)

(* While [generation] is unchanged no TLB entry has been filled, evicted
   or flushed, so any translation that hit the TLB would hit the same
   entry again.  The block engine uses this to collapse its per-fetch
   re-translation into one integer compare. *)
let generation t = t.gen

let u32 v = Int32.to_int v land 0xFFFFFFFF

let fault vaddr ~present ~write ~user =
  let code =
    (if present then 1 else 0) lor (if write then 2 else 0) lor (if user then 4 else 0)
  in
  raise (Page_fault (vaddr, Int32.of_int code))

(* Full page-table walk; fills the TLB on success. *)
let walk t ~cr3 ~user ~write vaddr =
  let va = u32 vaddr in
  let pde_addr = (u32 cr3 land 0xFFFFF000) + ((va lsr 22) land 0x3FF) * 4 in
  let pde = u32 (Phys.read32 t.phys pde_addr) in
  if pde land pte_present = 0 then fault vaddr ~present:false ~write ~user;
  let pte_addr = (pde land 0xFFFFF000) + ((va lsr page_shift) land 0x3FF) * 4 in
  let pte = u32 (Phys.read32 t.phys pte_addr) in
  if pte land pte_present = 0 then fault vaddr ~present:false ~write ~user;
  let perm = pde land pte land (pte_writable lor pte_user) in
  if user && perm land pte_user = 0 then fault vaddr ~present:true ~write ~user;
  if write && perm land pte_writable = 0 then fault vaddr ~present:true ~write ~user;
  let vpn = va lsr page_shift in
  let idx = vpn land (tlb_size - 1) in
  t.tlb_tag.(idx) <- vpn;
  t.tlb_frame.(idx) <- pte lsr page_shift;
  t.tlb_perm.(idx) <- perm;
  t.gen <- t.gen + 1;
  (t.tlb_frame.(idx) lsl page_shift) lor (va land (page_size - 1))

(* Translate a virtual address to a physical one, raising {!Page_fault} on a
   missing mapping or a permission violation. *)
let translate t ~cr3 ~user ~write vaddr =
  let va = u32 vaddr in
  let vpn = va lsr page_shift in
  let idx = vpn land (tlb_size - 1) in
  if t.tlb_tag.(idx) = vpn then begin
    let perm = t.tlb_perm.(idx) in
    if (user && perm land pte_user = 0) || (write && perm land pte_writable = 0) then begin
      (* Permission miss: invalidate and re-walk for a precise error code. *)
      t.tlb_tag.(idx) <- -1;
      t.gen <- t.gen + 1;
      walk t ~cr3 ~user ~write vaddr
    end
    else (t.tlb_frame.(idx) lsl page_shift) lor (va land (page_size - 1))
  end
  else walk t ~cr3 ~user ~write vaddr

(* Side-effect-free TLB probe for read/fetch access: the physical address
   on a permitted hit, -1 otherwise (caller falls back to [translate]).
   Mirrors the hit path of [translate] exactly, so using it first changes
   nothing observable. *)
let probe t ~user vaddr =
  let va = u32 vaddr in
  let vpn = va lsr page_shift in
  let idx = vpn land (tlb_size - 1) in
  if t.tlb_tag.(idx) = vpn && ((not user) || t.tlb_perm.(idx) land pte_user <> 0)
  then (t.tlb_frame.(idx) lsl page_shift) lor (va land (page_size - 1))
  else -1

let read8 t ~cr3 ~user vaddr =
  Phys.read8 t.phys (translate t ~cr3 ~user ~write:false vaddr)

let write8 t ~cr3 ~user vaddr v =
  Phys.write8 t.phys (translate t ~cr3 ~user ~write:true vaddr) v

let read32 t ~cr3 ~user vaddr =
  if u32 vaddr land (page_size - 1) <= page_size - 4 then
    Phys.read32 t.phys (translate t ~cr3 ~user ~write:false vaddr)
  else begin
    let b i = read8 t ~cr3 ~user (Int32.add vaddr (Int32.of_int i)) in
    let b0 = b 0 and b1 = b 1 and b2 = b 2 and b3 = b 3 in
    Int32.logor
      (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
      (Int32.shift_left (Int32.of_int b3) 24)
  end

let write32 t ~cr3 ~user vaddr v =
  if u32 vaddr land (page_size - 1) <= page_size - 4 then
    Phys.write32 t.phys (translate t ~cr3 ~user ~write:true vaddr) v
  else begin
    let x = u32 v in
    for i = 0 to 3 do
      write8 t ~cr3 ~user (Int32.add vaddr (Int32.of_int i)) ((x lsr (8 * i)) land 0xff)
    done
  end
