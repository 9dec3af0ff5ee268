(* Loop summaries: how the block engine runs the kernel's bulk-memory
   loops ([clear_page], [memset], [memcpy]'s word loop, [copy_page]) a
   page at a time.

   [Bbexec] calls [summarize] at a loop head: a block dispatched again
   within [window] cycles, [streak] times in a row.  It steps two
   iterations on the reference [Cpu.step] and records each instruction,
   the registers before it, the address it accesses (from [Cpu.ea]) and
   the value it loads (from [Cpu.rd32]).  The loop is summarised only
   when all of these hold:

   - both iterations run the same instructions, every one of a form
     that maps affine inputs to affine outputs ([form]: moves, push,
     pop, add/sub/cmp, jumps);
   - each access either stays at one address (a fixed cell) or moves by
     a fixed stride; a value loaded from a moving address is only moved
     and stored, never added, compared or used as an address, and it is
     dead when the next iteration starts;
   - every conditional jump reads flags set earlier in the same
     iteration by an add/sub/cmp;
   - each register, and each live-in cell (a fixed cell read before it
     is written in the iteration), takes the values v, v+d, v+2d at the
     three iteration starts observed;
   - each instruction took one cycle, and no TLB fill, trap or write to
     a page holding decoded code happened.

   Why that is exact: those forms compute every value an iteration
   leaves for the next as an affine function of the values it started
   with, so each live-in value at the end of iteration k is a + b·k.
   At k = 0 and k = 1 it was observed to be v + (k+1)·d, so it is that
   for every k, as long as each iteration takes the same path and its
   cells stay what the iteration alone writes.  Hence the bounds: the
   summary covers iterations 2 .. n-1 with n the first iteration at
   which a branch would go the other way (each branch's condition is
   evaluated at every k with [Flags]), a moving access would leave its
   page (real execution crosses, taking the TLB fill or fault), a moving
   store would reach a cell the iteration reads, the timer tick would
   come due with IF set, or the run's limit would pass.  Values loaded
   from moving addresses are not predicted at all: the replay reads
   them again.

   Applying a summary replays every load and store of those iterations
   in order through [Cpu.rd32]/[wr32]/[wr8], so dirty tracking and the
   code-page guard see the plain run's accesses; it sets the registers
   to their values at iteration n, eflags from the last flag setter of
   iteration n-1 (its other bits unchanged) and the cycle counter, and
   writes the flight recorder's last ring of records from the observed
   iterations (their memory operands are affine too).  eip is the head
   again.  Nothing else is evaluated here: values come from stepping,
   addresses from [Cpu.ea], memory from [Cpu.rd*]/[wr*] and branch
   outcomes from [Flags]. *)

let window = 64
let streak = 3

(* Instructions per iteration. *)
let max_insns = 64

(* An operand: a register, an immediate, or the 32-bit value the
   instruction loads. *)
type operand = R of int | I of int32 | L

type form =
  | Set of int * operand  (* register <- operand *)
  | Put of int * operand  (* 4 or 1 bytes at the address <- operand *)
  | Push of int
  | Pop of int
  | Arith of Insn.alu * operand * operand  (* flags of [a op b]; add/sub write a *)
  | Jump of Insn.cond option
  | Skip

(* The whitelist, with each form's explicit memory operand. *)
let form (insn : Insn.t) =
  let open Insn in
  let affine = function Add | Sub | Cmp -> true | And | Or | Xor -> false in
  match insn with
  | Nop -> Some (Skip, None)
  | Mov_ri (r, v) | Mov_rm_i (Reg r, v) -> Some (Set (r, I v), None)
  | Mov_r_rm (r, Reg s) | Mov_rm_r (Reg r, s) -> Some (Set (r, R s), None)
  | Mov_r_rm (r, Mem m) -> Some (Set (r, L), Some m)
  | Mov_rm_r (Mem m, s) -> Some (Put (4, R s), Some m)
  | Mov_rm_i (Mem m, v) -> Some (Put (4, I v), Some m)
  | Movb_rm_r (Mem m, s) -> Some (Put (1, R s), Some m)
  | Push_r s -> Some (Push s, None)
  | Pop_r r -> Some (Pop r, None)
  | (Alu_rm_r (op, Reg d, s) | Alu_r_rm (op, d, Reg s)) when affine op ->
    Some (Arith (op, R d, R s), None)
  | Alu_r_rm (op, d, Mem m) when affine op -> Some (Arith (op, R d, L), Some m)
  | (Alu_rm_i (op, Reg d, v) | Alu_rm_i8 (op, Reg d, v)) when affine op ->
    Some (Arith (op, R d, I v), None)
  | Alu_eax_i (op, v) when affine op -> Some (Arith (op, R eax, I v), None)
  | Alu_rm_i (Cmp, Mem m, v) | Alu_rm_i8 (Cmp, Mem m, v) -> Some (Arith (Cmp, L, I v), Some m)
  | Jcc (c, _) | Jcc8 (c, _) -> Some (Jump (Some c), None)
  | Jmp _ | Jmp8 _ -> Some (Jump None, None)
  | _ -> None

let loads = function Set (_, L) | Arith (_, L, _) | Arith (_, _, L) | Pop _ -> true | _ -> false
let stores = function Put (n, _) -> n | Push _ -> 4 | _ -> 0

(* One observed instruction. *)
type step = {
  s_eip : int32;
  s_insn : Insn.t;
  s_form : form;
  s_mem : Insn.mem option;
  s_tw : int;  (* the flight recorder's trace word *)
  s_regs : int32 array;  (* before it *)
  s_addr : int32;  (* the address it accesses *)
  s_pa : int;  (* ... physically; -1: no access *)
  s_loaded : int32;  (* the value it loads *)
  s_rec : int;  (* the recorder's memory operand, -1 for none *)
  s_taken : bool;  (* it left eip elsewhere than the next instruction *)
}

(* Give up: [true] when the loop itself is unfit (back off), [false]
   when only this moment is (a tick or the limit). *)
exception Stop of bool

let value s = function R r -> s.s_regs.(r) | I v -> v | L -> s.s_loaded

let stored s = match s.s_form with Put (_, v) -> value s v | Push r -> s.s_regs.(r) | _ -> 0l

exception Off_page

let decode_at phys pa =
  let lim = (pa lor (Mmu.page_size - 1)) + 1 in
  match Decode.decode (fun i -> if pa + i >= lim then raise Off_page else Phys.read8 phys (pa + i)) with
  | Decode.Ok (insn, len) -> (insn, len)
  | Decode.Invalid | (exception (Off_page | Phys.Bad_physical_address _)) -> raise (Stop true)

(* Step one iteration, from the head back to it. *)
let iteration cpu ~limit ~head ~check =
  let mmu = cpu.Cpu.mmu and phys = cpu.Cpu.phys in
  let user = cpu.Cpu.mode = Cpu.User in
  let rec go acc n =
    if n >= max_insns then raise (Stop true);
    if cpu.Cpu.halted || cpu.Cpu.snapshot_request || cpu.Cpu.cycles >= limit
       || (cpu.Cpu.cycles >= cpu.Cpu.next_timer && cpu.Cpu.eflags land Flags.if_ <> 0)
    then raise (Stop false);
    let eip = cpu.Cpu.eip in
    let pc = Mmu.probe mmu ~user eip in
    if pc < 0 then raise (Stop true);
    let insn, len = decode_at phys pc in
    let fm, mem = match form insn with Some f -> f | None -> raise (Stop true) in
    let regs = Array.copy cpu.Cpu.regs in
    let size = if loads fm then 4 else stores fm in
    let addr =
      match (mem, fm) with
      | Some m, _ -> Cpu.ea cpu m
      | None, Push _ -> Int32.sub regs.(Insn.esp) 4l
      | None, _ -> regs.(Insn.esp)
    in
    (* an access that misses the TLB or leaves its page is real
       execution's to take *)
    let pa = if size = 0 then -1 else Mmu.probe mmu ~user addr in
    if size > 0 && (pa < 0 || pa land (Mmu.page_size - 1) > Mmu.page_size - size) then
      raise (Stop true);
    let rec_mem = Cpu.insn_mem cpu insn in
    let c = cpu.Cpu.cycles in
    Cpu.step cpu;
    let fall = Int32.add eip (Int32.of_int len) in
    let next = cpu.Cpu.eip in
    let to_target =
      match insn with
      | Insn.Jcc (_, rel) | Insn.Jcc8 (_, rel) | Insn.Jmp rel | Insn.Jmp8 rel ->
        Int32.equal next (Int32.add fall rel)
      | _ -> false
    in
    if cpu.Cpu.cycles <> c + 1 || (not (check ())) || not (Int32.equal next fall || to_target)
    then raise (Stop true);
    let s =
      {
        s_eip = eip;
        s_insn = insn;
        s_form = fm;
        s_mem = mem;
        s_tw = Trace.pack_tw ~ieip:(Int32.to_int eip) ~op:(Phys.read8 phys pc) ~user;
        s_regs = regs;
        s_addr = addr;
        s_pa = pa;
        s_loaded = (if loads fm then Cpu.rd32 cpu addr else 0l);
        s_rec = rec_mem;
        s_taken = not (Int32.equal next fall);
      }
    in
    if Int32.equal next head then Array.of_list (List.rev (s :: acc)) else go (s :: acc) (n + 1)
  in
  go [] 0

(* An affine value: at iteration 0 and its step; or the value a load of
   the same iteration read (its index among the accesses). *)
type src = Aff of int32 * int32 | Slot of int

let aff v0 v1 = Aff (v0, Int32.sub v1 v0)
let at k v d = Int32.add v (Int32.mul (Int32.of_int k) d)

type access = {
  a_size : int;
  a_store : bool;
  a_addr : int32;  (* at iteration 0 *)
  a_stride : int32;
  a_pa0 : int;  (* physical, at the two observed iterations *)
  a_pa1 : int;
  a_src : src;  (* a store's value *)
}

(* A fixed cell, by physical address. *)
type cell = {
  c_pa : int;
  mutable c_taint : int;  (* the load whose value it holds, -1 for none *)
  mutable c_first : int;  (* the step that reads it before any write, -1 *)
  mutable c_last : int;  (* the step that last writes it, -1 *)
}

(* A flag setter's operands as affine values: op, a, da, b, db. *)
let setter it0 it1 f =
  match it0.(f).s_form with
  | Arith (op, a, b) ->
    let a0 = value it0.(f) a and b0 = value it0.(f) b in
    (op, a0, Int32.sub (value it1.(f) a) a0, b0, Int32.sub (value it1.(f) b) b0)
  | _ -> assert false

let flags_at (op, a0, da, b0, db) k fl =
  let a = at k a0 da and b = at k b0 db in
  match op with
  | Insn.Add -> Flags.of_add fl a b (Int32.add a b)
  | _ -> Flags.of_sub fl a b (Int32.sub a b)

(* The dataflow of one iteration: accesses in order, what each register
   holds at its end, the last flag setter and the conditional jumps. *)
let analyse it0 it1 regs2 =
  let n = Array.length it0 in
  let taint = Array.make 8 (-1) and written = Array.make 8 false in
  let read_first = Array.make 8 false in
  let use r =
    if not written.(r) then read_first.(r) <- true;
    taint.(r)
  in
  let set r v =
    written.(r) <- true;
    taint.(r) <- v
  in
  let accesses = ref [] and nacc = ref 0 and cells = ref [] in
  let last_setter = ref (-1) and jumps = ref [] in
  let clean t = if t >= 0 then raise (Stop true) in
  let cell pa =
    match List.find_opt (fun c -> c.c_pa = pa) !cells with
    | Some c -> c
    | None ->
      if List.exists (fun c -> abs (c.c_pa - pa) < 4) !cells then raise (Stop true);
      let c = { c_pa = pa; c_taint = -1; c_first = -1; c_last = -1 } in
      cells := c :: !cells;
      c
  in
  (* the access of step [i]: returns the loaded value's taint *)
  let access i =
    let s0 = it0.(i) and s1 = it1.(i) in
    (match s0.s_mem with
     | Some m ->
       Option.iter (fun r -> clean (use r)) m.Insn.base;
       Option.iter (fun (r, _) -> clean (use r)) m.Insn.index
     | None -> clean (use Insn.esp));
    let size = stores s0.s_form in
    let store = size > 0 in
    let stride = Int32.sub s1.s_addr s0.s_addr in
    let j = !nacc in
    let t =
      if store then begin
        let t = match s0.s_form with Put (_, v) -> (match v with R r -> use r | _ -> -1) | Push r -> use r | _ -> -1 in
        if Int32.equal stride 0l then begin
          if size <> 4 then raise (Stop true);
          let c = cell s0.s_pa in
          c.c_taint <- t;
          c.c_last <- i
        end;
        t
      end
      else if Int32.equal stride 0l then begin
        let c = cell s0.s_pa in
        if c.c_last < 0 && c.c_first < 0 then c.c_first <- i;
        if c.c_last < 0 then -1 else c.c_taint
      end
      else j
    in
    let a_src = if t >= 0 then Slot t else aff (stored s0) (stored s1) in
    accesses :=
      {
        a_size = (if store then size else 4);
        a_store = store;
        a_addr = s0.s_addr;
        a_stride = stride;
        a_pa0 = s0.s_pa;
        a_pa1 = s1.s_pa;
        a_src;
      }
      :: !accesses;
    incr nacc;
    if store then -1 else t
  in
  let operand i = function R r -> use r | I _ -> -1 | L -> access i in
  for i = 0 to n - 1 do
    match it0.(i).s_form with
    | Skip | Jump None -> ()
    | Jump (Some c) ->
      if !last_setter < 0 then raise (Stop true);
      jumps := (!last_setter, c, i) :: !jumps
    | Set (r, v) -> set r (operand i v)
    | Put _ -> ignore (access i)
    | Push _ ->
      ignore (access i);
      set Insn.esp (-1)
    | Pop r ->
      let t = access i in
      set Insn.esp (-1);
      set r t
    | Arith (op, a, b) ->
      clean (operand i a);
      clean (operand i b);
      (match (op, a) with (Insn.Add | Insn.Sub), R d -> set d (-1) | _ -> ());
      last_setter := i
  done;
  let start r = (it0.(0).s_regs.(r), it1.(0).s_regs.(r), regs2.(r)) in
  let affine3 (v0, v1, v2) = Int32.equal (Int32.sub v1 v0) (Int32.sub v2 v1) in
  let final =
    Array.init 8 (fun r ->
        if taint.(r) >= 0 then
          if read_first.(r) then raise (Stop true) else Slot taint.(r)
        else begin
          let ((v0, v1, _) as v) = start r in
          if not (affine3 v) then raise (Stop true);
          aff v0 v1
        end)
  in
  List.iter
    (fun c ->
      if c.c_first >= 0 then begin
        let v0 = it0.(c.c_first).s_loaded and v1 = it1.(c.c_first).s_loaded in
        let v2 =
          if c.c_last < 0 then v1
          else if c.c_taint >= 0 then raise (Stop true)
          else stored it1.(c.c_last)
        in
        if not (affine3 (v0, v1, v2)) then raise (Stop true)
      end)
    !cells;
  (Array.of_list (List.rev !accesses), final, !cells, !last_setter, !jumps)


(* The first iteration k >= 2 at which [p1 + (k - 1) * s] (s <> 0, the
   address of a moving access) lies in [lo, hi], else [max_int]. *)
let first_in p1 s lo hi =
  let p k = p1 + ((k - 1) * s) in
  let ceil_div a b = (a + b - 1) / b in
  let k =
    if s > 0 then if p 2 >= lo then 2 else 1 + ceil_div (lo - p1) s
    else if p 2 <= hi then 2
    else 1 + ceil_div (p1 - hi) (-s)
  in
  if p k >= lo && p k <= hi then k else max_int

(* What applying a summary needs, and no more: the observed iterations
   are garbage by the time the replay runs, so a minor collection during
   it has little to promote. *)
type summary = {
  m : int;  (* instructions per iteration *)
  c2 : int;  (* the cycle at the head of iteration 2 *)
  k1 : int;  (* the summary skips iterations 2 .. k1 - 1 *)
  accesses : access array;
  final : src array;  (* the registers at the head of iteration k1 *)
  flags : (Insn.alu * int32 * int32 * int32 * int32) option;  (* the last flag setter *)
  tws : int array;  (* per instruction: the recorder's trace word, *)
  recs : int array;  (* its memory operand at iteration 0 *)
  drecs : int array;  (* and that operand's step *)
}

(* Observe two iterations from the head and bound the summary. *)
let plan cpu ~limit ~code_gen =
  let mmu = cpu.Cpu.mmu in
  let head = cpu.Cpu.eip in
  let gen0 = Mmu.generation mmu and code0 = code_gen () in
  let check () = Mmu.generation mmu = gen0 && code_gen () = code0 in
  let it0 = iteration cpu ~limit ~head ~check in
  let it1 = iteration cpu ~limit ~head ~check in
  if Array.length it1 <> Array.length it0
     || not
          (Array.for_all2
             (fun a b -> Int32.equal a.s_eip b.s_eip && a.s_insn = b.s_insn && a.s_taken = b.s_taken)
             it0 it1)
  then raise (Stop true);
  let accesses, final, cells, last_setter, jumps = analyse it0 it1 cpu.Cpu.regs in
  let m = Array.length it0 in
  let user = cpu.Cpu.mode = Cpu.User in
  let code_pages = Array.map (fun s -> Mmu.probe mmu ~user s.s_eip lsr Mmu.page_shift) it0 in
  let c2 = cpu.Cpu.cycles in
  (* the run's limit and, with IF set, the tick *)
  let k1 = 2 + ((limit - c2) / m) in
  let k1 =
    if cpu.Cpu.eflags land Flags.if_ = 0 then k1
    else min k1 (2 + ((cpu.Cpu.next_timer - c2) / m))
  in
  (* A moving access stays on its page.  A moving store stays off the
     loop's code pages and off every fixed cell, and a moving load off
     every cell the iteration writes: so the cells hold what the
     iteration alone puts there, and only their last values need
     writing back. *)
  let bound k1 a =
    if Int32.equal a.a_stride 0l then k1
    else begin
      let s = Int32.to_int a.a_stride in
      let off = Int32.to_int (at 1 a.a_addr a.a_stride) land (Mmu.page_size - 1) in
      let last = if s > 0 then 1 + ((Mmu.page_size - a.a_size - off) / s) else 1 + (off / -s) in
      let page p = p lsr Mmu.page_shift in
      if a.a_store && Array.exists (fun p -> p = page a.a_pa0 || p = page a.a_pa1) code_pages
      then raise (Stop true);
      List.fold_left
        (fun k1 c ->
          if not (a.a_store || c.c_last >= 0) then k1
          else begin
            let lo = c.c_pa - a.a_size + 1 and hi = c.c_pa + 3 in
            if (a.a_pa0 >= lo && a.a_pa0 <= hi) || (a.a_pa1 >= lo && a.a_pa1 <= hi) then
              raise (Stop true);
            min k1 (first_in a.a_pa1 s lo hi)
          end)
        (min k1 (last + 1)) cells
    end
  in
  let k1 = Array.fold_left bound k1 accesses in
  (* each branch goes the way it went: at k = 0 and 1 as observed *)
  let jumps =
    Array.of_list
      (List.map
         (fun (f, c, i) ->
           let sf = setter it0 it1 f in
           let taken = it0.(i).s_taken in
           if Flags.eval_cond (flags_at sf 0 0) c <> taken
              || Flags.eval_cond (flags_at sf 1 0) c <> taken
           then raise (Stop true);
           (sf, c, taken))
         jumps)
  in
  let same k =
    let ok = ref true and j = ref 0 in
    while !ok && !j < Array.length jumps do
      let sf, c, taken = jumps.(!j) in
      ok := Flags.eval_cond (flags_at sf k 0) c = taken;
      incr j
    done;
    !ok
  in
  let k = ref 2 in
  while !k < k1 && same !k do
    incr k
  done;
  {
    m;
    c2;
    k1 = !k;
    accesses;
    final;
    flags = (if last_setter < 0 then None else Some (setter it0 it1 last_setter));
    tws = Array.map (fun s -> s.s_tw) it0;
    recs = Array.map (fun s -> s.s_rec) it0;
    drecs = Array.mapi (fun i s -> it1.(i).s_rec - s.s_rec) it0;
  }

(* Replay iterations 2 .. [k1 - 1]'s accesses and set the state the
   plain run has at the head of iteration [k1].  Moving stores, and the
   loads whose values they or the registers take, run in every
   iteration, in order; stores to fixed cells only in the last, whose
   values are the ones left (no moving access reaches those cells).
   Loads nothing takes change nothing and are left out. *)
let apply cpu { m; c2; k1; accesses; final; flags; tws; recs; drecs } =
  let n = Array.length accesses in
  let slots = Array.make n 0l in
  let taken = Array.make n false in
  let take = function Slot l -> taken.(l) <- true | Aff _ -> () in
  Array.iter (fun a -> if a.a_store then take a.a_src) accesses;
  Array.iter take final;
  let replay k j =
    let a = accesses.(j) in
    let addr = at k a.a_addr a.a_stride in
    if not a.a_store then slots.(j) <- Cpu.rd32 cpu addr
    else begin
      let v = match a.a_src with Slot l -> slots.(l) | Aff (v, d) -> at k v d in
      if a.a_size = 4 then Cpu.wr32 cpu addr v else Cpu.wr8 cpu addr (Int32.to_int v land 0xff)
    end
  in
  let moving j = not (Int32.equal accesses.(j).a_stride 0l) in
  let every =
    Array.of_list
      (List.filter
         (fun j -> if accesses.(j).a_store then moving j else taken.(j))
         (List.init n Fun.id))
  in
  for k = 2 to k1 - 2 do
    for x = 0 to Array.length every - 1 do
      replay k (Array.unsafe_get every x)
    done
  done;
  for j = 0 to n - 1 do
    if accesses.(j).a_store || taken.(j) then replay (k1 - 1) j
  done;
  Array.iteri
    (fun r src -> cpu.Cpu.regs.(r) <- (match src with Aff (v, d) -> at k1 v d | Slot l -> slots.(l)))
    final;
  Option.iter (fun sf -> cpu.Cpu.eflags <- flags_at sf (k1 - 1) cpu.Cpu.eflags) flags;
  let skipped = (k1 - 2) * m in
  cpu.Cpu.cycles <- c2 + skipped;
  let tr = cpu.Cpu.trace in
  if Trace.enabled tr then begin
    (* only the last ring of records can be read *)
    let quiet = max 0 (skipped - Trace.capacity tr) in
    Trace.advance tr quiet;
    for r = quiet to skipped - 1 do
      let k = 2 + (r / m) and i = r mod m in
      let mem = if recs.(i) < 0 then -1 else (recs.(i) + (k * drecs.(i))) land 0xFFFFFFFF in
      Trace.record_tw tr ~cycle:(c2 + r) ~tw:tws.(i) ~mem
    done
  end;
  skipped

(* At a loop head (an instruction boundary the machine-run checks have
   passed), with no debug register armed and the recorder below [Full]:
   step two iterations and, if the loop is affine, apply its summary up
   to the first bound.  The cycles skipped; 0 when nothing was skipped,
   -1 when the loop does not qualify.  Either way every instruction
   stepped or skipped leaves the plain run's state. *)
let summarize cpu ~limit ~code_gen =
  match plan cpu ~limit ~code_gen with
  | exception Stop back_off -> if back_off then -1 else 0
  | p -> if p.k1 <= 2 then 0 else apply cpu p
