(* Loop summaries: how the block engine runs the kernel's bulk-memory
   loops ([clear_page], [memset], [memcpy]'s word loop, [copy_page]) and
   its page-table scans ([copy_page_tables], [free_page_tables],
   [pgd_alloc]'s kernel-PDE copy) a page at a time.

   [Bbexec] calls [summarize] at a loop head: a block dispatched again
   within [window] cycles, [streak] times in a row.  It steps two
   iterations on the reference [Cpu.step] and records each instruction,
   the values of its operands, the address it accesses (from [Cpu.ea])
   and the value it loads.  The loop is summarised only when all of
   these hold:

   - both iterations run the same instructions, every one of a form
     that maps affine inputs to affine outputs ([form]: moves, push,
     pop, add/sub/cmp, shl by a constant, and/or/xor, jumps);
   - each access either stays at one address (a fixed cell) or moves by
     a fixed stride; a value loaded from a moving address is only moved
     and stored, never added, compared or used as an address, and it is
     dead when the next iteration starts, unless the load is uniform
     (below);
   - every conditional jump reads flags set earlier in the same
     iteration by an add/sub/cmp or a logic op;
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
   cells stay what the iteration alone writes.  Three rules extend the
   forms:

   - [shl r, n] is affine: (a + b·k)·2ⁿ = a·2ⁿ + b·2ⁿ·k mod 2³².  Its
     flags are not (the carry is a bit shifted out), so an add/sub/cmp
     or logic op must overwrite them before any jump reads them and
     before the iteration ends;
   - [and]/[or]/[xor] qualify when both operands took the same value in
     both observed iterations.  Every value up to that instruction is
     affine, and an affine value equal at k = 0 and k = 1 is constant,
     so the result and its flags ([Flags.of_logic]) are too;
   - a uniform load, a moving load that read the same word v in both
     observed iterations, is taken as the constant v for as many
     iterations as the words it will read equal v.  The plan reads them
     from iteration 2 on and ends the summary before the first word that
     differs; real execution takes that iteration.  Nothing changes the
     scanned words before the plain run reads them: a moving load stays
     off the cells the iteration writes, and a moving store off the words
     a uniform load will read (both bounds below; a store moving by
     another stride on the scanned page refuses the loop).  Nothing takes
     a uniform load's value, so it is not replayed.

   Hence the bounds: the summary covers iterations 2 .. n-1 with n the
   first iteration at which a branch would go the other way, a moving
   access would leave its page (real execution crosses, taking the TLB
   fill or fault), a moving store would reach a cell the iteration
   reads or a word a uniform load will read, a uniform load would read
   a different word, the timer tick would come due with IF set, or the
   run's limit would pass.  A branch whose setter's operands do not
   move goes the observed way at every k; a moving compare of the kinds
   kcc emits changes at most once while its operands do not wrap, so
   its first flip is a closed form, checked with [Flags] at that
   iteration and the one before it (any other moving branch refuses the
   loop).  Values loaded from moving addresses are not predicted,
   except a uniform load's: the replay reads them again.  A summary
   that the loop itself ends after fewer than [min_skip] cycles backs
   its head off, as a failed analysis does.

   Applying a summary replays the accesses of iterations 2 .. n-1, in
   order, on the physical words iteration 1's went to, moved by their
   strides: each moving access stays on the page iteration 1 translated,
   and [Phys] marks it dirty.  No page a replayed store reaches holds
   decoded code: iterations 0 and 1 stored to it under [check], which
   fails when a store reaches such a page, and nothing decodes during
   the replay.  It sets the registers to their values at iteration n,
   eflags from the last flag setter of iteration n-1 (its other bits
   unchanged) and the cycle counter, and writes the flight recorder's
   last ring of records from the observed iterations (their memory
   operands are affine too).  eip is the head again.  Nothing else is evaluated here: values come from stepping,
   addresses from [Cpu.ea], memory from the physical words the observed
   iterations accessed, and branch outcomes from [Flags] (or a closed
   form checked against it). *)

let window = 64
let streak = 3
let min_skip = 512

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
  | Arith of Insn.alu * operand * operand  (* flags of [a op b]; all but cmp write a *)
  | Shl of int * int  (* register <- register lsl n *)
  | Jump of Insn.cond option * int32  (* and its displacement *)
  | Skip

(* The whitelist, with each form's explicit memory operand. *)
let form (insn : Insn.t) =
  let open Insn in
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
  | Alu_rm_r (op, Reg d, s) | Alu_r_rm (op, d, Reg s) -> Some (Arith (op, R d, R s), None)
  | Alu_r_rm (op, d, Mem m) -> Some (Arith (op, R d, L), Some m)
  | Alu_rm_i (op, Reg d, v) | Alu_rm_i8 (op, Reg d, v) -> Some (Arith (op, R d, I v), None)
  | Alu_eax_i (op, v) -> Some (Arith (op, R eax, I v), None)
  | Alu_rm_i (Cmp, Mem m, v) | Alu_rm_i8 (Cmp, Mem m, v) -> Some (Arith (Cmp, L, I v), Some m)
  | Shift_i (Shl, Reg r, n) -> Some (Shl (r, n), None)
  | Jcc (c, rel) | Jcc8 (c, rel) -> Some (Jump (Some c, rel), None)
  | Jmp rel | Jmp8 rel -> Some (Jump (None, rel), None)
  | _ -> None

let loads = function Set (_, L) | Arith (_, L, _) | Arith (_, _, L) | Pop _ -> true | _ -> false
let stores = function Put (n, _) -> n | Push _ -> 4 | _ -> 0

(* One observed instruction. *)
type step = {
  s_eip : int32;
  s_len : int;
  s_form : form;
  s_mem : Insn.mem option;
  s_tw : int;  (* the flight recorder's trace word *)
  s_a : int32;  (* its first operand's value, a store's value *)
  s_b : int32;  (* its second operand's *)
  s_addr : int32;  (* the address it accesses *)
  s_pa : int;  (* ... physically; -1: no access *)
  s_loaded : int32;  (* the value it loads *)
  s_rec : int;  (* the recorder's memory operand, -1 for none *)
  s_taken : bool;  (* it left eip elsewhere than the next instruction *)
}

(* Give up: [true] when the loop itself is unfit (back off), [false]
   when only this moment is (a tick or the limit). *)
exception Stop of bool

exception Off_page

let decode_at phys pa =
  let lim = (pa lor (Mmu.page_size - 1)) + 1 in
  match Decode.decode (fun i -> if pa + i >= lim then raise Off_page else Phys.read8 phys (pa + i)) with
  | Decode.Ok (insn, len) -> (insn, len)
  | Decode.Invalid | (exception (Off_page | Phys.Bad_physical_address _)) -> raise (Stop true)

(* Step one iteration, from the head back to it.  The second iteration
   reuses the first's decoding: it must run the same instructions, and
   no write to a page holding decoded code happened in between. *)
let iteration cpu ~limit ~head ~check ~prev =
  let mmu = cpu.Cpu.mmu and phys = cpu.Cpu.phys in
  let user = cpu.Cpu.mode = Cpu.User in
  let regs = cpu.Cpu.regs in
  let np = Array.length prev in
  let rec go acc n =
    if n >= max_insns then raise (Stop true);
    if cpu.Cpu.halted || cpu.Cpu.snapshot_request || cpu.Cpu.cycles >= limit
       || (cpu.Cpu.cycles >= cpu.Cpu.next_timer && cpu.Cpu.eflags land Flags.if_ <> 0)
    then raise (Stop false);
    let eip = cpu.Cpu.eip in
    let pc = Mmu.probe mmu ~user eip in
    if pc < 0 then raise (Stop true);
    let len, fm, mem, tw =
      if np = 0 then begin
        (* what [Cpu.step] will execute: its decoded-instruction cache's
           entry, else the bytes *)
        let insn, len =
          match Hashtbl.find_opt cpu.Cpu.icache pc with Some d -> d | None -> decode_at phys pc
        in
        let fm, mem = match form insn with Some f -> f | None -> raise (Stop true) in
        (len, fm, mem, Trace.pack_tw ~ieip:(Int32.to_int eip) ~op:(Phys.read8 phys pc) ~user)
      end
      else if n < np && Int32.equal prev.(n).s_eip eip then
        let p = prev.(n) in
        (p.s_len, p.s_form, p.s_mem, p.s_tw)
      else raise (Stop true)
    in
    let size = if loads fm then 4 else stores fm in
    let addr =
      if size = 0 then 0l
      else
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
    let reg = function R r -> regs.(r) | I v -> v | L -> 0l in
    let a =
      match fm with
      | Set (_, x) | Put (_, x) | Arith (_, x, _) -> reg x
      | Push r | Shl (r, _) -> regs.(r)
      | Pop _ | Jump _ | Skip -> 0l
    in
    let b = match fm with Arith (_, _, y) -> reg y | _ -> 0l in
    let c = cpu.Cpu.cycles in
    Cpu.step cpu;
    let fall = Int32.add eip (Int32.of_int len) in
    let next = cpu.Cpu.eip in
    let to_target =
      match fm with Jump (_, rel) -> Int32.equal next (Int32.add fall rel) | _ -> false
    in
    if cpu.Cpu.cycles <> c + 1 || (not (check ())) || not (Int32.equal next fall || to_target)
    then raise (Stop true);
    (* a load leaves memory as it was *)
    let loaded = if loads fm then Phys.read32 phys pa else 0l in
    let s =
      {
        s_eip = eip;
        s_len = len;
        s_form = fm;
        s_mem = mem;
        s_tw = tw;
        s_a = (match fm with Set (_, L) | Arith (_, L, _) -> loaded | _ -> a);
        s_b = (match fm with Arith (_, _, L) -> loaded | _ -> b);
        s_addr = addr;
        s_pa = pa;
        s_loaded = loaded;
        s_rec = (match mem with Some _ -> Int32.to_int addr land 0xFFFFFFFF | None -> -1);
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
  a_uniform : bool;  (* a moving load that reads a run of equal words *)
  a_addr : int32;  (* at iteration 0 *)
  a_stride : int32;
  a_pa0 : int;  (* physical, at the two observed iterations *)
  a_pa1 : int;
  a_src : src;  (* a store's value; a uniform load's word *)
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
  let s0 = it0.(f) and s1 = it1.(f) in
  match s0.s_form with
  | Arith (op, _, _) -> (op, s0.s_a, Int32.sub s1.s_a s0.s_a, s0.s_b, Int32.sub s1.s_b s0.s_b)
  | _ -> assert false

let flags_at (op, a0, da, b0, db) k fl =
  let a = at k a0 da and b = at k b0 db in
  match op with
  | Insn.Add -> Flags.of_add fl a b (Int32.add a b)
  | Insn.Sub | Insn.Cmp -> Flags.of_sub fl a b (Int32.sub a b)
  | Insn.And -> Flags.of_logic fl (Int32.logand a b)
  | Insn.Or -> Flags.of_logic fl (Int32.logor a b)
  | Insn.Xor -> Flags.of_logic fl (Int32.logxor a b)

(* The analysis needs a moving load's value: the step of that load. *)
exception Uniform of int

(* The dataflow of one iteration: accesses in order, what each register
   holds at its end, the last flag setter and the conditional jumps.
   [uniform] lists the steps whose moving loads are uniform. *)
let analyse ~uniform it0 it1 start0 start1 regs2 =
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
  let load_step = Array.make n (-1) in
  let last_setter = ref (-1) and jumps = ref [] in
  (* a moving load's value is used: fine only as a uniform load's *)
  let clean t =
    if t >= 0 then begin
      let i = load_step.(t) in
      raise (if Int32.equal it0.(i).s_loaded it1.(i).s_loaded then Uniform i else Stop true)
    end
  in
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
    let uni = (not store) && (not (Int32.equal stride 0l)) && List.mem i uniform in
    let t =
      if store then begin
        let t = match s0.s_form with Put (_, R r) | Push r -> use r | _ -> -1 in
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
      else if uni then -1
      else j
    in
    load_step.(j) <- i;
    let a_src =
      if uni then Aff (s0.s_loaded, 0l)
      else if t >= 0 then Slot t
      else aff s0.s_a s1.s_a
    in
    accesses :=
      {
        a_size = (if store then size else 4);
        a_store = store;
        a_uniform = uni;
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
    | Skip | Jump (None, _) -> ()
    | Jump (Some c, _) ->
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
    | Shl (r, _) ->
      clean (use r);
      set r (-1);
      (* its flags are not affine: no jump may read them *)
      last_setter := -2
    | Arith (op, a, b) ->
      clean (operand i a);
      clean (operand i b);
      (match op with
       | Insn.And | Insn.Or | Insn.Xor ->
         if not (Int32.equal it0.(i).s_a it1.(i).s_a && Int32.equal it0.(i).s_b it1.(i).s_b)
         then raise (Stop true)
       | Insn.Add | Insn.Sub | Insn.Cmp -> ());
      (match (op, a) with Insn.Cmp, _ -> () | _, R d -> set d (-1) | _ -> ());
      last_setter := i
  done;
  if !last_setter = -2 then raise (Stop true);
  let affine3 (v0, v1, v2) = Int32.equal (Int32.sub v1 v0) (Int32.sub v2 v1) in
  let final =
    Array.init 8 (fun r ->
        if taint.(r) >= 0 then
          if read_first.(r) then raise (Stop true) else Slot taint.(r)
        else begin
          let v0 = start0.(r) and v1 = start1.(r) in
          if not (affine3 (v0, v1, regs2.(r))) then raise (Stop true);
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
          else it1.(c.c_last).s_a
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

(* A moving compare [a - b] (a = a0 + da·k, b = b0 + db·k) read by a
   jump on one of the conditions kcc emits: while neither operand wraps
   (unsigned or signed, as the condition compares), a - b is the integer
   x0 + dx·k and the condition a comparison of it with 0, which changes
   at most once.  The first iteration k >= 2 at which it would go the
   other way ([max_int]: none) and the first at which an operand wraps;
   [None] for any other setter or condition. *)
let closed_exit (op, a0, da, b0, db) (c : Insn.cond) =
  let signed = match c with L | GE | LE | G -> true | _ -> false in
  match (op, c) with
  | (Insn.Sub | Insn.Cmp), (B | AE | E | NE | BE | A | L | GE | LE | G) ->
    let norm v = if signed then Int32.to_int v else Int32.to_int v land 0xFFFFFFFF in
    let lo, hi = if signed then (-0x8000_0000, 0x7FFF_FFFF) else (0, 0xFFFF_FFFF) in
    let a0 = norm a0 and b0 = norm b0 and da = Int32.to_int da and db = Int32.to_int db in
    (* the first k at which v0 + d·k leaves [lo, hi] *)
    let wrap v0 d =
      if d > 0 then ((hi - v0) / d) + 1 else if d < 0 then ((v0 - lo) / -d) + 1 else max_int
    in
    let x0 = a0 - b0 and dx = da - db in
    let flip =
      match c with
      | E | NE ->
        (* x <> 0 at k = 0 and 1 unless dx = 0: it flips where x = 0 *)
        if dx <> 0 && x0 mod dx = 0 && -x0 / dx >= 2 then -x0 / dx else max_int
      | _ ->
        (* the condition or its negation is x >= t *)
        let t = match c with BE | A | LE | G -> 1 | _ -> 0 in
        if x0 >= t then if dx < 0 then ((x0 - t) / -dx) + 1 else max_int
        else if dx > 0 then (t - x0 + dx - 1) / dx
        else max_int
    in
    Some (flip, min (wrap a0 da) (wrap b0 db))
  | _ -> None

(* What applying a summary needs, and no more: the observed iterations
   are garbage by the time the replay runs, so a minor collection during
   it has little to promote. *)
type summary = {
  m : int;  (* instructions per iteration *)
  c2 : int;  (* the cycle at the head of iteration 2 *)
  k1 : int;  (* the summary skips iterations 2 .. k1 - 1 *)
  short : bool;  (* the loop ended it before [min_skip] cycles *)
  uniform : bool;  (* it reads a run of equal words *)
  accesses : access array;
  final : src array;  (* the registers at the head of iteration k1 *)
  flags : (Insn.alu * int32 * int32 * int32 * int32) option;  (* the last flag setter *)
  tws : int array;  (* per instruction: the recorder's trace word, *)
  recs : int array;  (* its memory operand at iteration 0 *)
  drecs : int array;  (* and that operand's step *)
}

(* Observe two iterations from the head and bound the summary. *)
let plan cpu ~limit ~code_gen =
  let mmu = cpu.Cpu.mmu and phys = cpu.Cpu.phys in
  let head = cpu.Cpu.eip in
  let gen0 = Mmu.generation mmu and code0 = code_gen () in
  let check () = Mmu.generation mmu = gen0 && code_gen () = code0 in
  let start0 = Array.copy cpu.Cpu.regs in
  let it0 = iteration cpu ~limit ~head ~check ~prev:[||] in
  let start1 = Array.copy cpu.Cpu.regs in
  let it1 = iteration cpu ~limit ~head ~check ~prev:it0 in
  if Array.length it1 <> Array.length it0 then raise (Stop true);
  let rec analysis uniform =
    match analyse ~uniform it0 it1 start0 start1 cpu.Cpu.regs with
    | r -> r
    | exception Uniform i -> if List.mem i uniform then raise (Stop true) else analysis (i :: uniform)
  in
  let accesses, final, cells, last_setter, jumps = analysis [] in
  let m = Array.length it0 in
  let user = cpu.Cpu.mode = Cpu.User in
  let code_pages = Array.map (fun s -> Mmu.probe mmu ~user s.s_eip lsr Mmu.page_shift) it0 in
  let c2 = cpu.Cpu.cycles in
  (* the moment: the run's limit and, with IF set, the tick *)
  let km = 2 + ((limit - c2) / m) in
  let km =
    if cpu.Cpu.eflags land Flags.if_ = 0 then km
    else min km (2 + ((cpu.Cpu.next_timer - c2) / m))
  in
  (* The loop's own bounds.  A moving access stays on its page.  A
     moving store stays off the loop's code pages and off every fixed
     cell, and a moving load off every cell the iteration writes: so the
     cells hold what the iteration alone puts there, and only their last
     values need writing back. *)
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
  let kl = Array.fold_left bound max_int accesses in
  (* A moving store stays off the words a uniform load has yet to read:
     with the load's stride, off the word that the load of its own or a
     later iteration reads; with another, off the load's page. *)
  let kl =
    Array.fold_left
      (fun kl u ->
        if not u.a_uniform then kl
        else
          Array.fold_left
            (fun kl s ->
              let st = Int32.to_int s.a_stride in
              if (not s.a_store) || st = 0 then kl
              else if Int32.equal s.a_stride u.a_stride then
                (* the store of iteration j reaches the load of j + t *)
                min kl (first_in (u.a_pa1 - s.a_pa1 - st) st (-3) (s.a_size - 1))
              else if s.a_pa1 lsr Mmu.page_shift = u.a_pa1 lsr Mmu.page_shift then raise (Stop true)
              else kl)
            kl accesses)
      kl accesses
  in
  (* Each branch goes the way it went at k = 0 and 1: for good when its
     setter's operands do not move, and up to a closed-form exit when
     they do.  A moving branch without one refuses the loop. *)
  let kl =
    List.fold_left
      (fun kl (f, c, i) ->
        let ((_, _, da, _, db) as sf) = setter it0 it1 f in
        let taken = it0.(i).s_taken in
        let holds k = Flags.eval_cond (flags_at sf k 0) c = taken in
        if not (holds 0 && holds 1) then raise (Stop true);
        if Int32.equal da 0l && Int32.equal db 0l then kl
        else
          match closed_exit sf c with
          | Some (flip, wrap)
            when (let k = min flip wrap in
                  k <= 2 || holds (k - 1))
                 && (flip >= min kl wrap || not (holds flip)) ->
            min kl (min flip wrap)
          | _ -> raise (Stop true))
      kl jumps
  in
  (* a uniform load's words, from iteration 2 on *)
  let kl =
    Array.fold_left
      (fun kl a ->
        match a.a_src with
        | Aff (v, _) when a.a_uniform ->
          let stop = min kl km and s = Int32.to_int a.a_stride in
          let k = ref 2 in
          while !k < stop && Int32.equal (Phys.read32 phys (a.a_pa1 + ((!k - 1) * s))) v do
            incr k
          done;
          if !k < stop then !k else kl
        | _ -> kl)
      kl accesses
  in
  let k1 = max 2 (min kl km) in
  {
    m;
    c2;
    k1;
    short = kl <= km && (k1 - 2) * m < min_skip;
    uniform = Array.exists (fun a -> a.a_uniform) accesses;
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
   Loads nothing takes change nothing and are left out.  Each access
   goes to the physical word iteration 1's did, moved by its stride. *)
let apply cpu { m; c2; k1; accesses; final; flags; tws; recs; drecs; _ } =
  let phys = cpu.Cpu.phys in
  let n = Array.length accesses in
  let slots = Array.make n 0l in
  let taken = Array.make n false in
  let take = function Slot l -> taken.(l) <- true | Aff _ -> () in
  Array.iter (fun a -> if a.a_store then take a.a_src) accesses;
  Array.iter take final;
  let value k a = match a.a_src with Slot l -> slots.(l) | Aff (v, d) -> at k v d in
  let replay k j =
    let a = accesses.(j) in
    let pa = a.a_pa1 + ((k - 1) * Int32.to_int a.a_stride) in
    if not a.a_store then slots.(j) <- Phys.read32 phys pa
    else if a.a_size = 4 then Phys.write32 phys pa (value k a)
    else Phys.write8 phys pa (Int32.to_int (value k a) land 0xff)
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
    (* only the last ring of records can be read: from record [quiet],
       iteration [k0]'s instruction [i0], on *)
    let quiet = max 0 (skipped - Trace.capacity tr) in
    Trace.advance tr quiet;
    let k0 = 2 + (quiet / m) and i0 = quiet mod m in
    for k = k0 to k1 - 1 do
      let c = c2 + ((k - 2) * m) in
      for i = (if k = k0 then i0 else 0) to m - 1 do
        let r = Array.unsafe_get recs i in
        let mem = if r < 0 then -1 else (r + (k * Array.unsafe_get drecs i)) land 0xFFFFFFFF in
        Trace.record_tw tr ~cycle:(c + i) ~tw:(Array.unsafe_get tws i) ~mem
      done
    done
  end;
  skipped

type outcome =
  | Unfit
  | Paused
  | Summarised of { skipped : int; short : bool; uniform : bool }

(* At a loop head (an instruction boundary the machine-run checks have
   passed), with no debug register armed and the recorder below [Full]:
   step two iterations and, if the loop is affine, apply its summary up
   to the first bound.  Either way every instruction stepped or skipped
   leaves the plain run's state. *)
let summarize cpu ~limit ~code_gen =
  match plan cpu ~limit ~code_gen with
  | exception Stop back_off -> if back_off then Unfit else Paused
  | p ->
    Summarised
      { skipped = (if p.k1 <= 2 then 0 else apply cpu p); short = p.short; uniform = p.uniform }
