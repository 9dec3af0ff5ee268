(* The flight recorder: a fixed-capacity cycle-stamped ring buffer of
   executed instructions plus a smaller ring of notable machine events
   (traps, mode switches, CR3 loads, debug-register hits).

   The recorder is owned by the CPU and fed from [Cpu.step].  When the
   level is [Off] the only cost per instruction is one field load and a
   compare; [Ring] records retired instructions; [Full] additionally
   records events.  State is snapshot/restore-aware so per-injection
   traces never bleed into each other.

   Entries are stored in parallel unboxed arrays, not a record ring, so
   recording is a handful of array stores and restore is four blits. *)

type level = Off | Ring | Full

let level_name = function Off -> "off" | Ring -> "ring" | Full -> "full"

type entry = {
  en_cycle : int;
  en_eip : int32;
  en_op : int;          (* first opcode byte, -1 if the fetch could not be re-read *)
  en_user : bool;
  en_mem : int option;  (* virtual address of an explicit memory operand *)
}

(* Event kinds, kept as small ints so the ring stays unboxed. *)
let ev_trap = 0          (* a = vector, b = eip at delivery *)
let ev_mode_user = 1     (* b = eip *)
let ev_mode_kernel = 2   (* b = eip *)
let ev_cr3 = 3           (* a = new cr3 *)
let ev_debug_hit = 4     (* a = dr index, b = eip *)
let ev_triple_fault = 5  (* a = vector *)

let event_kind_name k =
  match k with
  | 0 -> "trap"
  | 1 -> "mode->user"
  | 2 -> "mode->kernel"
  | 3 -> "cr3 load"
  | 4 -> "debug hit"
  | 5 -> "triple fault"
  | _ -> Printf.sprintf "event %d" k

type event = { ev_cycle : int; ev_kind : int; ev_a : int; ev_b : int }

type t = {
  capacity : int;
  cycles : int array;
  tws : int array;           (* bits 0..31 = eip (unsigned);
                                bits 32..40 = opcode byte + 1 (0 = unknown);
                                bit 41 = user mode.  One unboxed store per
                                entry; the block engine precomputes these
                                words per decoded instruction. *)
  mems : int array;          (* -1 = no memory operand *)
  mutable pos : int;         (* next write slot *)
  mutable seen : int;        (* total instructions recorded since last clear;
                                the retained length is [min seen capacity] *)
  ev_capacity : int;
  ev_cycles : int array;
  ev_kinds : int array;
  ev_as : int array;
  ev_bs : int array;
  mutable ev_pos : int;
  mutable ev_len : int;
  mutable ev_seen : int;
  mutable level : level;
}

let default_capacity = 1024
let default_ev_capacity = 256

let create ?(capacity = default_capacity) ?(ev_capacity = default_ev_capacity) () =
  {
    capacity;
    cycles = Array.make capacity 0;
    tws = Array.make capacity 0;
    mems = Array.make capacity (-1);
    pos = 0;
    seen = 0;
    ev_capacity;
    ev_cycles = Array.make ev_capacity 0;
    ev_kinds = Array.make ev_capacity 0;
    ev_as = Array.make ev_capacity 0;
    ev_bs = Array.make ev_capacity 0;
    ev_pos = 0;
    ev_len = 0;
    ev_seen = 0;
    level = Off;
  }

let level t = t.level
let set_level t l = t.level <- l
let enabled t = t.level <> Off

let clear t =
  t.pos <- 0;
  t.seen <- 0;
  t.ev_pos <- 0;
  t.ev_len <- 0;
  t.ev_seen <- 0

let length t = if t.seen < t.capacity then t.seen else t.capacity
let seen t = t.seen
let capacity t = t.capacity

(* Count [n] instruction records as written without writing them: the
   total and the write slot move on as if they had been.  The slots keep
   their old contents, so the caller records at least [capacity] more
   entries before anything reads the ring. *)
let advance t n =
  t.seen <- t.seen + n;
  t.pos <- (t.pos + n) mod t.capacity

(* Record one retired instruction from its precomputed trace word (see
   the [tws] layout above).  Callers guard on [enabled].  This is the
   block engine's per-instruction path: three unboxed stores. *)
let[@inline] record_tw t ~cycle ~tw ~mem =
  let i = t.pos in
  Array.unsafe_set t.cycles i cycle;
  Array.unsafe_set t.tws i tw;
  Array.unsafe_set t.mems i mem;
  t.pos <- (if i + 1 = t.capacity then 0 else i + 1);
  t.seen <- t.seen + 1

let pack_tw ~ieip ~op ~user =
  (ieip land 0xFFFFFFFF)
  lor ((((op + 1) land 0x1FF) lor (if user then 0x200 else 0)) lsl 32)

(* Record one retired instruction.  Callers guard on [enabled]. *)
let record t ~cycle ~eip ~op ~user ~mem =
  record_tw t ~cycle ~tw:(pack_tw ~ieip:(Int32.to_int eip) ~op ~user) ~mem

(* Record a machine event; only when the level is [Full]. *)
let record_event t ~cycle ~kind ~a ~b =
  if t.level = Full then begin
    let i = t.ev_pos in
    t.ev_cycles.(i) <- cycle;
    t.ev_kinds.(i) <- kind;
    t.ev_as.(i) <- a;
    t.ev_bs.(i) <- b;
    t.ev_pos <- (if i + 1 = t.ev_capacity then 0 else i + 1);
    if t.ev_len < t.ev_capacity then t.ev_len <- t.ev_len + 1;
    t.ev_seen <- t.ev_seen + 1
  end

(* Oldest-first fold over the retained entries. *)
let fold t ~init ~f =
  let len = length t in
  let start = (t.pos - len + t.capacity) mod t.capacity in
  let acc = ref init in
  for k = 0 to len - 1 do
    let i = (start + k) mod t.capacity in
    let tw = t.tws.(i) in
    let op = tw lsr 32 in
    acc :=
      f !acc
        {
          en_cycle = t.cycles.(i);
          en_eip = Int32.of_int (tw land 0xFFFFFFFF);
          en_op = (op land 0x1FF) - 1;
          en_user = op land 0x200 <> 0;
          en_mem = (if t.mems.(i) < 0 then None else Some t.mems.(i));
        }
  done;
  !acc

let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let events t =
  let start = (t.ev_pos - t.ev_len + t.ev_capacity) mod t.ev_capacity in
  List.init t.ev_len (fun k ->
      let i = (start + k) mod t.ev_capacity in
      {
        ev_cycle = t.ev_cycles.(i);
        ev_kind = t.ev_kinds.(i);
        ev_a = t.ev_as.(i);
        ev_b = t.ev_bs.(i);
      })

(* Recount the records written so far: [n] replaces [seen], keeping the
   retained entries where they are.  Only for [n >= length t], which
   retains the same entries. *)
let set_seen t n =
  if n < length t then invalid_arg "Trace.set_seen: fewer than the retained entries";
  t.seen <- n

(* Snapshot/restore: the retained entries only, oldest first, packed
   into bytes (eip, memory operand, cycle offset from the first entry,
   opcode and flags: 14 bytes each), and the retained events.  A slot
   outside the retained window is never read, so restoring the
   retained ones rebuilds everything observable. *)
type snapshot = {
  s_entries : Bytes.t;
  s_cycle0 : int;  (* the first retained entry's cycle *)
  s_cycles : int array;  (* the cycles in full when they span 2^32 or more *)
  s_pos : int;
  s_seen : int;
  s_events : int array;  (* cycle, kind, a, b per retained event *)
  s_ev_pos : int;
  s_ev_seen : int;
  s_level : level;
}

let entry_bytes = 14
let has_mem = 0x400

let snapshot t =
  let len = length t in
  let first = (t.pos - len + t.capacity) mod t.capacity in
  let slot k = (first + k) mod t.capacity in
  let cycle0 = if len = 0 then 0 else t.cycles.(slot 0) in
  let wide = ref false in
  for k = 0 to len - 1 do
    let d = t.cycles.(slot k) - cycle0 in
    if d < 0 || d > 0xFFFF_FFFF then wide := true
  done;
  let wide = !wide in
  let b = Bytes.create (len * entry_bytes) in
  for k = 0 to len - 1 do
    let i = slot k and o = k * entry_bytes in
    let tw = t.tws.(i) and mem = t.mems.(i) in
    Bytes.set_int32_le b o (Int32.of_int (tw land 0xFFFFFFFF));
    Bytes.set_int32_le b (o + 4) (Int32.of_int (max mem 0));
    Bytes.set_int32_le b (o + 8) (Int32.of_int (if wide then 0 else t.cycles.(i) - cycle0));
    Bytes.set_uint16_le b (o + 12) ((tw lsr 32) lor if mem >= 0 then has_mem else 0)
  done;
  let ev_first = (t.ev_pos - t.ev_len + t.ev_capacity) mod t.ev_capacity in
  {
    s_entries = b;
    s_cycle0 = cycle0;
    s_cycles = (if wide then Array.init len (fun k -> t.cycles.(slot k)) else [||]);
    s_pos = t.pos;
    s_seen = t.seen;
    s_events =
      Array.init (4 * t.ev_len) (fun j ->
          let i = (ev_first + (j / 4)) mod t.ev_capacity in
          match j mod 4 with
          | 0 -> t.ev_cycles.(i)
          | 1 -> t.ev_kinds.(i)
          | 2 -> t.ev_as.(i)
          | _ -> t.ev_bs.(i));
    s_ev_pos = t.ev_pos;
    s_ev_seen = t.ev_seen;
    s_level = t.level;
  }

let restore t s =
  let len = Bytes.length s.s_entries / entry_bytes in
  let first = (s.s_pos - len + t.capacity) mod t.capacity in
  for k = 0 to len - 1 do
    let i = (first + k) mod t.capacity and o = k * entry_bytes in
    let meta = Bytes.get_uint16_le s.s_entries (o + 12) in
    t.tws.(i) <- (Int32.to_int (Bytes.get_int32_le s.s_entries o) land 0xFFFFFFFF)
                 lor ((meta land 0x3FF) lsl 32);
    t.mems.(i) <-
      (if meta land has_mem = 0 then -1
       else Int32.to_int (Bytes.get_int32_le s.s_entries (o + 4)) land 0xFFFFFFFF);
    t.cycles.(i) <-
      (if Array.length s.s_cycles > 0 then s.s_cycles.(k)
       else s.s_cycle0 + (Int32.to_int (Bytes.get_int32_le s.s_entries (o + 8)) land 0xFFFFFFFF))
  done;
  t.pos <- s.s_pos;
  t.seen <- s.s_seen;
  let ev_len = Array.length s.s_events / 4 in
  let ev_first = (s.s_ev_pos - ev_len + t.ev_capacity) mod t.ev_capacity in
  for k = 0 to ev_len - 1 do
    let i = (ev_first + k) mod t.ev_capacity in
    t.ev_cycles.(i) <- s.s_events.(4 * k);
    t.ev_kinds.(i) <- s.s_events.((4 * k) + 1);
    t.ev_as.(i) <- s.s_events.((4 * k) + 2);
    t.ev_bs.(i) <- s.s_events.((4 * k) + 3)
  done;
  t.ev_pos <- s.s_ev_pos;
  t.ev_len <- ev_len;
  t.ev_seen <- s.s_ev_seen;
  t.level <- s.s_level

let snapshot_seen s = s.s_seen

let snapshot_bytes s =
  Bytes.length s.s_entries
  + ((Array.length s.s_cycles + Array.length s.s_events + 10) * (Sys.word_size / 8))
