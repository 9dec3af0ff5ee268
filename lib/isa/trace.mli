(** The flight recorder: a fixed-capacity cycle-stamped ring buffer of
    retired instructions plus a smaller ring of machine events (traps,
    mode switches, CR3 loads, debug-register hits).

    Owned by the CPU and fed from {!Cpu.step}.  At level {!Off} the only
    per-instruction cost is a field load and a compare; {!Ring} records
    retired instructions; {!Full} additionally records events.  Snapshot
    and restore are deep copies, so per-injection traces are isolated. *)

(** Recording level. *)
type level = Off | Ring | Full

val level_name : level -> string

(** One retired instruction. *)
type entry = {
  en_cycle : int;
  en_eip : int32;
  en_op : int;          (** first opcode byte, [-1] if it could not be re-read *)
  en_user : bool;
  en_mem : int option;  (** virtual address of an explicit memory operand *)
}

(** Event kind codes (see {!event_kind_name}): trap delivered ([ev_a] =
    vector, [ev_b] = eip), switch to user/kernel mode ([ev_b] = eip),
    CR3 load ([ev_a] = new cr3), debug-register hit ([ev_a] = dr index,
    [ev_b] = eip), triple fault ([ev_a] = vector). *)

val ev_trap : int
val ev_mode_user : int
val ev_mode_kernel : int
val ev_cr3 : int
val ev_debug_hit : int
val ev_triple_fault : int

val event_kind_name : int -> string

type event = { ev_cycle : int; ev_kind : int; ev_a : int; ev_b : int }

type t

val default_capacity : int
val default_ev_capacity : int
val create : ?capacity:int -> ?ev_capacity:int -> unit -> t

val level : t -> level
val set_level : t -> level -> unit

val enabled : t -> bool
(** [level t <> Off]. *)

val clear : t -> unit
(** Drop every retained entry and event (between injections). *)

val length : t -> int
(** Entries currently retained (at most the capacity). *)

val seen : t -> int
(** Total instructions recorded since the last {!clear}, including those
    already overwritten. *)

val capacity : t -> int
(** Instruction entries the ring retains. *)

val advance : t -> int -> unit
(** [advance t n] counts [n] instruction records as written without
    writing them: {!seen} and the write position move on by [n], the
    slots keep their contents.  For a run that skips [n] instructions it
    has proven to repeat; it must record at least {!capacity} more
    entries before the ring is read. *)

val record : t -> cycle:int -> eip:int32 -> op:int -> user:bool -> mem:int -> unit
(** Record one retired instruction ([mem] < 0 = no memory operand).
    Callers guard on {!enabled}. *)

val pack_tw : ieip:int -> op:int -> user:bool -> int
(** Pack eip (as an unsigned int), opcode byte and mode into the trace
    word {!record_tw} stores; precomputable once per decoded
    instruction. *)

val record_tw : t -> cycle:int -> tw:int -> mem:int -> unit
(** {!record} from a precomputed trace word — the block engine's
    per-instruction path (three unboxed array stores). *)

val record_event : t -> cycle:int -> kind:int -> a:int -> b:int -> unit
(** Record a machine event; a no-op unless the level is {!Full}. *)

val fold : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Oldest-first fold over the retained entries. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val events : t -> event list
(** Retained events, oldest first. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val snapshot_bytes : snapshot -> int
(** Heap bytes held by a snapshot's arrays. *)
