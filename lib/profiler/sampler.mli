(** Kernprof analogue: sample the program counter at a fixed cycle
    interval while the workloads run, attributing kernel-mode samples to
    functions through the kernel symbol table.

    The profile drives target selection exactly as in the paper: the top
    functions covering ~95% of kernel samples become the injection
    targets (Table 1), and each target function pairs with the workload
    that exercises it hardest. *)

type profile = {
  counts : (string * int, int) Hashtbl.t;
      (** (function, workload index) -> samples *)
  mutable kernel_samples : int;
  mutable user_samples : int;
  mutable idle_samples : int;
  fn_subsys : (string, string) Hashtbl.t;
}

val create : Kfi_kernel.Build.t -> profile

val run_workload :
  profile ->
  build:Kfi_kernel.Build.t ->
  machine:Kfi_isa.Machine.t ->
  baseline:Kfi_isa.Machine.snapshot ->
  interval:int ->
  max_cycles:int ->
  int ->
  unit
(** Run one workload from the baseline, sampling every [interval]
    cycles into [profile]; samples resolve through
    {!Kfi_kernel.Build.find_function}. *)

val profile_all :
  ?interval:int ->
  ?max_cycles:int ->
  build:Kfi_kernel.Build.t ->
  machine:Kfi_isa.Machine.t ->
  baseline:Kfi_isa.Machine.snapshot ->
  unit ->
  profile
(** Profile the whole workload suite. *)

val by_function : profile -> (string * int) list
(** Total samples per function, descending. *)

val best_workload : profile -> string -> int
(** The workload that hits a function hardest; -1 if never sampled. *)

val subsys : profile -> string -> string

val top_functions : profile -> coverage:float -> (string * int) list
(** The smallest prefix of {!by_function} covering [coverage] (e.g. 0.95)
    of all attributed samples. *)
