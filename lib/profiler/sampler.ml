(* Kernprof analogue: sample the program counter at a fixed cycle interval
   while the workloads run, and attribute kernel-mode samples to functions
   through the kernel symbol table.

   The profile drives target selection exactly as in the paper: the most
   frequently sampled functions (top N covering ~95% of kernel samples)
   become the error-injection targets, and each target function is paired
   with the workload that exercises it hardest. *)

open Kfi_isa
module Build = Kfi_kernel.Build
module Asm = Kfi_asm.Assembler

type profile = {
  (* (function, workload index) -> samples *)
  counts : (string * int, int) Hashtbl.t;
  mutable kernel_samples : int;
  mutable user_samples : int;
  mutable idle_samples : int;
  fn_subsys : (string, string) Hashtbl.t;
}

let create build =
  let fn_subsys = Hashtbl.create 128 in
  List.iter
    (fun f -> Hashtbl.replace fn_subsys f.Asm.f_name f.Asm.f_subsys)
    build.Build.funcs;
  {
    counts = Hashtbl.create 256;
    kernel_samples = 0;
    user_samples = 0;
    idle_samples = 0;
    fn_subsys;
  }

(* Run one workload from the baseline snapshot, sampling every [interval]
   cycles. *)
let run_workload profile ~build ~machine ~baseline ~interval ~max_cycles workload =
  Machine.restore machine baseline;
  Build.set_workload machine workload;
  let cpu = Machine.cpu machine in
  let limit = cpu.Cpu.cycles + max_cycles in
  let next = ref (cpu.Cpu.cycles + interval) in
  let idle_lo = Kfi_kernel.Layout.kva_idle_task
  and idle_hi = Kfi_kernel.Layout.kva_idle_task + Kfi_kernel.Layout.task_size in
  let running = ref true in
  while !running do
    if cpu.Cpu.halted || cpu.Cpu.cycles >= limit then running := false
    else begin
      (try Cpu.step cpu with Cpu.Triple_fault _ -> running := false);
      if cpu.Cpu.cycles >= !next then begin
        next := cpu.Cpu.cycles + interval;
        if cpu.Cpu.mode = Cpu.User then profile.user_samples <- profile.user_samples + 1
        else begin
          match Build.find_function build cpu.Cpu.eip with
          | Some { Asm.f_name = fn; _ } ->
            profile.kernel_samples <- profile.kernel_samples + 1;
            (* idle-loop samples are bookkept separately, like kernprof's
               default_idle *)
            let esp = Int32.to_int cpu.Cpu.regs.(Insn.esp) land 0xFFFFFFFF in
            if fn = "cpu_idle" || (esp >= idle_lo && esp < idle_hi && fn = "schedule") then
              profile.idle_samples <- profile.idle_samples + 1
            else begin
              let key = (fn, workload) in
              Hashtbl.replace profile.counts key
                (1 + Option.value ~default:0 (Hashtbl.find_opt profile.counts key))
            end
          | None -> profile.kernel_samples <- profile.kernel_samples + 1
        end
      end
    end
  done

(* Profile all workloads; returns the filled profile. *)
let profile_all ?(interval = 23) ?(max_cycles = 8_000_000) ~build ~machine ~baseline () =
  let profile = create build in
  List.iteri
    (fun i _ -> run_workload profile ~build ~machine ~baseline ~interval ~max_cycles i)
    Kfi_workload.Progs.names;
  profile

(* total samples per function, sorted descending *)
let by_function profile =
  let totals = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (fn, _) n ->
      Hashtbl.replace totals fn (n + Option.value ~default:0 (Hashtbl.find_opt totals fn)))
    profile.counts;
  Hashtbl.fold (fun fn n acc -> (fn, n) :: acc) totals []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* the workload that hits [fn] hardest *)
let best_workload profile fn =
  let best = ref (0, -1) in
  Hashtbl.iter
    (fun (f, w) n -> if f = fn && n > snd !best then best := (w, n))
    profile.counts;
  fst !best

let subsys profile fn =
  Option.value ~default:"?" (Hashtbl.find_opt profile.fn_subsys fn)

(* Top functions covering [coverage] (e.g. 0.95) of attributed samples. *)
let top_functions profile ~coverage =
  let fns = by_function profile in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 fns in
  let rec take acc seen = function
    | [] -> List.rev acc
    | (fn, n) :: tl ->
      if total > 0 && float_of_int seen /. float_of_int total >= coverage then List.rev acc
      else take ((fn, n) :: acc) (seen + n) tl
  in
  take [] 0 fns
