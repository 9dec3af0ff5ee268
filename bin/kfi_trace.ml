(* Replay a single injection with the flight recorder on and print the
   forensics: outcome, symbolized instruction trace, backtrace, the
   simulated LKCD oops dump and the reconstructed propagation path.

     kfi-trace --fn clear_page --byte 2 --bit 4
     kfi-trace --fn do_page_fault --addr 0xc0100f30 --byte 1 --bit 7
     kfi-trace --fn schedule --addr 0xc0105545 --byte 2 --bit 6 \
       --level ring --backend cached    # a hang proven by its recurring state
     kfi-trace --fn getblk --addr 0xc0101eb0 --byte 3 --bit 7 --workload fstime \
       --level ring --backend cached    # a masked error rejoins the golden run
     kfi-trace --lint campaign.jsonl     # schema-lint a telemetry log
     kfi-trace --dump-journal run.kj     # canonical text dump of a campaign journal

   Targets are addressed as in campaign CSVs: either a byte offset from
   the function start (--byte alone), or an instruction address plus the
   byte within that instruction (--addr + --byte). *)

open Cmdliner
module Target = Kfi.Injector.Target
module Runner = Kfi.Injector.Runner
module Outcome = Kfi.Injector.Outcome
module Forensics = Kfi.Trace.Forensics
module Telemetry = Kfi.Trace.Telemetry
module Asm = Kfi.Asm.Assembler
module Build = Kfi.Kernel.Build
module L = Kfi.Kernel.Layout

let lint_file path =
  match
    let ic = open_in_bin path in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Telemetry.lint doc
  with
  | exception Sys_error msg ->
    Printf.eprintf "kfi-trace: %s\n" msg;
    1
  | Ok n ->
    Printf.printf "%s: %d events, schema OK\n" path n;
    0
  | Error (line, msg) ->
    Printf.eprintf "%s: line %d: %s\n" path line msg;
    1

(* Resolve (--fn, --byte [, --addr]) to a concrete text target. *)
let resolve_target build fn ~byte ~bit ~addr =
  let fninfo =
    List.find_opt
      (fun f -> f.Asm.f_name = fn)
      (build : Build.t).Build.funcs
  in
  match fninfo with
  | None -> Error (Printf.sprintf "unknown kernel function %S" fn)
  | Some f ->
    let insns = Target.fn_insns build fn in
    let found =
      match addr with
      | Some a ->
        let off = a - L.kernel_text_base in
        List.find_opt (fun (i : Asm.insn_info) -> i.Asm.i_off = off) insns
        |> Option.map (fun i -> (i, byte))
      | None ->
        let image_off = f.Asm.f_off + byte in
        List.find_opt
          (fun (i : Asm.insn_info) ->
            image_off >= i.Asm.i_off && image_off < i.Asm.i_off + i.Asm.i_len)
          insns
        |> Option.map (fun i -> (i, image_off - i.Asm.i_off))
    in
    (match found with
     | None ->
       Error
         (Printf.sprintf "no instruction at %s in %s (function is 0x%x bytes)"
            (match addr with
             | Some a -> Printf.sprintf "0x%x" a
             | None -> Printf.sprintf "+0x%x" byte)
            fn f.Asm.f_size)
     | Some (i, t_byte) when t_byte < 0 || t_byte >= i.Asm.i_len ->
       Error
         (Printf.sprintf "byte %d outside the %d-byte instruction at 0x%x"
            t_byte i.Asm.i_len (L.kernel_text_base + i.Asm.i_off))
     | Some (i, t_byte) ->
       Ok
         {
           Target.t_fn = fn;
           t_subsys = f.Asm.f_subsys;
           t_addr = Int32.of_int (L.kernel_text_base + i.Asm.i_off);
           t_len = i.Asm.i_len;
           t_insn = i.Asm.i_insn;
           t_kind = Target.Text;
           t_byte;
           t_bit = bit land 7;
         })

let outcome_lines outcome =
  match outcome with
  | Outcome.Not_activated -> "outcome: not activated (instruction never reached)\n"
  | Outcome.Not_manifested -> "outcome: activated, not manifested\n"
  | Outcome.Fail_silence_violation (why, sev) ->
    Printf.sprintf "outcome: fail silence violation (%s), severity %s\n" why
      (Outcome.severity_name sev)
  | Outcome.Hang sev ->
    Printf.sprintf "outcome: hang (watchdog), severity %s\n"
      (Outcome.severity_name sev)
  | Outcome.Harness_abort a ->
    Printf.sprintf "outcome: harness abort (%s) after %d retries\n"
      a.Outcome.ha_reason a.Outcome.ha_retries
  | Outcome.Crash c ->
    Printf.sprintf
      "outcome: %s\n\
      \  cause:       %s\n\
      \  crash site:  %s (%s)\n\
      \  latency:     %d cycles\n\
      \  severity:    %s\n\
      \  propagation: %s\n"
      (Outcome.category outcome)
      (Outcome.cause_name c.Outcome.cause)
      (Option.value ~default:"?" c.Outcome.crash_fn)
      (Option.value ~default:"?" c.Outcome.crash_subsys)
      c.Outcome.latency
      (Outcome.severity_name c.Outcome.severity)
      (Forensics.path_to_string c.Outcome.propagation)

(* "1,234,567" *)
let with_commas n =
  let s = string_of_int n in
  let len = String.length s in
  String.concat ""
    (List.init len (fun i ->
         (if i > 0 && (len - i) mod 3 = 0 then "," else "") ^ String.make 1 s.[i]))

(* Where a hang's machine state recurred, when the run proved it. *)
let proof_line build (p : Runner.proof) =
  Printf.sprintf "state recurs every %s cycles in %s from cycle %s; %.1fM cycles not executed\n"
    (with_commas p.Runner.pr_period)
    (match Build.find_function build p.Runner.pr_eip with
     | Some f -> f.Asm.f_name
     | None -> Printf.sprintf "0x%08lx" p.Runner.pr_eip)
    (with_commas p.Runner.pr_cycle)
    (float_of_int p.Runner.pr_skipped /. 1e6)

(* Where a run first matched the golden state after its injection: the
   error was masked by then. *)
let rejoin_line runner ~workload at =
  let start = Kfi.Isa.Machine.checkpoint_cycles (Runner.start runner workload) in
  Printf.sprintf "rejoined the golden run at cycle %s (rung %d)%s\n" (with_commas at)
    (at / Runner.rung_spacing)
    (match Runner.last_injected_at runner with
     | Some i -> Printf.sprintf ": masked within %s cycles of the injection" (with_commas (start + at - i))
     | None -> "")

(* Canonical text dump of a campaign journal: entries sorted by target
   key, one line each with a digest of the full entry.  Raw journal bytes
   differ between runs that complete in different orders (-j 1 vs -j 4,
   interrupted vs not); this dump is order-insensitive, so determinism
   gates compare two journals with [cmp] over their dumps.  The digest
   marshals with [No_sharing]: under --workers the coordinator journals
   entries it unmarshaled from a worker's pipe, whose re-marshaling can
   encode an equal value with a different intra-value sharing graph,
   and the dump must hash the value, not the encoding. *)
let dump_journal_file path =
  match Kfi.Injector.Journal.read_file path with
  | exception Sys_error msg ->
    Printf.eprintf "kfi-trace: %s\n" msg;
    1
  | es ->
    let open Kfi.Injector.Journal in
    List.sort (fun a b -> compare (key_of_entry a) (key_of_entry b)) es
    |> List.iter (fun e ->
           Printf.printf "%s %s 0x%08lx byte %d bit %d wl %d %s%s retries %d \
                          cycles %d %s\n"
             (Target.campaign_letter e.e_campaign)
             e.e_fn e.e_addr e.e_byte e.e_bit e.e_workload
             (Outcome.category e.e_outcome)
             (if e.e_predicted then " (predicted)" else "")
             e.e_retries e.e_cycles
             (Digest.to_hex
                (Digest.string (Marshal.to_string e [ Marshal.No_sharing ]))));
    0

let run lint dump_journal fn byte bit addr workload level trace_n backend =
  match (lint, dump_journal) with
  | Some path, _ -> lint_file path
  | None, Some path -> dump_journal_file path
  | None, None -> (
    match fn with
    | None ->
      Printf.eprintf
        "kfi-trace: one of --lint, --dump-journal or --fn is required (see \
         --help)\n";
      2
    | Some fn -> (
      Printf.eprintf "booting kernel + golden runs + profiling...\n%!";
      let study = Kfi.Study.prepare () in
      let runner = study.Kfi.Study.runner in
      let build = Kfi.Study.build study in
      match resolve_target build fn ~byte ~bit ~addr with
      | Error msg ->
        Printf.eprintf "kfi-trace: %s\n" msg;
        1
      | Ok target ->
        let workload =
          match workload with
          | Some w -> Kfi.Workload.Progs.index_of w
          | None -> Kfi.Injector.Experiment.workload_for study.Kfi.Study.profile target
        in
        Runner.set_trace_level runner
          (match level with
           | "ring" -> Kfi.Isa.Trace.Ring
           | "off" -> Kfi.Isa.Trace.Off
           | _ -> Kfi.Isa.Trace.Full);
        (* the loops the block engine summarised in the last cached run *)
        let loops = ref None in
        let run_under kind =
          Runner.set_backend runner kind;
          let s0 = Runner.block_stats runner in
          let o = Runner.run_one runner ~workload target in
          (match (s0, Runner.block_stats runner) with
           | Some s0, Some s1 ->
             loops :=
               Some
                 ( s1.Kfi.Isa.Bbexec.st_loops - s0.Kfi.Isa.Bbexec.st_loops,
                   s1.Kfi.Isa.Bbexec.st_loop_skipped_cycles
                   - s0.Kfi.Isa.Bbexec.st_loop_skipped_cycles )
           | _ -> ());
          o
        in
        (* with --backend both, replay under each backend and insist the
           outcomes match in every detail before printing forensics
           (taken from the second run; final machine state is identical
           when the outcomes are) *)
        let outcome, agreement =
          match backend with
          | Kfi_cli.One k -> (run_under k, None)
          | Kfi_cli.Both ->
            let oi = run_under Kfi.Backend.Interp in
            let oc = run_under Kfi.Backend.Cached in
            (oc, Some (oi, oc))
        in
        let inject_desc =
          Printf.sprintf "bit %d of byte %d in %s at 0x%08lx (%s, workload %s)"
            target.Target.t_bit target.Target.t_byte target.Target.t_fn
            target.Target.t_addr
            target.Target.t_subsys
            (List.nth Kfi.Workload.Progs.names workload)
        in
        Printf.printf "injection: %s\n" inject_desc;
        match agreement with
        | Some (oi, oc) when oi <> oc ->
          print_string "backends DISAGREE:\n";
          Printf.printf "--- interp ---\n%s--- cached ---\n%s" (outcome_lines oi)
            (outcome_lines oc);
          1
        | _ ->
        (match agreement with
         | Some _ ->
           print_string "backends agree: interp and cached outcomes identical\n"
         | None -> ());
        print_string (outcome_lines outcome);
        Option.iter (fun p -> print_string (proof_line build p)) (Runner.last_proof runner);
        Option.iter
          (fun (n, cycles) ->
            Printf.printf "loops summarized: %d (%s cycles not executed)\n" n (with_commas cycles))
          !loops;
        Option.iter
          (fun at -> print_string (rejoin_line runner ~workload at))
          (Runner.last_rejoin runner);
        print_newline ();
        (match outcome with
         | Outcome.Crash _ | Outcome.Hang _ ->
           let machine = (Runner.machine runner) in
           let dump = Build.read_dump machine in
           print_string
             (Forensics.oops ?dump
                ?injected_at:(Runner.last_injected_at runner) ~inject_desc
                ~trace_n build machine)
         | Outcome.Not_activated ->
           (* resolved from the golden touch maps without running: the
              machine still holds whatever the previous run left *)
           Printf.printf "not activated: the %s golden run never reaches 0x%08lx\n"
             (List.nth Kfi.Workload.Progs.names workload)
             target.Target.t_addr
         | _ ->
           (* no crash: the trace listing alone is still useful *)
           print_string
             (Forensics.trace_listing ~n:trace_n build (Runner.machine runner)));
        0))

let lint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lint" ] ~docv:"FILE"
        ~doc:"Schema-lint a telemetry JSONL file and exit (no kernel boot).")

let dump_journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-journal" ] ~docv:"FILE"
        ~doc:
          "Print a campaign journal as canonical text — entries sorted by \
           target key, one digest-stamped line each — and exit (no kernel \
           boot).  Order-insensitive, so determinism gates compare journals \
           written in different completion orders.")

let fn_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fn" ] ~docv:"NAME" ~doc:"Kernel function to inject into.")

let byte_arg =
  Arg.(
    value & opt int 0
    & info [ "byte" ]
        ~doc:
          "Byte offset from the function start; with $(b,--addr), the byte \
           within that instruction (as in campaign CSVs).")

let bit_arg = Arg.(value & opt int 0 & info [ "bit" ] ~doc:"Bit to flip (0-7).")

let addr_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:"Virtual address of the target instruction (e.g. 0xc0100f30).")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~doc:"Driving workload (default: profile-matched).")

let level_arg =
  Arg.(
    value & opt string "full"
    & info [ "level" ] ~doc:"Flight-recorder level: full, ring or off.")

let trace_n_arg =
  Arg.(
    value & opt int 32
    & info [ "n" ] ~doc:"Instructions to show in the trace listing.")

let backend_arg = Kfi_cli.replay_backend ()

let cmd =
  Cmd.v
    (Cmd.info "kfi-trace"
       ~doc:"Replay one injection with full tracing and print the oops dump")
    Term.(
      const run $ lint_arg $ dump_journal_arg $ fn_arg $ byte_arg
      $ bit_arg $ addr_arg $ workload_arg $ level_arg $ trace_n_arg
      $ backend_arg)

let () = exit (Cmd.eval' cmd)
