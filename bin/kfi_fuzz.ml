(* Deterministic property-fuzz CLI over the kfi stack.

     kfi-fuzz --list                          # properties and what they check
     kfi-fuzz --prop all --seed 42            # run everything (200 cases each)
     kfi-fuzz --prop all --budget-ms 2000     # time-boxed (per property)
     kfi-fuzz --prop isa.roundtrip --seed 7 --replay 93   # re-run one case

   Output is byte-identical across runs of the same seed: the budget only
   bounds how many cases run, never what any case does, and the default
   report prints no counts or timing.  A failure prints a shrunk
   counterexample and the exact --seed/--replay pair that reproduces it. *)

open Cmdliner
module Fuzz = Kfi_fuzz.Fuzz
module Props = Kfi_fuzz_props.Props

let list_props () =
  List.iter
    (fun p -> Printf.printf "%-26s %s\n" (Fuzz.name p) (Fuzz.doc p))
    Props.all;
  0

let select = function
  | "all" -> Ok Props.all
  | name -> (
      match Props.find name with
      | Some p -> Ok [ p ]
      | None ->
          Error
            (Printf.sprintf "unknown property %S (try --list)" name))

let run_props props ~seed ~cases ~budget_ms ~replay ~stats =
  let failures = ref 0 in
  List.iter
    (fun p ->
      let result =
        match replay with
        | Some case -> Fuzz.replay ~seed ~case p
        | None -> Fuzz.run ?cases ?budget_ms ~seed p
      in
      match result with
      | Fuzz.Passed { cases; note } ->
          if stats then
            Printf.printf "prop %s: PASS (%d cases%s)\n" (Fuzz.name p) cases
              (match note with Some s -> ", " ^ s | None -> "")
          else Printf.printf "prop %s: PASS\n" (Fuzz.name p)
      | Fuzz.Failed f ->
          incr failures;
          print_string (Fuzz.failure_to_string f))
    props;
  if !failures = 0 then begin
    Printf.printf "all: PASS (%d properties, seed %d)\n" (List.length props) seed;
    0
  end
  else begin
    Printf.printf "FAIL: %d of %d properties (seed %d)\n" !failures
      (List.length props) seed;
    1
  end

let main prop seed cases budget_ms replay list stats =
  if list then list_props ()
  else
    match select prop with
    | Error msg ->
        prerr_endline ("kfi-fuzz: " ^ msg);
        2
    | Ok props ->
        let seed = match seed with Some s -> s | None -> Fuzz.default_seed () in
        run_props props ~seed ~cases ~budget_ms ~replay ~stats

let prop_arg =
  Arg.(
    value
    & opt string "all"
    & info [ "prop" ] ~docv:"NAME" ~doc:"Property to fuzz, or $(b,all).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Base seed.  Defaults to \\$KFI_FUZZ_SEED, else 42.  Together with a \
           case index this fully determines a case.")

let cases_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cases" ] ~docv:"N" ~doc:"Cases per property (default 200).")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "CPU-time budget per property; stops starting new cases once spent. \
           Never changes what an individual case does.")

let replay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replay" ] ~docv:"CASE"
        ~doc:"Replay exactly one case index (from a failure report).")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the available properties.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print case counts (excluded by default so time-boxed runs stay \
           byte-identical).")

let cmd =
  let doc = "deterministic property fuzzing across the kfi stack" in
  let info = Cmd.info "kfi-fuzz" ~doc in
  Cmd.v info
    Term.(
      const main $ prop_arg $ seed_arg $ cases_arg $ budget_arg $ replay_arg
      $ list_arg $ stats_arg)

let () = exit (Cmd.eval' cmd)
