(* Property runner.  Each case's RNG stream is derived purely from
   (seed, case index, property name), so a failure replays from the two
   integers printed in the report — independent of how many cases a
   time budget happened to reach. *)

type 'a arb = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

let arb ?(shrink = Shrink.nil) ?(print = fun _ -> "<opaque>") gen =
  { gen; shrink; print }

type failure = {
  f_prop : string;
  f_seed : int;
  f_case : int;
  f_msg : string;
  f_repr : string;
  f_orig_repr : string;
  f_shrink_steps : int;
}

type run_result = Passed of { cases : int; note : string option } | Failed of failure

type t = {
  p_name : string;
  p_doc : string;
  p_counts : string option; (* what a passing case's [Ok true] counts *)
  p_run_case : seed:int -> case:int -> (bool, failure) result;
}

let name p = p.p_name
let doc p = p.p_doc

let default_seed () =
  match Sys.getenv_opt "KFI_FUZZ_SEED" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 42)
  | None -> 42

let case_rng ~name ~seed ~case = Rng.of_seeds [ seed; case; Hashtbl.hash name ]

(* Exceptions from generation or checking are failures of the property,
   not of the harness: they get the same shrink/replay treatment. *)
let eval_check check x =
  try check x with e -> Error (Printf.sprintf "exception %s" (Printexc.to_string e))

let max_shrink_evals = 2000

let shrink_loop a check x0 msg0 =
  let evals = ref 0 in
  let steps = ref 0 in
  let cur = ref x0 in
  let cur_msg = ref msg0 in
  let progress = ref true in
  while !progress && !evals < max_shrink_evals do
    progress := false;
    let candidates = a.shrink !cur in
    (* First candidate that still fails wins; restart from it. *)
    let rec scan seq =
      if !evals >= max_shrink_evals then ()
      else
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons (cand, rest) -> (
            incr evals;
            match eval_check check cand with
            | Error msg ->
                cur := cand;
                cur_msg := msg;
                incr steps;
                progress := true
            | Ok _ -> scan rest)
    in
    scan candidates
  done;
  (!cur, !cur_msg, !steps)

let make_counting ?counts ~name ~doc a check =
  let run_case ~seed ~case =
    let rng = case_rng ~name ~seed ~case in
    match Gen.run a.gen rng with
    | exception e ->
        Error
          {
            f_prop = name;
            f_seed = seed;
            f_case = case;
            f_msg = Printf.sprintf "generator raised %s" (Printexc.to_string e);
            f_repr = "<generator failure>";
            f_orig_repr = "<generator failure>";
            f_shrink_steps = 0;
          }
    | x -> (
        match eval_check check x with
        | Ok counted -> Ok counted
        | Error msg ->
            let shrunk, smsg, steps = shrink_loop a check x msg in
            Error
              {
                f_prop = name;
                f_seed = seed;
                f_case = case;
                f_msg = smsg;
                f_repr = a.print shrunk;
                f_orig_repr = a.print x;
                f_shrink_steps = steps;
              })
  in
  { p_name = name; p_doc = doc; p_counts = counts; p_run_case = run_case }

let make ~name ~doc a check =
  make_counting ~name ~doc a (fun x -> Result.map (fun () -> false) (check x))

let passed p ~cases ~counted =
  Passed { cases; note = Option.map (Printf.sprintf "%d %s" counted) p.p_counts }

let now_ms () = Sys.time () *. 1000.0

let run ?cases ?budget_ms ~seed p =
  let max_cases =
    match (cases, budget_ms) with
    | Some n, _ -> n
    | None, Some _ -> max_int
    | None, None -> 200
  in
  let deadline = Option.map (fun b -> now_ms () +. float_of_int b) budget_ms in
  let rec go case counted =
    if case >= max_cases || (match deadline with Some d -> now_ms () >= d | None -> false)
    then passed p ~cases:case ~counted
    else
      match p.p_run_case ~seed ~case with
      | Ok c -> go (case + 1) (if c then counted + 1 else counted)
      | Error f -> Failed f
  in
  go 0 0

let replay ~seed ~case p =
  match p.p_run_case ~seed ~case with
  | Ok c -> passed p ~cases:1 ~counted:(Bool.to_int c)
  | Error f -> Failed f

let pp_failure ppf f =
  Format.fprintf ppf "FAIL %s (seed %d, case %d): %s@." f.f_prop f.f_seed f.f_case
    f.f_msg;
  if f.f_shrink_steps > 0 then begin
    Format.fprintf ppf "  counterexample (%d shrink steps): %s@." f.f_shrink_steps
      f.f_repr;
    Format.fprintf ppf "  original: %s@." f.f_orig_repr
  end
  else Format.fprintf ppf "  counterexample: %s@." f.f_repr;
  Format.fprintf ppf "  replay: kfi-fuzz --prop %s --seed %d --replay %d@." f.f_prop
    f.f_seed f.f_case

let failure_to_string f = Format.asprintf "%a" pp_failure f

(* Alcotest-friendly driver: run a property with a pinned seed and raise
   [Failure] with the replay line on a counterexample. *)
let check_prop ?cases ?budget_ms ?seed p =
  let seed = match seed with Some s -> s | None -> default_seed () in
  match run ?cases ?budget_ms ~seed p with
  | Passed _ -> ()
  | Failed f -> failwith (failure_to_string f)
