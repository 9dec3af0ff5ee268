(* The injection ledger's command line.

     main.exe [ledger] --workload NAME --seed S [--seconds T] [--trace 0|1]
                       [--ledger FILE] [--tmp DIR]
         one run; the last stdout line is its JSON result
     main.exe ledger --micro [--tmp DIR]   the bechamel layer suite
     main.exe compare PARENT.jsonl CHANGE.jsonl
     main.exe digests [--tmp DIR]          the stored-digest table's lines

   Run from the repository root.  Exit status 2 is a usage error, 1 a
   failed check. *)

let usage () =
  prerr_endline
    "usage: main.exe [ledger] --workload NAME --seed S [--seconds T] [--trace 0|1] \
     [--ledger FILE] [--tmp DIR]\n\
    \       main.exe ledger --micro [--tmp DIR]\n\
    \       main.exe compare PARENT.jsonl CHANGE.jsonl\n\
    \       main.exe digests [--tmp DIR]";
  exit 2

(* [--key value] pairs, bare flags and positional words *)
let parse args =
  let flags = [ "--micro" ] in
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | f :: tl when List.mem f flags -> go ((f, "1") :: opts) pos tl
    | k :: v :: tl when String.starts_with ~prefix:"--" k -> go ((k, v) :: opts) pos tl
    | k :: _ when String.starts_with ~prefix:"--" k -> usage ()
    | p :: tl -> go opts (p :: pos) tl
  in
  go [] [] args

let int_opt opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* scratch files (journals, telemetry) live under the checkout *)
let tmp opts = Option.value ~default:"benchledger/_tmp" (List.assoc_opt "--tmp" opts)

let ledger opts =
  let workload =
    match Option.bind (List.assoc_opt "--workload" opts) Ledger.Spec.workload with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_opt opts "--seed" ~default:42 in
  let seconds = int_opt opts "--seconds" ~default:20 in
  let traced =
    match int_opt opts "--trace" ~default:0 with 0 -> false | 1 -> true | _ -> usage ()
  in
  let r =
    Ledger.Run.run ~tmp:(tmp opts) ~workload ~seed ~seconds:(float_of_int seconds) ~traced ()
  in
  List.iter (Printf.eprintf "ledger: check failed: %s\n") r.problems;
  prerr_endline (Ledger.Json.to_string r.detail);
  (match List.assoc_opt "--ledger" opts with
   | Some file ->
     let line =
       match Ledger.Run.result_json r with
       | Ledger.Json.Obj fields ->
         Ledger.Json.Obj
           ([ ("rev", Ledger.Json.Str (git_rev ()));
              ("workload", Ledger.Json.Str workload.name);
              ("seed", Ledger.Json.Int seed);
              ("trace", Ledger.Json.Int (if traced then 1 else 0));
              ("seconds", Ledger.Json.Int seconds);
            ]
           @ fields
           @ [ ("detail", r.detail) ])
       | v -> v
     in
     Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file
       (fun oc -> output_string oc (Ledger.Json.to_string line ^ "\n"))
   | None -> ());
  print_endline (Ledger.Json.to_string (Ledger.Run.result_json r));
  if not r.correct then exit 1

let () =
  let opts, pos = parse (List.tl (Array.to_list Sys.argv)) in
  match pos with
  | ([] | [ "ledger" ]) when List.mem_assoc "--micro" opts ->
    Ledger.Run.with_tmp (tmp opts) (fun tmp ->
        print_endline (Ledger.Json.to_string (Ledger.Micro.run ~tmp ())))
  | [] | [ "ledger" ] -> ledger opts
  | [ "compare"; parent; change ] ->
    List.iter print_endline
      (Ledger.Compare.report
         ~spec:(Ledger.Json.parse (Ledger.Json.read_file "BENCHMARK.json"))
         ~parent:(Ledger.Compare.load parent) ~change:(Ledger.Compare.load change))
  | [ "digests" ] ->
    let digests, errors = Ledger.Run.digests ~tmp:(tmp opts) in
    List.iter (fun (w, d) -> Printf.printf "    (%S, %S);\n" w d) digests;
    List.iter (Printf.eprintf "digests: %s\n") errors;
    if errors <> [] then exit 1
  | _ -> usage ()
