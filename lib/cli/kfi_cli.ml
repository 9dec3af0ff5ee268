(* The canonical spellings of the flags every kfi binary shares:
   --seed, --subsample, -j/--jobs, --backend (and -q/--quiet).  Each
   binary used to define its own copies with drifting docs and defaults;
   they now all come from here, so `kfi-campaign --backend cached -j 4`
   and `kfi-oracle --backend cached -j 4` mean the same thing. *)

open Cmdliner

let backend_conv : Kfi.Backend.kind Arg.conv =
  Arg.conv
    ( (fun s ->
        match Kfi.Backend.kind_of_string s with
        | Some k -> Ok k
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown backend %S (expected %s)" s
                  (String.concat ", "
                     (List.map Kfi.Backend.kind_name Kfi.Backend.all_kinds))))),
      fun fmt k -> Format.pp_print_string fmt (Kfi.Backend.kind_name k) )

let backend_doc =
  "Execution backend: $(b,interp) is the reference step interpreter, \
   $(b,cached) adds dirty-page tracked snapshot restore and a pre-decoded \
   basic-block engine.  Outcomes and artifacts are byte-identical; only \
   the wall clock moves."

let backend () =
  Arg.(
    value
    & opt backend_conv Kfi.Backend.Interp
    & info [ "backend" ] ~docv:"BACKEND" ~doc:backend_doc)

(* kfi-trace replays one injection and can do so under both backends,
   comparing the outcomes — hence the wider spelling. *)
type replay_backend = One of Kfi.Backend.kind | Both

let replay_backend_conv : replay_backend Arg.conv =
  Arg.conv
    ( (fun s ->
        if s = "both" then Ok Both
        else
          match Kfi.Backend.kind_of_string s with
          | Some k -> Ok (One k)
          | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown backend %S (expected %s or both)" s
                    (String.concat ", "
                       (List.map Kfi.Backend.kind_name Kfi.Backend.all_kinds))))),
      fun fmt -> function
        | Both -> Format.pp_print_string fmt "both"
        | One k -> Format.pp_print_string fmt (Kfi.Backend.kind_name k) )

let replay_backend () =
  Arg.(
    value
    & opt replay_backend_conv (One Kfi.Backend.Interp)
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          (backend_doc
         ^ "  $(b,both) replays under each backend in turn and fails if any \
            outcome detail differs."))

let seed ?(default = 42) () =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the per-byte bit choice.")

let subsample ?(default = 1) ~doc () =
  Arg.(value & opt int default & info [ "subsample" ] ~docv:"K" ~doc)

let jobs
    ?(doc =
      "Worker domains running injections in parallel (each owns its own \
       simulated machine); records and telemetry are identical to -j 1.") () =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let quiet () =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.")
