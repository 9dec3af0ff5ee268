(* Inspect a campaign metrics stream (the JSONL frames written by
   [kfi-campaign --metrics]): summarize the final state, lint the
   stream, or render a live dashboard while a campaign runs.

     kfi-stats metrics.jsonl                  # post-hoc summary
     kfi-stats shard1.jsonl shard2.jsonl      # merged across shards
     kfi-stats --live metrics.jsonl           # live dashboard (until final frame)
     kfi-stats --lint metrics.jsonl           # validate the stream

   Frames are cumulative, so the summary only needs each file's last
   frame; multiple files merge with the registry's associative merge
   (counters add, gauges keep high-water marks, histogram buckets
   add). *)

open Cmdliner
module Metrics = Kfi.Obs.Metrics
module Writer = Kfi.Obs.Writer

(* ----- formatting ----- *)

let fmt_dur s =
  if s <= 0. then "0"
  else if s < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let fmt_count n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fk" (float_of_int n /. 1e3)
  else string_of_int n

let bar width pct =
  let full = int_of_float (pct /. 100. *. float_of_int width +. 0.5) in
  let full = max 0 (min width full) in
  String.make full '#' ^ String.make (width - full) '-'

(* ----- the summary renderer (shared by post-hoc and live modes) ----- *)

let hist_line buf name (h : Metrics.hsnap) =
  Buffer.add_string buf
    (Printf.sprintf "  %-31s %8s  mean %8s  p50 %8s  p90 %8s  p99 %8s  max %8s\n"
       name (fmt_count h.Metrics.hs_count)
       (fmt_dur (Metrics.mean h))
       (fmt_dur (Metrics.quantile h 0.5))
       (fmt_dur (Metrics.quantile h 0.9))
       (fmt_dur (Metrics.quantile h 0.99))
       (fmt_dur h.Metrics.hs_max))

let render ~header (s : Metrics.snap) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (header ^ "\n");
  let c k = Metrics.counter s k in
  (* throughput *)
  let count = c "inj.count" and act = c "inj.activated" in
  if count > 0 || c "campaign.targets" > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "  injections   %s run, %s activated%s\n" (fmt_count count)
         (fmt_count act)
         (if count > 0 then
            Printf.sprintf " (%.1f%%)" (100. *. float_of_int act /. float_of_int count)
          else ""));
    Buffer.add_string buf
      (Printf.sprintf "               skipped (golden never reaches target): %s\n"
         (fmt_count (c "inj.skipped")));
    Buffer.add_string buf
      (Printf.sprintf "               started from a golden checkpoint: %s (%s cycles not replayed)\n"
         (fmt_count (c "inj.ladder"))
         (fmt_count (c "inj.prefix_skipped_cycles")));
    Buffer.add_string buf
      (Printf.sprintf "               hangs proven by state recurrence: %s (%s cycles not executed)\n"
         (fmt_count (c "inj.hang_proven"))
         (fmt_count (c "inj.hang_skipped_cycles")));
    (* cached hangs left to run into the watchdog, by why no proof *)
    let untried = c "inj.hang_unproven.untried"
    and no_recurrence = c "inj.hang_unproven.no_recurrence"
    and differs = c "inj.hang_unproven.state_differs" in
    Buffer.add_string buf
      (Printf.sprintf
         "               hangs not proven: %s (untried %s, no recurrence %s, state differs %s)\n"
         (fmt_count (untried + no_recurrence + differs))
         (fmt_count untried) (fmt_count no_recurrence) (fmt_count differs));
    Buffer.add_string buf
      (Printf.sprintf "               rejoined the golden run: %s (%s episodes, %s cycles not executed)\n"
         (fmt_count (c "inj.rejoined"))
         (fmt_count (c "inj.rejoin_episodes"))
         (fmt_count (c "inj.rejoin_skipped_cycles")));
    Buffer.add_string buf
      (Printf.sprintf "  campaign     %s targets, %s pruned, %s replayed\n"
         (fmt_count (c "campaign.targets"))
         (fmt_count (c "campaign.pruned"))
         (fmt_count (c "campaign.replayed")))
  end;
  (* outcome mix *)
  let outcomes =
    List.filter_map
      (fun (k, n) ->
        if String.length k > 8 && String.sub k 0 8 = "outcome." then
          Some (String.sub k 8 (String.length k - 8), n)
        else None)
      s.Metrics.sn_counters
  in
  if outcomes <> [] then begin
    Buffer.add_string buf "  outcomes    ";
    List.iter
      (fun (k, n) -> Buffer.add_string buf (Printf.sprintf " %s:%s" k (fmt_count n)))
      (List.sort (fun (_, a) (_, b) -> compare b a) outcomes);
    Buffer.add_char buf '\n'
  end;
  (* fleet *)
  (match Metrics.gauge s "fleet.jobs" with
   | Some jobs ->
     Buffer.add_string buf
       (Printf.sprintf
          "  fleet        jobs %.0f, queue depth %s, items %s, retries %s\n"
          jobs
          (match Metrics.gauge s "fleet.queue_depth" with
           | Some g -> fmt_count (int_of_float g)
           | None -> "0")
          (fmt_count (c "fleet.items"))
          (fmt_count (c "fleet.retries")))
   | None -> ());
  (* supervised worker processes (kfi-campaign --workers) *)
  (match Metrics.gauge s "sup.workers" with
   | Some nworkers ->
     Buffer.add_string buf
       (Printf.sprintf
          "  supervisor   %.0f workers, %s/%s shards done, %s entries, \
           %s spawns, %s restarts, %s requeued, %s quarantined\n"
          nworkers
          (match Metrics.gauge s "sup.shards_done" with
           | Some g -> fmt_count (int_of_float g)
           | None -> "0")
          (match Metrics.gauge s "sup.shards" with
           | Some g -> fmt_count (int_of_float g)
           | None -> "?")
          (fmt_count (c "sup.entries"))
          (fmt_count (c "sup.spawns"))
          (fmt_count (c "sup.restarts"))
          (fmt_count (c "sup.requeued"))
          (fmt_count (c "sup.quarantined")));
     let g n k = Metrics.gauge s (Printf.sprintf "sup.proc%d.%s" n k) in
     for n = 0 to int_of_float nworkers - 1 do
       match g n "pid" with
       | None -> ()
       | Some pid ->
         let live = match g n "live" with Some 1. -> true | _ -> false in
         Buffer.add_string buf
           (Printf.sprintf
              "    worker %-2d  %s pid %-7.0f shard %-5s restarts %-3s \
               last heartbeat %s ago\n"
              n
              (if live then "up  " else "down")
              pid
              (match g n "shard" with
               | Some sh when sh >= 0. -> Printf.sprintf "#%.0f" sh
               | _ -> "-")
              (match g n "restarts" with
               | Some r -> Printf.sprintf "%.0f" r
               | None -> "0")
              (match g n "beat_age_s" with
               | Some a -> fmt_dur a
               | None -> "?"))
     done
   | None -> ());
  (* the cached backend's block cache; interpreter runs publish none *)
  if c "bb.built" + c "bb.reverified" > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "  block cache  built: %s, re-verified after a page write: %s, page invalidations: %s; \
          fallbacks to Cpu.step: timer %s, debug address %s, fetch %s, undecodable entry %s; \
          loops summarized: %s (%s cycles not executed, %s over scanned entries, %s short-loop \
          back-offs)\n"
         (fmt_count (c "bb.built"))
         (fmt_count (c "bb.reverified"))
         (fmt_count (c "bb.invalidated_pages"))
         (fmt_count (c "bb.fallback.timer"))
         (fmt_count (c "bb.fallback.debug"))
         (fmt_count (c "bb.fallback.fetch"))
         (fmt_count (c "bb.fallback.undecodable"))
         (fmt_count (c "bb.loops"))
         (fmt_count (c "bb.loop_skipped_cycles"))
         (fmt_count (c "bb.loop_scans"))
         (fmt_count (c "bb.loop_backoffs")));
  if c "journal.appends" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  journal      %s appends\n" (fmt_count (c "journal.appends")));
  if c "oracle.considered" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  oracle       %s considered, %s pruned\n"
         (fmt_count (c "oracle.considered"))
         (fmt_count (c "oracle.pruned")));
  (* phase shares of the injection wall clock *)
  (match Writer.phase_shares s with
   | Some shares ->
     Buffer.add_string buf "  phase shares of injection wall\n";
     List.iter
       (fun (name, pct) ->
         Buffer.add_string buf
           (Printf.sprintf "    %-10s %s %5.1f%%\n" name (bar 30 pct) pct))
       shares
   | None -> ());
  (* every histogram *)
  if s.Metrics.sn_hists <> [] then begin
    Buffer.add_string buf "  histograms\n";
    List.iter (fun (name, h) -> hist_line buf name h) s.Metrics.sn_hists
  end;
  Buffer.contents buf

(* ----- file plumbing ----- *)

let last_frame path =
  match Writer.read_frames path with
  | exception Sys_error msg -> Error msg
  | Error (line, msg) -> Error (Printf.sprintf "%s: line %d: %s" path line msg)
  | Ok [] -> Error (Printf.sprintf "%s: no complete frames (yet?)" path)
  | Ok frames -> Ok (List.nth frames (List.length frames - 1), List.length frames)

let summarize paths =
  let rec go acc_snap acc_elapsed nfiles = function
    | [] ->
      let header =
        Printf.sprintf "%s: %s%s elapsed"
          (String.concat ", " paths)
          (if nfiles > 1 then "merged, " else "")
          (fmt_dur acc_elapsed)
      in
      print_string (render ~header acc_snap);
      0
    | path :: rest -> (
      match last_frame path with
      | Error msg ->
        Printf.eprintf "kfi-stats: %s\n" msg;
        1
      | Ok (f, _) ->
        go
          (Metrics.merge acc_snap f.Writer.f_snap)
          (Float.max acc_elapsed f.Writer.f_elapsed_s)
          (nfiles + 1) rest)
  in
  go Metrics.empty 0. 0 paths

let lint_files paths =
  List.fold_left
    (fun code path ->
      match
        let ic = open_in_bin path in
        let doc = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Writer.lint doc
      with
      | exception Sys_error msg ->
        Printf.eprintf "kfi-stats: %s\n" msg;
        1
      | Ok n ->
        Printf.printf "%s: %d frames, stream OK\n" path n;
        code
      | Error (line, msg) ->
        Printf.eprintf "%s: line %d: %s\n" path line msg;
        1)
    0 paths

(* Live mode: poll the stream, redraw on every new frame, stop at the
   final one (or on ^C). *)
let live path interval_ms =
  let interval = float_of_int (max 50 interval_ms) /. 1000. in
  let rec loop last_seq =
    let next =
      match Writer.read_frames path with
      | exception Sys_error _ -> None
      | Error _ | Ok [] -> None
      | Ok frames -> Some (List.nth frames (List.length frames - 1))
    in
    match next with
    | None ->
      Unix.sleepf interval;
      loop last_seq
    | Some f ->
      if Some f.Writer.f_seq <> last_seq then begin
        let header =
          Printf.sprintf "%s: frame %d, %s elapsed%s" path f.Writer.f_seq
            (fmt_dur f.Writer.f_elapsed_s)
            (if f.Writer.f_final then ", final" else " (live)")
        in
        (* home + clear-to-end: repaint without scrollback spam *)
        print_string "\027[H\027[2J";
        print_string (render ~header f.Writer.f_snap);
        flush stdout
      end;
      if f.Writer.f_final then 0
      else begin
        Unix.sleepf interval;
        loop (Some f.Writer.f_seq)
      end
  in
  if not (Sys.file_exists path) then
    Printf.eprintf "kfi-stats: waiting for %s...\n%!" path;
  loop None

let run lint live_mode interval_ms paths =
  match paths with
  | [] ->
    Printf.eprintf "kfi-stats: no metrics stream given (see --help)\n";
    2
  | _ when lint -> lint_files paths
  | [ path ] when live_mode -> live path interval_ms
  | _ when live_mode ->
    Printf.eprintf "kfi-stats: --live takes exactly one stream\n";
    2
  | _ -> summarize paths

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Validate each stream (frames parse, seq strictly increases, \
           nothing after a final frame) and exit.")

let live_arg =
  Arg.(
    value & flag
    & info [ "live" ]
        ~doc:
          "Tail one stream as a live dashboard, repainting on every new \
           frame until the final one.")

let interval_arg =
  Arg.(
    value & opt int 500
    & info [ "interval-ms" ] ~docv:"MS"
        ~doc:"Poll interval for $(b,--live) (minimum 50).")

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"Metrics stream file(s).")

let cmd =
  Cmd.v
    (Cmd.info "kfi-stats"
       ~doc:"Summarize, lint or live-tail a campaign metrics stream")
    Term.(
      const run $ lint_arg $ live_arg $ interval_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
