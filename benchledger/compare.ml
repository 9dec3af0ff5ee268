(* Parent-versus-change comparison of untraced ledger runs, one verdict
   per (workload, end-to-end metric):

   - unresolved: either side's run-to-run spread (interquartile range
     over median) is wider than the metric's bound, unless every change
     run reads better than every parent run;
   - regression: the change's median is worse than the parent's by more
     than the bound;
   - gain: at least ten runs are paired in order, the change wins at
     least 9 of every 10 of them (ties count for neither side), and its
     median is better by more than the parent's interquartile range;
   - same: none of these.

   Report only: the verdicts are printed, never enforced. *)

type verdict = Gain | Regression | Unresolved | Same

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Same -> "same"

let verdict ~better ~bound parent change =
  let lower = better = "lower" in
  let is_better a b = if lower then a < b else a > b in
  let mp = Stats.median parent and mc = Stats.median change in
  let spread xs = Stats.iqr xs /. Float.abs (Stats.median xs) in
  let rec pairs = function
    | p :: ps, c :: cs -> (p, c) :: pairs (ps, cs)
    | _ -> []
  in
  let pairs = pairs (parent, change) in
  let wins, losses =
    List.fold_left
      (fun (w, l) (p, c) ->
        if is_better c p then (w + 1, l) else if is_better p c then (w, l + 1) else (w, l))
      (0, 0) pairs
  in
  let all_better = List.for_all (fun c -> List.for_all (is_better c) parent) change in
  let worse_by = (if lower then mc -. mp else mp -. mc) /. Float.abs mp in
  if (spread parent > bound || spread change > bound) && not all_better then Unresolved
  else if worse_by > bound then Regression
  else if
    List.length pairs >= 10
    && wins + losses > 0
    && 10 * wins >= 9 * (wins + losses)
    && is_better mc mp
    && Float.abs (mc -. mp) > Stats.iqr parent
  then Gain
  else Same

(* Untraced ledger lines grouped as workload -> metric -> values, in file
   order. *)
let load path =
  let tbl = Hashtbl.create 8 in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun line ->
         let v = Json.parse line in
         match (Json.to_str (Json.field "workload" v), Json.field "trace" v, Json.field "metrics" v) with
         | Some w, Some (Json.Int 0), Some (Json.Obj ms) ->
           List.iter
             (fun (name, m) ->
               match Json.to_float (Json.field "value" m) with
               | Some x ->
                 let k = (w, name) in
                 Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
               | None -> ())
             ms
         | _ -> ());
  fun ~workload ~metric ->
    List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl (workload, metric)))

(* One row per workload of the spec, one cell per end-to-end metric. *)
let report ~spec ~parent ~change =
  let workloads =
    match Json.field "workloads" spec with
    | Some (Json.List l) -> List.filter_map (fun w -> Json.to_str (Json.field "name" w)) l
    | _ -> []
  in
  let metrics =
    match Json.field "end_to_end" spec with
    | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match
            ( Json.to_str (Json.field "name" m),
              Json.to_str (Json.field "better" m),
              Json.to_float (Json.field "bound" m) )
          with
          | Some n, Some b, Some bound -> Some (n, b, bound)
          | _ -> None)
        l
    | _ -> []
  in
  List.map
    (fun w ->
      let cells =
        List.map
          (fun (metric, better, bound) ->
            match (parent ~workload:w ~metric, change ~workload:w ~metric) with
            | [], _ | _, [] -> Printf.sprintf "%s: no runs" metric
            | p, c ->
              let mp = Stats.median p and mc = Stats.median c in
              Printf.sprintf "%s: %s (%+.1f%%, n=%d/%d)" metric
                (verdict_name (verdict ~better ~bound p c))
                (100. *. (mc -. mp) /. mp) (List.length p) (List.length c))
          metrics
      in
      Printf.sprintf "%-11s %s" w (String.concat " | " cells))
    workloads
