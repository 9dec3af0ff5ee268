(* The ledger's own checks: BENCHMARK.json agrees with the ledger's
   tables, the compare rule decides synthetic cases as specified, and a
   run of the A-cached workload on a few targets reports every
   end-to-end metric with its unit. *)

open Ledger

let spec () = Json.parse (Json.read_file "../../BENCHMARK.json")

let lint () =
  Alcotest.(check (list string)) "BENCHMARK.json is sound" [] (Spec.lint (spec ()))

let lint_catches () =
  let broken =
    match spec () with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "end_to_end", Json.List (m :: rest) ->
               let m =
                 match m with
                 | Json.Obj f ->
                   Json.Obj (List.map (function "bound", _ -> ("bound", Json.Float 0.5) | kv -> kv) f)
                 | v -> v
               in
               ("end_to_end", Json.List (m :: rest))
             | kv -> kv)
           fields)
    | v -> v
  in
  Alcotest.(check bool) "a bound over 0.25 is refused" true (Spec.lint broken <> [])

(* Python: statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
let quartiles () =
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let decide ?(bound = 0.10) parent change =
  Compare.verdict ~better:"lower" ~bound parent change

let parent = [ 100.; 101.; 99.; 100.5; 100.2; 99.8; 100.1; 99.9; 100.3; 99.7 ]

let compare_win () =
  (* 9 of 10 pairs won, medians 5% apart against a ~0.5% parent spread *)
  let change = List.mapi (fun i p -> if i = 3 then p +. 1. else p *. 0.95) parent in
  Alcotest.check verdict "9/10 wins" Compare.Gain (decide parent change)

let compare_ties () =
  (* 8 wins, 1 loss, 1 tie: the tie counts for neither side, 8/9 < 9/10 *)
  let change =
    List.mapi
      (fun i p -> if i = 3 then p +. 1. else if i = 4 then p else p *. 0.95)
      parent
  in
  Alcotest.check verdict "8 wins, 1 loss, 1 tie" Compare.Same (decide parent change);
  (* 9 wins and 1 tie: 9/9 *)
  let change = List.mapi (fun i p -> if i = 4 then p else p *. 0.95) parent in
  Alcotest.check verdict "9 wins, 1 tie" Compare.Gain (decide parent change)

let compare_unresolved () =
  let noisy = [ 80.; 120.; 95.; 130.; 70.; 110.; 90.; 125.; 85.; 100. ] in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved
    (decide noisy (List.map (fun x -> x *. 0.97) noisy));
  (* unless every change run beats every parent run *)
  Alcotest.check verdict "all change runs better" Compare.Gain
    (decide noisy (List.map (fun x -> x *. 0.5) noisy))

let compare_few_pairs () =
  (* five runs a side: even 5 wins of 5 claim nothing *)
  let five = List.filteri (fun i _ -> i < 5) parent in
  Alcotest.check verdict "5/5 wins" Compare.Same
    (decide five (List.map (fun x -> x *. 0.95) five))

let compare_regression () =
  Alcotest.check verdict "median 12% worse" Compare.Regression
    (decide parent (List.map (fun x -> x *. 1.12) parent));
  Alcotest.check verdict "median 5% worse" Compare.Same
    (decide parent (List.map (fun x -> x *. 1.05) parent));
  Alcotest.check verdict "higher is better" Compare.Regression
    (Compare.verdict ~better:"higher" ~bound:0.1 parent (List.map (fun x -> x *. 0.8) parent))

(* The A-cached workload on its first 8 planned targets, set up once, one
   pass: every end-to-end metric comes back, positive, with its unit. *)
let smoke () =
  let workload = Option.get (Spec.workload "A-cached") in
  let study = Kfi.Study.prepare () in
  let population =
    List.map (fun (c, ts) -> (c, List.filteri (fun i _ -> i < 8) ts)) (Run.population workload study)
  in
  let r =
    Run.run ~setups:1 ~population ~tmp:"." ~workload ~seed:7 ~seconds:0. ~traced:false ()
  in
  Alcotest.(check (list string)) "no failed check" [] r.problems;
  Alcotest.(check int) "attempted" 8 r.attempted;
  Alcotest.(check int) "failed" 0 r.failed;
  let got = List.map (fun ((m : Spec.metric), _) -> (m.m_name, m.m_unit)) r.metrics in
  Alcotest.(check (list (pair string string)))
    "every end-to-end metric with its unit"
    (List.map (fun (m : Spec.metric) -> (m.m_name, m.m_unit)) Spec.end_to_end)
    got;
  List.iter
    (fun ((m : Spec.metric), v) ->
      if not (Float.is_finite v && v > 0.) then Alcotest.failf "%s = %g" m.m_name v)
    r.metrics

let () =
  Alcotest.run "ledger"
    [
      ( "spec",
        [ Alcotest.test_case "lint" `Quick lint;
          Alcotest.test_case "lint catches" `Quick lint_catches ] );
      ("stats", [ Alcotest.test_case "quartiles" `Quick quartiles ]);
      ( "compare",
        [ Alcotest.test_case "win" `Quick compare_win;
          Alcotest.test_case "ties" `Quick compare_ties;
          Alcotest.test_case "unresolved" `Quick compare_unresolved;
          Alcotest.test_case "few pairs" `Quick compare_few_pairs;
          Alcotest.test_case "regression" `Quick compare_regression ] );
      ("run", [ Alcotest.test_case "smoke A-cached" `Slow smoke ]);
    ]
