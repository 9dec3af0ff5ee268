(* The fuzz harness tested as a subject itself: RNG determinism, generator
   bounds, shrinking behavior, replay coordinates — and the mutation smoke
   check: a deliberately broken decoder opcode must be caught with a
   counterexample shrunk to the minimal stream and coordinates that
   replay.  Also pins the seed that exposed the journal torn-header bug,
   so it cannot come back. *)

module Rng = Kfi_fuzz.Rng
module Gen = Kfi_fuzz.Gen
module Shrink = Kfi_fuzz.Shrink
module Fuzz = Kfi_fuzz.Fuzz
module Props = Kfi_fuzz_props.Props

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let contains = Test_analysis.contains

(* ----- the PRNG ----- *)

let test_rng_deterministic () =
  let a = Rng.of_seeds [ 42; 7; 3 ] and b = Rng.of_seeds [ 42; 7; 3 ] in
  for _ = 1 to 100 do
    check bool "same coordinates, same stream" true (Rng.next64 a = Rng.next64 b)
  done;
  (* changing any one coordinate diverges immediately *)
  let first l = Rng.next64 (Rng.of_seeds l) in
  check bool "seed matters" true (first [ 41; 7; 3 ] <> first [ 42; 7; 3 ]);
  check bool "case matters" true (first [ 42; 8; 3 ] <> first [ 42; 7; 3 ]);
  check bool "name hash matters" true (first [ 42; 7; 4 ] <> first [ 42; 7; 3 ])

let test_rng_bounds () =
  let r = Rng.of_seed 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check bool "int in [0,7)" true (v >= 0 && v < 7);
    let w = Rng.int_range r (-3) 5 in
    check bool "int_range inclusive" true (w >= -3 && w <= 5);
    let b = Rng.byte r in
    check bool "byte" true (b >= 0 && b <= 255)
  done;
  try
    ignore (Rng.int r 0);
    Alcotest.fail "bound 0 accepted"
  with Invalid_argument _ -> ()

let test_rng_split_independent () =
  (* the child stream is fixed at split time: draining the parent
     afterwards must not perturb it *)
  let child_first drain =
    let r = Rng.of_seed 5 in
    let child = Rng.split r in
    for _ = 1 to drain do
      ignore (Rng.next64 r)
    done;
    Rng.next64 child
  in
  check bool "child independent of parent draw count" true
    (child_first 0 = child_first 50)

(* ----- generators ----- *)

let test_gen_list_bounds () =
  let r = Rng.of_seed 9 in
  for _ = 1 to 200 do
    let l = Gen.run (Gen.list ~min:2 ~max:5 Gen.byte) r in
    let n = List.length l in
    check bool "list size in [2,5]" true (n >= 2 && n <= 5)
  done

let test_gen_pure_in_coordinates () =
  (* the replay contract: (seed, case, name) fully determines the
     generated value, independent of any state *)
  let g = Gen.list ~min:1 ~max:8 Gen.byte in
  let at seed case = Gen.run g (Rng.of_seeds [ seed; case; Hashtbl.hash "p" ]) in
  check bool "same coordinates, same value" true (at 42 17 = at 42 17);
  check bool "different case, different value" true (at 42 17 <> at 42 18)

(* ----- shrinkers ----- *)

let test_shrink_list_candidates () =
  let cands = List.of_seq (Shrink.list ~elem:Shrink.int [ 3; 4 ]) in
  check bool "offers both singletons" true
    (List.mem [ 3 ] cands && List.mem [ 4 ] cands);
  check bool "never offers the input itself" true (not (List.mem [ 3; 4 ] cands));
  check bool "empty list is terminal" true (Shrink.list [] () = Seq.Nil)

let test_shrink_int_towards_zero () =
  check bool "0 is terminal" true (Shrink.int 0 () = Seq.Nil);
  let cands = List.of_seq (Shrink.int 100) in
  check int "0 offered first" 0 (List.hd cands);
  List.iter (fun c -> check bool "strictly smaller" true (abs c < 100)) cands

(* ----- the runner: find, shrink, replay ----- *)

(* fails iff n >= 10; greedy halving + decrement must land exactly on
   the boundary *)
let gt10 =
  Fuzz.make ~name:"engine.selftest" ~doc:"fails on n >= 10"
    (Fuzz.arb ~shrink:Shrink.int ~print:string_of_int (Gen.int_bound 1000))
    (fun n -> if n < 10 then Ok () else Error "too big")

let test_run_finds_and_shrinks () =
  match Fuzz.run ~cases:200 ~seed:1 gt10 with
  | Fuzz.Passed _ -> Alcotest.fail "expected a counterexample"
  | Fuzz.Failed f ->
    check string "shrunk to the boundary" "10" f.Fuzz.f_repr;
    check bool "replay line printed" true
      (contains (Fuzz.failure_to_string f) "--replay");
    (* the two printed integers reproduce the identical shrunk failure *)
    (match Fuzz.replay ~seed:f.Fuzz.f_seed ~case:f.Fuzz.f_case gt10 with
     | Fuzz.Failed f' ->
       check string "replay shrinks identically" f.Fuzz.f_repr f'.Fuzz.f_repr;
       check int "replay reports the same case" f.Fuzz.f_case f'.Fuzz.f_case
     | Fuzz.Passed _ -> Alcotest.fail "replay did not reproduce the failure")

let test_checker_exception_is_failure () =
  let raising =
    Fuzz.make ~name:"engine.raises" ~doc:"checker exceptions are failures"
      (Fuzz.arb ~print:string_of_int (Gen.int_bound 10))
      (fun _ -> raise Exit)
  in
  match Fuzz.run ~cases:5 ~seed:3 raising with
  | Fuzz.Passed _ -> Alcotest.fail "exception swallowed"
  | Fuzz.Failed f ->
    check int "first case already fails" 0 f.Fuzz.f_case;
    check bool "message names the exception" true (contains f.Fuzz.f_msg "exception")

(* A counting property's passed run notes how many cases counted: the
   sum of what the cases report one at a time. *)
let test_counting_note () =
  let evens =
    Fuzz.make_counting ~counts:"even" ~name:"engine.counts" ~doc:"counts even draws"
      (Fuzz.arb ~print:string_of_int (Gen.int_bound 1000))
      (fun n -> Ok (n mod 2 = 0))
  in
  let counted =
    List.length
      (List.filter
         (fun case -> Fuzz.replay ~seed:1 ~case evens = Fuzz.Passed { cases = 1; note = Some "1 even" })
         (List.init 50 Fun.id))
  in
  check bool "some cases count, some do not" true (counted > 0 && counted < 50);
  check bool "the run notes the count" true
    (Fuzz.run ~cases:50 ~seed:1 evens
     = Fuzz.Passed { cases = 50; note = Some (Printf.sprintf "%d even" counted) });
  let plain =
    Fuzz.make ~name:"engine.passes" ~doc:"always passes" (Fuzz.arb (Gen.int_bound 10))
      (fun _ -> Ok ())
  in
  check bool "a plain property notes nothing" true
    (Fuzz.run ~cases:5 ~seed:1 plain = Fuzz.Passed { cases = 5; note = None })

let test_check_prop_raises_with_replay_line () =
  match Fuzz.check_prop ~cases:50 ~seed:1 gt10 with
  | () -> Alcotest.fail "check_prop passed a failing property"
  | exception Failure msg ->
    check bool "replay line in the test failure" true (contains msg "--seed 1")

(* ----- mutation smoke check -----

   Plant a decoder bug — nop decodes as hlt — and demand the harness
   catches it, shrinks the counterexample to the minimal stream [nop],
   and prints coordinates that replay.  The pristine decoder must pass
   the very same coordinates, proving the failure is the mutation's. *)

module Decode = Kfi_isa.Decode

let broken_decode b off =
  match Decode.decode_bytes b off with
  | Decode.Ok (Kfi_isa.Insn.Nop, len) -> Decode.Ok (Kfi_isa.Insn.Hlt, len)
  | r -> r

let test_mutation_smoke () =
  let prop = Props.roundtrip_with ~name:"isa.roundtrip_broken" broken_decode in
  match Fuzz.run ~cases:500 ~seed:(Fuzz.default_seed ()) prop with
  | Fuzz.Passed { cases; _ } -> Alcotest.failf "planted decoder bug survived %d cases" cases
  | Fuzz.Failed f ->
    check string "shrunk to the minimal stream" "[nop]" f.Fuzz.f_repr;
    check bool "shrinking did real work" true
      (f.Fuzz.f_shrink_steps > 0 || f.Fuzz.f_orig_repr = "[nop]");
    (match Fuzz.replay ~seed:f.Fuzz.f_seed ~case:f.Fuzz.f_case prop with
     | Fuzz.Failed f' -> check string "replayable" f.Fuzz.f_repr f'.Fuzz.f_repr
     | Fuzz.Passed _ -> Alcotest.fail "reported coordinates did not replay");
    (match Fuzz.replay ~seed:f.Fuzz.f_seed ~case:f.Fuzz.f_case Props.isa_roundtrip with
     | Fuzz.Passed _ -> ()
     | Fuzz.Failed f'' ->
       Alcotest.failf "pristine decoder failed the same coordinates: %s"
         (Fuzz.failure_to_string f''))

(* ----- pinned-seed regressions -----

   seed 42 / case 14 of journal.torn_resume is the counterexample that
   exposed the sub-8-byte torn-header bug in Journal.read_frame: a
   partial tail shorter than one frame header read as a clean EOF, so
   resume lost the torn flag.  Pinned forever. *)

let test_regression_torn_header () =
  match Fuzz.replay ~seed:42 ~case:14 Props.journal_torn_resume with
  | Fuzz.Passed _ -> ()
  | Fuzz.Failed f -> Alcotest.failf "regressed: %s" (Fuzz.failure_to_string f)

(* ----- the registry ----- *)

let test_registry () =
  check bool "all cross-layer properties registered" true
    (List.length Props.all >= 11);
  check bool "find hit" true (Props.find "isa.roundtrip" <> None);
  check bool "find miss" true (Props.find "no.such.prop" = None);
  (* names are unique: the CLI's --prop lookup must be unambiguous *)
  let names = List.map Fuzz.name Props.all in
  check int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_smoke () =
  (* every registered property survives a short deterministic burst *)
  List.iter (fun p -> Fuzz.check_prop ~cases:5 ~seed:42 p) Props.all

let suite =
  [
    Alcotest.test_case "rng: deterministic in coordinates" `Quick
      test_rng_deterministic;
    Alcotest.test_case "rng: bounds respected" `Quick test_rng_bounds;
    Alcotest.test_case "rng: split streams independent" `Quick
      test_rng_split_independent;
    Alcotest.test_case "gen: list size bounds" `Quick test_gen_list_bounds;
    Alcotest.test_case "gen: pure in (seed, case, name)" `Quick
      test_gen_pure_in_coordinates;
    Alcotest.test_case "shrink: list candidates" `Quick test_shrink_list_candidates;
    Alcotest.test_case "shrink: int towards zero" `Quick
      test_shrink_int_towards_zero;
    Alcotest.test_case "runner: finds, shrinks, replays" `Quick
      test_run_finds_and_shrinks;
    Alcotest.test_case "runner: checker exception is a failure" `Quick
      test_checker_exception_is_failure;
    Alcotest.test_case "runner: check_prop failure carries replay line" `Quick
      test_check_prop_raises_with_replay_line;
    Alcotest.test_case "runner: a counting property notes its count" `Quick
      test_counting_note;
    Alcotest.test_case "mutation smoke: planted decoder bug caught + shrunk"
      `Quick test_mutation_smoke;
    Alcotest.test_case "regression: journal torn-header seed 42/14" `Quick
      test_regression_torn_header;
    Alcotest.test_case "registry: names unique, lookup total" `Quick
      test_registry;
    Alcotest.test_case "registry: every property smoke-passes" `Slow
      test_registry_smoke;
  ]
