(* Structured campaign telemetry: a JSONL event log (one self-contained
   JSON object per line) plus aggregate counters surfaced in the report.

   The JSON layer is deliberately tiny and dependency-free: an emitter
   for the subset we produce, and a strict parser used to schema-lint
   event logs in CI. *)

(* ----- JSON values ----- *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" v)
    else Buffer.add_string b (Printf.sprintf "%.6g" v)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        render b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        render b (Str k);
        Buffer.add_char b ':';
        render b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

(* ----- strict parser (for the CI schema lint) ----- *)

exception Parse_error of string

let parse (s : string) : value =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do advance () done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("bad literal, expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "short \\u escape";
               let hex = String.sub s !pos 4 in
               (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "bad \\u escape"
                | Some code ->
                  (* keep it simple: escape codes < 256 decode, others
                     round-trip as '?' (we never emit them) *)
                  Buffer.add_char b (if code < 256 then Char.chr code else '?');
                  pos := !pos + 4)
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some v -> Int v
    | None -> (
      match float_of_string_opt tok with
      | Some v -> Float v
      | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ----- the JSONL schema ----- *)

(* Required keys per event type; every event needs "type" and "seq". *)
let schema =
  [
    ("campaign_start", [ "campaign"; "targets"; "subsample"; "seed" ]);
    ( "target",
      [
        "campaign"; "fn"; "subsys"; "addr"; "byte"; "bit"; "workload"; "outcome";
        "predicted"; "retries"; "cycles";
      ] );
    ( "campaign_end",
      [ "campaign"; "targets"; "run"; "pruned"; "activated"; "aborted" ] );
  ]

let field obj k = match obj with Obj fs -> List.assoc_opt k fs | _ -> None

let lint_line line =
  match parse line with
  | exception Parse_error msg -> Error ("not valid JSON: " ^ msg)
  | Obj _ as obj -> (
    match field obj "type" with
    | Some (Str ty) -> (
      if field obj "seq" = None then Error "missing \"seq\""
      else
        match List.assoc_opt ty schema with
        | None -> Error (Printf.sprintf "unknown event type %S" ty)
        | Some required -> (
          match List.find_opt (fun k -> field obj k = None) required with
          | Some missing ->
            Error (Printf.sprintf "event %S missing required key %S" ty missing)
          | None -> Ok ty))
    | _ -> Error "missing string \"type\"")
  | _ -> Error "not a JSON object"

(* Lint a whole document: [Ok n] lines, or the first offending line. *)
let lint doc =
  let lines =
    String.split_on_char '\n' doc
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go i = function
    | [] -> Ok i
    | l :: tl -> (
      match lint_line l with
      | Ok _ -> go (i + 1) tl
      | Error e -> Error (i + 1, e))
  in
  go 0 lines

(* ----- the telemetry sink and counters ----- *)

type t = {
  sink : string -> unit;
  lock : Mutex.t;
      (* guards [seq] + the sink and the counters below: a sink may be
         shared by concurrent studies, and the campaign runner batches
         its counter updates under [locked] *)
  mutable seq : int;
  mutable n_targets : int;       (* targets considered (run + pruned) *)
  mutable n_run : int;           (* really executed on the machine *)
  mutable n_pruned : int;        (* resolved statically by the oracle *)
  mutable n_activated : int;
  mutable n_crash_hang : int;
  mutable n_aborted : int;       (* quarantined as Harness_abort *)
  mutable sim_cycles : int;      (* simulated cycles executed across runs *)
}

let create ?(sink = fun _ -> ()) () =
  {
    sink;
    lock = Mutex.create ();
    seq = 0;
    n_targets = 0;
    n_run = 0;
    n_pruned = 0;
    n_activated = 0;
    n_crash_hang = 0;
    n_aborted = 0;
    sim_cycles = 0;
  }

let locked t f = Mutex.protect t.lock f

let event t ty fields =
  locked t (fun () ->
      let line =
        to_string (Obj (("type", Str ty) :: ("seq", Int t.seq) :: fields))
      in
      t.seq <- t.seq + 1;
      t.sink line)

(* Aggregates for the report. *)
type summary = {
  s_targets : int;
  s_run : int;
  s_pruned : int;
  s_activated : int;
  s_crash_hang : int;
  s_aborted : int;
  s_sim_cycles : int;
  s_events : int;
}

let summary t =
  {
    s_targets = t.n_targets;
    s_run = t.n_run;
    s_pruned = t.n_pruned;
    s_activated = t.n_activated;
    s_crash_hang = t.n_crash_hang;
    s_aborted = t.n_aborted;
    s_sim_cycles = t.sim_cycles;
    s_events = t.seq;
  }

let pct n total = if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total

let summary_to_string s =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "Campaign telemetry\n";
  add "%s\n" (String.make 78 '-');
  add "targets              %8d  (%d run on the machine, %d oracle-pruned)\n"
    s.s_targets s.s_run s.s_pruned;
  add "activation rate      %7.1f%%  (%d of %d run)\n"
    (pct s.s_activated s.s_run) s.s_activated s.s_run;
  add "crash/hang           %8d  (%.1f%% of activated)\n" s.s_crash_hang
    (pct s.s_crash_hang s.s_activated);
  if s.s_aborted > 0 then
    add "harness aborts       %8d  (quarantined after retries)\n" s.s_aborted;
  add "simulated cycles     %8d across all runs\n" s.s_sim_cycles;
  add "events emitted       %8d\n" s.s_events;
  Buffer.contents b
