(* JSON for the ledger: the library's value type and strict parser, with
   a renderer that keeps every digit of a float (the telemetry renderer
   rounds to six significant digits, which would make distinct
   measurements read the same). *)

type t = Kfi.Trace.Telemetry.value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec render b = function
  | Float v when Float.is_finite v ->
    let s = Printf.sprintf "%.17g" v in
    Buffer.add_string b s;
    if Float.is_integer v && not (String.contains s 'e') then
      Buffer.add_string b ".0"
  | Float _ -> Buffer.add_string b "null"
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        render b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        render b (Str k);
        Buffer.add_string b ": ";
        render b v)
      fields;
    Buffer.add_char b '}'
  | (Null | Bool _ | Int _ | Str _) as v ->
    Buffer.add_string b (Kfi.Trace.Telemetry.to_string v)

let to_string v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

(* The library parser reads one line; a pretty-printed document is made
   one by turning line breaks (never legal inside JSON strings) into
   blanks. *)
let parse s =
  Kfi.Trace.Telemetry.parse
    (String.map (function '\n' | '\r' -> ' ' | c -> c) (String.trim s))

let field k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let to_str = function Some (Str s) -> Some s | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all
