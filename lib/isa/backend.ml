(* The pluggable execution backend: one interface over "how do cycles
   get executed and how does machine state move between experiments".

   Two implementations:
   - [Interp]: the reference step interpreter, exactly the pre-existing
     [Machine.run] path.  Slow, simple, and the semantic ground truth.
   - [Cached]: dirty-page tracked restore ([Phys.set_tracking]) plus the
     pre-decoded basic-block engine ([Bbexec]), whose blocks re-check
     their bytes after a write to their page.  Byte-identical outcomes,
     traces and telemetry — the fuzz property [backend.equiv] and the CI
     byte-identity gates hold it to that. *)

type kind = Interp | Cached

let kind_name = function Interp -> "interp" | Cached -> "cached"

let kind_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "cached" | "bb" -> Some Cached
  | _ -> None

let all_kinds = [ Interp; Cached ]

type t = {
  machine : Machine.t;
  bk_kind : kind;
  bb : Bbexec.t option;
}

let create kind machine =
  match kind with
  | Interp -> { machine; bk_kind = Interp; bb = None }
  | Cached ->
    Phys.set_tracking (Machine.phys machine) true;
    Devices.Disk.set_tracking (Machine.disk machine) true;
    { machine; bk_kind = Cached; bb = Some (Bbexec.create (Machine.cpu machine)) }

let kind t = t.bk_kind

let detach t =
  match t.bb with
  | Some bb ->
    Bbexec.detach bb;
    Phys.set_tracking (Machine.phys t.machine) false;
    Devices.Disk.set_tracking (Machine.disk t.machine) false
  | None -> ()

let run t ~max_cycles =
  match t.bb with
  | None -> Machine.run t.machine ~max_cycles
  | Some bb -> Bbexec.run bb ~max_cycles

let snapshot t = Machine.snapshot t.machine
let restore t s = Machine.restore t.machine s

let set_trace_level t level =
  Trace.set_level (Machine.cpu t.machine).Cpu.trace level

let stats t = Option.map Bbexec.stats t.bb
