(* The coordinator <-> kfi-worker wire protocol.

   One frame per message, the journal's framing exactly (u32 LE payload
   length, u32 LE CRC-32 of the payload, payload = Marshal of the
   message), over the worker's stdin/stdout pipes.  Both message types
   are plain data (no closures, no custom blocks), so Marshal is safe
   across the two executables as long as they come from the same build
   tree — which the supervisor guarantees by spawning the kfi-worker
   binary sitting next to itself.

   The worker reads blocking (it has nothing else to do); the
   coordinator multiplexes many workers under [Unix.select], so its
   side decodes incrementally from a per-worker buffer ([Dec]). *)

module J = Kfi_injector.Journal

(* Campaign-wide facts a worker needs once, before any shard. *)
type hello = {
  h_fingerprint : string; (* Config.fingerprint: guards shard journals *)
  h_campaign : Kfi_injector.Target.campaign;
  h_hardening : bool;
  h_backend : Kfi_isa.Backend.kind;
  h_max_cycles : int;
  h_deadline_ms : int option;
  h_retries : int;
  h_shard_dir : string; (* where this worker opens shard journals *)
}

(* A content-addressed unit of work: a contiguous slice of the planned
   target list, in serial order, with the workload index planned for
   each target (planning is the coordinator's job — workers never
   consult the profile or the oracle). *)
type shard = {
  sh_id : string; (* hex digest of fingerprint + campaign + targets *)
  sh_index : int; (* position in the split, stable across requeues *)
  sh_targets : (Kfi_injector.Target.t * int) list;
}

type to_worker =
  | Hello of hello
  | Assign of shard
  | Shutdown

type from_worker =
  | Ready of int (* pid; sent once after Hello *)
  | Claimed of string (* shard id: the worker owns it from here on *)
  | Entry of {
      en_shard : string;
      en_entry : J.entry; (* already fsync'd to the shard journal *)
      en_metrics : Kfi_obs.Metrics.snap;
          (* what the worker's runner recorded for this injection *)
    }
  | Done of string * int (* shard id, entries appended by this process *)

(* 64 MB: far above any real Assign (the largest message — a full-scale
   campaign shard is a few hundred KB), small enough to catch a
   desynchronized stream immediately. *)
let max_frame = 64 * 1024 * 1024

(* ----- writing ----- *)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (Int32.of_int (J.crc32 payload));
  Bytes.blit_string payload 0 b 8 n;
  b

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let send_to_worker fd (m : to_worker) =
  write_all fd (frame_bytes (Marshal.to_string m []))

let send_from_worker fd (m : from_worker) =
  write_all fd (frame_bytes (Marshal.to_string m []))

(* ----- blocking reads (worker side) ----- *)

(* [None] on EOF at a frame boundary *and* on a torn read mid-frame:
   either way the peer is gone and the worker's only move is to exit. *)
let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if !off = n then Some b else None

let recv_to_worker fd : to_worker option =
  match read_exact fd 8 with
  | None -> None
  | Some hdr -> (
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xFFFFFFFF in
    let crc = Int32.to_int (Bytes.get_int32_le hdr 4) land 0xFFFFFFFF in
    if len < 0 || len > max_frame then
      failwith "Shard.Proto: implausible frame length";
    match read_exact fd len with
    | None -> None
    | Some payload ->
      let payload = Bytes.unsafe_to_string payload in
      if J.crc32 payload <> crc then failwith "Shard.Proto: frame CRC mismatch";
      Some (Marshal.from_string payload 0))

(* ----- incremental decoding (coordinator side) ----- *)

module Dec = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 65536; len = 0 }

  let feed t src n =
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    Bytes.blit src 0 t.buf t.len n;
    t.len <- t.len + n

  let next t : (from_worker option, string) result =
    if t.len < 8 then Ok None
    else begin
      let flen = Int32.to_int (Bytes.get_int32_le t.buf 0) land 0xFFFFFFFF in
      let crc = Int32.to_int (Bytes.get_int32_le t.buf 4) land 0xFFFFFFFF in
      if flen < 0 || flen > max_frame then Error "implausible frame length"
      else if t.len < 8 + flen then Ok None
      else begin
        let payload = Bytes.sub_string t.buf 8 flen in
        let rest = t.len - 8 - flen in
        Bytes.blit t.buf (8 + flen) t.buf 0 rest;
        t.len <- rest;
        if J.crc32 payload <> crc then Error "frame CRC mismatch"
        else
          match (Marshal.from_string payload 0 : from_worker) with
          | exception _ -> Error "undecodable frame payload"
          | m -> Ok (Some m)
      end
    end
end
