(** Shared Cmdliner flag definitions for the kfi binaries: the canonical
    spellings (and docs) of [--seed], [--subsample], [-j]/[--jobs],
    [--backend] and [-q]/[--quiet], so every CLI accepts the same flags
    with the same meaning. *)

open Cmdliner

val backend_conv : Kfi.Backend.kind Arg.conv
(** Parses the {!Kfi.Backend.kind_of_string} spellings
    ([interp]/[interpreter], [cached]/[bb]). *)

val backend : unit -> Kfi.Backend.kind Term.t
(** [--backend BACKEND], default {!Kfi.Backend.Interp}. *)

type replay_backend = One of Kfi.Backend.kind | Both

val replay_backend : unit -> replay_backend Term.t
(** [--backend] for single-injection replay (kfi-trace): any backend
    kind, or [both] to replay under each in turn and compare. *)

val seed : ?default:int -> unit -> int Term.t
(** [--seed SEED], default 42. *)

val subsample : ?default:int -> doc:string -> unit -> int Term.t
(** [--subsample K]; the doc states what k-th-target selection means for
    the binary at hand. *)

val jobs : ?doc:string -> unit -> int Term.t
(** [-j N] / [--jobs N], default 1. *)

val quiet : unit -> bool Term.t
(** [-q] / [--quiet]. *)
