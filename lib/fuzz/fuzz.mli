(** Property runner with replayable failures.

    Each case's RNG stream is a pure function of (seed, case index,
    property name): a failing case is fully identified by the
    [--seed S --replay N] pair printed in its report, independent of how
    many cases a time budget reached. *)

type 'a arb = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

val arb : ?shrink:'a Shrink.t -> ?print:('a -> string) -> 'a Gen.t -> 'a arb

type failure = {
  f_prop : string;
  f_seed : int;
  f_case : int;
  f_msg : string;
  f_repr : string;  (** shrunk counterexample *)
  f_orig_repr : string;
  f_shrink_steps : int;
}

type run_result =
  | Passed of { cases : int; note : string option }
      (** [note]: how many cases counted, for a {!make_counting} property *)
  | Failed of failure

type t
(** A named property: generator + checker, ready to run under any seed. *)

val make : name:string -> doc:string -> 'a arb -> ('a -> (unit, string) result) -> t
(** Exceptions raised by the checker (or generator) count as failures and
    are shrunk like any other counterexample. *)

val make_counting :
  ?counts:string -> name:string -> doc:string -> 'a arb -> ('a -> (bool, string) result) -> t
(** Like {!make}, but a passing case may count ([Ok true]): a passed run
    notes ["N <counts>"], how many of its cases counted.  A property
    that can pass without testing anything shows here how often it did
    test something. *)

val name : t -> string
val doc : t -> string

val default_seed : unit -> int
(** [KFI_FUZZ_SEED] if set and numeric, else 42 — never wall-clock. *)

val run : ?cases:int -> ?budget_ms:int -> seed:int -> t -> run_result
(** Runs cases [0..]: up to [cases] (default 200, unlimited when only a
    budget is given), stopping early when [budget_ms] of CPU time is
    spent.  The budget never changes what any individual case does. *)

val replay : seed:int -> case:int -> t -> run_result

val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string

val check_prop : ?cases:int -> ?budget_ms:int -> ?seed:int -> t -> unit
(** Test-suite driver: raises [Failure] with the replay line on a
    counterexample.  Seed defaults to {!default_seed}. *)
