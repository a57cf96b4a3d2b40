(** The differential fuzzing driver.

    Streams seeded instances from {!Gen}, runs each through the
    {!Oracle} battery (and, per instance, a typed-lane instance through
    {!Oracle.check_typed}), greedily {!Shrink}s every failure against
    the oracle that fired, optionally noise-fuzzes the parsers
    ({!Noise}) and writes replayable {!Corpus} files.

    Reproducibility: the instance stream depends only on
    [(config.seed, index)] — identical across runs and platforms — so [seed]+[index] coordinates in a failure
    report pinpoint one regenerable instance. *)

type config = {
  seed : int;
  count : int;  (** differential instances to run (default 1000) *)
  gen : Gen.config;  (** instance shapes *)
  typed : bool;  (** also run the typed lane per instance (default true) *)
  noise : int;  (** parser noise-fuzz inputs to run after the stream
                    (default 0 = skip) *)
  shrink : bool;  (** minimize failures before reporting (default true) *)
  faults : bool;
      (** run the [resilient-fault-safety] oracle per instance under a
          fault plan whose seed derives from [(seed, index)]
          (default false) *)
  corpus_dir : string option;
      (** when set, write each (shrunk) failure as a [.fuzz] file here *)
  progress : (int -> unit) option;
      (** called with each instance index before it runs *)
}

val default : config

type failure = {
  index : int;  (** instance index within the stream *)
  violation : Oracle.violation;
  case : Shrink.case;  (** the instance as generated *)
  shrunk : Shrink.case option;  (** minimized form, when [config.shrink] *)
}

type outcome = {
  instances : int;
  checked_typed : int;
  failures : failure list;
  crashes : Noise.crash list;
}

(** No failures and no crashes. *)
val clean : outcome -> bool

(** [run ~config ()] executes the campaign. Never raises on engine
    misbehavior (that becomes a {!failure}); raises [Invalid_argument]
    on a malformed [config]. Emits a [fuzz.run] span and
    [fuzz.instances] / [fuzz.checks] / [fuzz.violations] /
    [fuzz.shrink_steps] counters. *)
val run : ?config:config -> unit -> outcome

(** [replay cases] re-checks labeled corpus cases (as loaded by
    {!Corpus.load_dir}) and returns the violations per label — the
    regression-replay entry point used by the test suite and
    [ldb fuzz --replay]. *)
val replay :
  (string * Corpus.case) list ->
  (string * Oracle.violation) list

val pp_failure : failure Fmt.t
val pp_outcome : outcome Fmt.t
