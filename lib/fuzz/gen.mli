(** Seeded generation of fuzzing instances: a CW logical database with
    controllable unknown-density plus a random FO (or typed) query over
    its vocabulary.

    Reproducibility contract: instance [i] of a run with seed [s]
    depends only on [(s, i)] — never on the platform, the oracles
    later run on it, or the previous instances — so a
    failure can be regenerated directly from its coordinates and the
    same seed yields the identical instance stream everywhere. *)

type config = {
  max_constants : int;  (** constants per database, 1 .. this (default 4) *)
  max_predicates : int;  (** predicates, 1 .. this (default 3) *)
  max_arity : int;  (** predicate arity, 0 .. this — 0-ary included (default 2) *)
  max_facts : int;  (** atomic facts, 0 .. this, pre-dedup (default 6) *)
  unknown_density : float;
    (** probability that a constant pair {e lacks} a uniqueness axiom:
        [0.] generates fully specified databases (the Theorem 12 oracle
        then demands approx = exact), [1.] leaves every identity open
        (default 0.5) *)
  max_query_arity : int;  (** query head size, 0 .. this — Boolean included (default 2) *)
  profile : Vardi_logic.Generate.profile;  (** formula shape (depth, quantifier depth) *)
}

val default : config

(** @raise Invalid_argument on out-of-range fields (also raised by the
    generators below, which validate their config first). *)
val validate_config : config -> unit

type instance = {
  seed : int;
  index : int;
  db : Vardi_cwdb.Cw_database.t;
  query : Vardi_logic.Query.t;
}

(** [instance ~seed index] is the [index]-th instance of the seeded
    stream. *)
val instance : ?config:config -> seed:int -> int -> instance

(** [stream ~seed ~count ()] is instances [0 .. count-1], lazily. *)
val stream : ?config:config -> seed:int -> count:int -> unit -> instance Seq.t

val pp_instance : instance Fmt.t

(** {1 Typed instances}

    The same shape over {!Vardi_typed}: a typed vocabulary of one or
    two sorts, constants and predicate signatures drawn over them, and
    a well-typed query (generation respects signatures, so
    {!Vardi_typed.Ty_query.typecheck} succeeds by construction). The
    typed stream is seeded independently of the untyped one. *)

type typed_instance = {
  tseed : int;
  tindex : int;
  tdb : Vardi_typed.Ty_database.t;
  tquery : Vardi_typed.Ty_query.t;
}

val typed_instance : ?config:config -> seed:int -> int -> typed_instance
val pp_typed_instance : typed_instance Fmt.t
