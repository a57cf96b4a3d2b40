(** Deterministic workload generators shared by the experiments and
    the tests. *)

(** [parametric_db ~constants ~unknowns ~seed] builds a CW database
    over [constants] constants named [k0 ... k<n-1>], with predicates
    [P/1] and [R/2], random facts (density held proportional to the
    constant count, deterministic in [seed]), and uniqueness axioms
    making every pair distinct {e except} pairs involving the first
    [unknowns] constants — so [unknowns = 0] is fully specified.
    @raise Invalid_argument when [unknowns > constants] or
    [constants < 1]. *)
val parametric_db :
  constants:int -> unknowns:int -> seed:int -> Vardi_cwdb.Cw_database.t

(** A fixed query mixing positive and negative subformulas (so the
    approximation is exercised on its incomplete fragment):
    [(x). (exists y. R(x, y)) /\ ~P(x)]. *)
val mixed_query : Vardi_logic.Query.t

(** Pools of random database/query pairs for the quality experiment
    (E6), deterministic in [seed]. *)
val random_pairs :
  count:int -> seed:int -> (Vardi_cwdb.Cw_database.t * Vardi_logic.Query.t) list
