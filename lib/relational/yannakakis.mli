(** Yannakakis's algorithm: semijoin-reduced evaluation of acyclic
    conjunctive queries.

    The naive compilation of a conjunction pads every atom to the full
    variable width with domain products; its intermediates grow like
    [D^#vars]. When the query is an acyclic CQ — existential
    quantifiers and conjunctions over positive predicate atoms whose
    join hypergraph passes {!Hypergraph} GYO reduction — this module
    evaluates it over the join tree instead: a bottom-up and a top-down
    semijoin pass make every atom relation globally consistent (the
    full reducer), then bottom-up joins assemble the answer, projecting
    each subtree result down to head variables plus the variables
    shared with its parent. Cost is polynomial in input + output.

    Detection is deliberately conservative: anything outside the
    supported fragment (equality atoms, negation, disjunction,
    universal or second-order quantification, shadowed variables,
    unknown predicates or constants, arity mismatches, head variables
    occurring in no atom, cyclic hypergraphs) yields [None], and the
    caller falls back to the {!Optimizer}/{!Algebra} or {!Eval} path.
    The soundness invariant — identical answers on both paths — is
    enforced by the [acq-parity] fuzz oracle and the test suite. *)

type atom = { pred : string; args : Vardi_logic.Term.t list }

type plan = {
  head : string list;
  answer_arity : int;
  guards : atom list;  (** variable-free atoms, evaluated as gates *)
  atoms : atom array;  (** atoms with variables; edge ids index this *)
  tree : Hypergraph.tree option;  (** [None] when [atoms] is empty *)
}

(** [plan ?virtuals db q] is [Some p] iff [q] is an acyclic CQ fully
    resolvable against [db] (and [virtuals], for computed predicates
    like the approximation's [alpha$P]). *)
val plan :
  ?virtuals:Eval.virtuals -> Database.t -> Vardi_logic.Query.t -> plan option

(** [run ?virtuals db p] evaluates a plan produced against the same
    database schema.

    A virtual atom whose variables all occur in a stored atom is
    evaluated over that atom's tuples: its relation is the
    hook-filtered projection of the smallest such stored relation.
    Only a virtual atom that no stored atom covers is built over
    [D^k]; each such build adds one to the Obs counter
    [relational.virtual_full]. *)
val run : ?virtuals:Eval.virtuals -> Database.t -> plan -> Relation.t

(** [answer ?virtuals db q] is [run] of [plan] when the query is
    eligible; [None] means "use the fallback evaluator". On [Some r],
    [r] equals [Eval.answer ?virtuals db q]. *)
val answer :
  ?virtuals:Eval.virtuals ->
  Database.t ->
  Vardi_logic.Query.t ->
  Relation.t option

(** Renders the join tree (atom per node, with covered variables) and
    the semijoin schedule of both reducer passes. *)
val pp_plan : plan Fmt.t

val pp_atom : atom Fmt.t

(**/**)

(** Schema-carrying relations and the reducer internals, exposed for
    the property tests (semijoin-pass idempotence, join/semijoin
    list-model parity). *)
module Internal : sig
  type nrel = { vars : string list; rel : Relation.t }

  val semijoin : nrel -> nrel -> nrel
  val join : nrel -> nrel -> nrel
  val project : string list -> nrel -> nrel
  val reducer_passes : nrel array -> Hypergraph.tree -> unit
end
