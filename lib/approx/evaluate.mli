(** The approximation algorithm of Section 5:
    [A(Q, LB) = Q̂(Ph₂(LB))].

    Guarantees proved in the paper and verified by the test suite:
    - {b Soundness} (Theorem 11): [A(Q, LB) ⊆ Q(LB)];
    - {b Completeness for fully specified databases} (Theorem 12);
    - {b Completeness for positive queries} (Theorem 13);
    - {b Physical-database complexity} (Theorem 14): with the
      polynomial-time [α_P] oracle, evaluating [A(Q, LB)] costs the
      same as evaluating a first-order query over a physical database.

    [Ph₂(LB)] is never copied: {!storage} is [Ph₁(LB)] plus virtual
    predicates, where [NE(x, y)] reads the uniqueness axioms in place
    ({!Vardi_cwdb.Ph.ph2_in_place}) and, in [Semantic] mode,
    [alpha$P] runs the Lemma-10 test ({!Disagree.virtuals}).

    Three backends execute [Q̂]: direct Tarskian evaluation, or
    compilation to relational algebra — the paper's "implementation on
    the top of a standard database management system" — plain or
    optimized. The optimized plan fuses a conjunction into binary
    equi-joins in atom order, and {!Vardi_relational.Algebra.run}
    evaluates a virtual atom that such a join or intersection binds
    only over the bound tuples, so a query reading [NE] or a k-ary
    [α_P] enumerates [D^k] only where nothing binds the atom.

    Pick [Semantic] mode for the algebra backends. [Syntactic] mode is
    compatible with them but impractical beyond toy databases: each
    Lemma-10 subformula carries ~10 nested quantifiers and the
    active-domain compiler materializes [D^k] per quantifier depth.
    This blow-up is exactly why Theorem 14's analysis treats [α_P] as
    a virtually-atomic formula — which is what [Semantic] mode does. *)

type backend =
  | Direct   (** Tarskian evaluation ({!Vardi_relational.Eval}) *)
  | Algebra  (** compile to relational algebra and run it
                 ({!Vardi_relational.Compile}); first-order queries only *)
  | Algebra_optimized
      (** as [Algebra], after the {!Vardi_relational.Optimizer}
          rewriting pass *)

(** How answers compare to the exact [Q(LB)] for a given pair, decided
    syntactically up front. *)
type completeness =
  | Complete_fully_specified  (** Theorem 12 applies *)
  | Complete_positive         (** Theorem 13 applies *)
  | Sound_only                (** only [A(Q,LB) ⊆ Q(LB)] is promised *)

val completeness :
  Vardi_cwdb.Cw_database.t -> Vardi_logic.Query.t -> completeness

(** [plan ?mode ~backend lb q] is the relational-algebra plan {!answer}
    and {!boolean} run for [q] on [backend], over {!storage}: [None] for
    [Direct], which runs the Tarskian evaluator; the
    {!Vardi_relational.Compile.query} plan of [Q̂] for [Algebra]; that
    plan after {!Vardi_relational.Optimizer.optimize} for
    [Algebra_optimized]. Default [mode = Translate.Semantic].

    @raise Invalid_argument as {!answer} does.
    @raise Vardi_relational.Compile.Unsupported when the backend is an
    algebra one and the query is second-order. *)
val plan :
  ?mode:Translate.mode ->
  backend:backend ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Algebra.t option

(** [answer ?mode ?backend lb q] is [A(Q, LB)]: {!plan} run by
    {!Vardi_relational.Algebra.run}, or the Tarskian evaluator for
    [Direct]. Defaults: [mode = Translate.Semantic], [backend = Direct].

    @raise Invalid_argument when the query mentions symbols outside the
    vocabulary of [lb] (see {!Vardi_cwdb.Query_check}).
    @raise Translate.Unsupported per {!Translate}.
    @raise Vardi_relational.Compile.Unsupported when [backend = Algebra]
    and the query is second-order. *)
val answer :
  ?mode:Translate.mode ->
  ?backend:backend ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

(** [member ?mode lb q c] decides [c ∈ A(Q, LB)] directly. *)
val member :
  ?mode:Translate.mode ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  string list ->
  bool

(** [boolean ?mode ?backend lb q] decides a Boolean query on [backend]:
    the Tarskian evaluator for [Direct] (the default), otherwise whether
    the arity-0 answer of {!plan} is nonempty.
    @raise Invalid_argument when [q] has answer variables.
    @raise Vardi_relational.Compile.Unsupported as {!answer} does. *)
val boolean :
  ?mode:Translate.mode ->
  ?backend:backend ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool

(** [storage ?mode lb] is the database and hooks [Q̂] runs on: [Ph₁(lb)]
    with [NE] read from the uniqueness axioms in place, plus the
    [alpha$P] hooks when [mode = Semantic] (the default). The build
    runs in the [approx.ph2] span. {!answer}, {!member}, {!boolean},
    {!plan} and the CLI's [compile] printer all use it.

    @raise Invalid_argument when [lb]'s vocabulary declares [NE], as
    {!Vardi_cwdb.Ph.ph2} does. *)
val storage :
  ?mode:Translate.mode ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_relational.Database.t * Vardi_relational.Eval.virtuals
