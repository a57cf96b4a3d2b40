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
    [alpha$P] runs the Lemma-10 test ({!Disagree.virtuals}). On the
    acyclic fast path a virtual atom is evaluated only over the tuples
    a stored atom binds ({!Vardi_relational.Yannakakis.run}), so such
    a query reading [NE] or a k-ary [α_P] does not enumerate [D^k]
    unless no stored atom covers the atom.

    Three backends execute [Q̂]: direct Tarskian evaluation, or
    compilation to relational algebra — the paper's "implementation on
    the top of a standard database management system" — plain or
    optimized.

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

(** [answer ?mode ?backend lb q] is [A(Q, LB)]. Defaults:
    [mode = Translate.Semantic], [backend = Direct].

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

(** [boolean ?mode lb q] decides a Boolean query.
    @raise Invalid_argument when [q] has answer variables. *)
val boolean :
  ?mode:Translate.mode -> Vardi_cwdb.Cw_database.t -> Vardi_logic.Query.t -> bool

(** [storage ?mode lb] is the database and hooks [Q̂] runs on: [Ph₁(lb)]
    with [NE] read from the uniqueness axioms in place, plus the
    [alpha$P] hooks when [mode = Semantic] (the default). The build
    runs in the [approx.ph2] span. {!answer}, {!member}, {!boolean} and
    the CLI's plan printers all use it.

    @raise Invalid_argument when [lb]'s vocabulary declares [NE], as
    {!Vardi_cwdb.Ph.ph2} does. *)
val storage :
  ?mode:Translate.mode ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_relational.Database.t * Vardi_relational.Eval.virtuals
