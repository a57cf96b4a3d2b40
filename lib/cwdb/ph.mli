(** The canonical physical databases [Ph₁(LB)] and [Ph₂(LB)] (paper,
    Sections 3.1 and 3.2).

    [Ph₁(LB) = (L, I)]: domain is the constant set [C], [I] is the
    identity on constants, and [I(P) = { c : P(c) ∈ T }].

    [Ph₂(LB) = (L′, I)]: the same, over the vocabulary [L′ = L ∪ {NE}],
    with [I(NE) = { (ci, cj) : ¬(ci = cj) ∈ T }] (stored symmetrically:
    the paper identifies [¬(ci=cj)] with [¬(cj=ci)]).

    The section ends by warning that an explicit [NE] is quadratic in
    the number of constants. {!ph2_in_place} is the form the engines
    run: [Ph₁(LB)] plus a virtual [NE] that reads the uniqueness axioms
    where they are, since [I(NE)] {e is} the axiom set. {!ph2}
    materializes the relation and is kept as the paper-literal
    reference for tests, the fuzz oracle and the experiments. *)

(** Name of the added inequality predicate in [L′]. *)
val ne_predicate : string

val ph1 : Cw_database.t -> Vardi_relational.Database.t

(** The explicit [Ph₂(LB)], with every uniqueness axiom copied into
    [NE] in both orientations.

    @raise Invalid_argument if the vocabulary of [LB] already declares
    a predicate named [NE]. *)
val ph2 : Cw_database.t -> Vardi_relational.Database.t

(** [ne_virtuals lb] answers [NE(x, y)] as
    [Cw_database.are_distinct lb x y] and leaves every other name to
    the database.

    @raise Vardi_relational.Eval.Eval_error when [NE] is applied to
    other than two arguments. *)
val ne_virtuals : Cw_database.t -> Vardi_relational.Eval.virtuals

(** [ph2_in_place lb] is [(ph1 lb, ne_virtuals lb)]: [Ph₂(LB)] with
    [NE] read in place. Any evaluator of {!Vardi_relational} given
    this database and hook answers as it does over [ph2 lb], without
    the quadratic build.

    @raise Invalid_argument as {!ph2} does. *)
val ph2_in_place :
  Cw_database.t -> Vardi_relational.Database.t * Vardi_relational.Eval.virtuals
