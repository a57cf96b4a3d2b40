(** Disagreement between tuples of constants (paper, Section 5 and
    Lemma 10).

    Tuples [c] and [d] {e disagree} w.r.t. [T] when
    [Unique(T) ∧ c = d] is unsatisfiable — equivalently (paper, proof
    of Lemma 10), when some [ci] and [dj] are connected in the graph
    [G_{c,d} = (V, E)] with [V = {c1..ck, d1..dk}] and
    [E = {(ci, di)}], and [¬(ci = dj) ∈ T].

    If [c] disagrees with every fact tuple of [P], then [c] is provably
    not in [P] in every model — the semantics the [α_P] predicate gives
    to negated atoms. *)

(** [tuples lb c d] decides disagreement.
    @raise Invalid_argument when the tuples' lengths differ. *)
val tuples : Vardi_cwdb.Cw_database.t -> string list -> string list -> bool

(** [alpha_holds lb p c] decides [c ∈ α_P]: [c] disagrees with [d] for
    every atomic fact [P(d)] of [lb]. With no facts about [p] this is
    vacuously true.
    @raise Invalid_argument if [p]'s declared arity differs from
    [List.length c] or [p] is undeclared. *)
val alpha_holds : Vardi_cwdb.Cw_database.t -> string -> string list -> bool

(** Name of the virtual predicate wrapping {!alpha_holds} for predicate
    [p]: ["alpha$" ^ p]. The translation {!Translate} emits these names
    in [`Semantic] mode. *)
val alpha_predicate : string -> string

(** [virtuals lb] resolves every ["alpha$P"] name for a predicate [P]
    declared in [lb]; all other names (including [NE], which
    {!Vardi_cwdb.Ph.ne_virtuals} answers) are left to the database.
    [virtuals lb] fetches each predicate's facts once, so apply it once
    and test many tuples through the result. *)
val virtuals : Vardi_cwdb.Cw_database.t -> Vardi_relational.Eval.virtuals
