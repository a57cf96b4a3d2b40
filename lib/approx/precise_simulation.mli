(** The precise simulation of Theorem 3 (paper, Section 3.2):
    a second-order query [Q′] over [L′ = L ∪ {NE}] with
    [Q(LB) = Q′(Ph₂(LB))].

    [Q′ = (z). (∀H)(∀P′₁ ... P′ₘ)(ρ ∧ θ → ψ)] where
    - [ρ] forces [H] to be a total functional relation that never maps
      [NE]-related values together — i.e. [H] {e is} a mapping
      [h : C → C] respecting [T] (Section 3.1);
    - [θ = θ₁ ∧ ... ∧ θₘ] forces each [P′ᵢ] to be the image [h(I(Pᵢ))];
    - [ψ = ∃x₁...xₖ (H(z₁,x₁) ∧ ... ∧ H(zₖ,xₖ) ∧ φ′)] with [φ′] the
      query body with [Pᵢ] renamed to [P′ᵢ].

    One refinement over the paper's sketch: constants occurring in the
    query body are also read through [H] — each constant [a] in [φ′]
    becomes a fresh variable [w] constrained by [H(a, w)]. Theorem 1
    interprets query constants as [h(a)] in the image database, while
    [Ph₂] interprets them as themselves, so without this routing a
    query like [(x). x = a] would lose its certain answer.

    The paper stresses this is {e not} a practical implementation — the
    universal second-order quantification is the hidden source of the
    complexity jump — and our executable version indeed only runs on
    tiny databases (experiment E2). *)

(** Reserved name prefix for the quantified predicates ([sim$H],
    [sim$P]); never valid in user vocabularies parsed from source, so
    no capture can occur. *)
val prefix : string

(** [query' vocabulary q] constructs [Q′].
    @raise Invalid_argument if the query already mentions a
    [sim$]-prefixed atom or a [sim_]-prefixed variable. *)
val query' : Vardi_logic.Vocabulary.t -> Vardi_logic.Query.t -> Vardi_logic.Query.t

(** [answer lb q] evaluates [Q′(Ph₂(LB))] with the bounded second-order
    evaluator, reading ρ's [NE] from the uniqueness axioms in place
    ({!Vardi_cwdb.Ph.ph2_in_place}). Exponential in [|C|²]; use only on
    tiny databases.
    @raise Invalid_argument when the needed relation enumeration
    exceeds {!Vardi_relational.Relation.max_enumeration}. *)
val answer :
  Vardi_cwdb.Cw_database.t -> Vardi_logic.Query.t -> Vardi_relational.Relation.t
