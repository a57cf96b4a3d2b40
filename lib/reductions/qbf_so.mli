(** The Theorem 9 reduction: truth of Bₖ₊₁ formulas with 3-CNF
    matrices ≤ certain evaluation of Σₖ {e second-order} queries —
    establishing that the data complexity of Σₖ second-order queries
    climbs from Σₖᵖ (physical, Theorem 8) to Πₖ₊₁ᵖ-complete.

    Construction, for [φ ∈ Bₖ₊₁] in 3-CNF over blocks [m₁ ... mₖ₊₁]:
    - constants [1] and [cᵢⱼ]; predicates: unary [N₁] and the ternary
      [R^{pqr}_{ijl}] (declared only when used by some clause);
    - facts: [N₁(1)]; per clause
      [(¬)^{p+1}xᵢ,ⱼ₁ ∨ (¬)^{q+1}xⱼ,ⱼ₂ ∨ (¬)^{r+1}x_l,ⱼ₃] the fact
      [R^{pqr}_{ijl}(cᵢⱼ₁, cⱼⱼ₂, c_lⱼ₃)] — sign exponent 1 means
      positive;
    - uniqueness: all pairs of constants from blocks ≥ 2 are distinct
      (first-block constants stay unknown: mappings [h] simulate the
      leading ∀ block via [h(c₁ⱼ) = h(1)]);
    - query [ξ]: for each declared [R^{pqr}_{ijl}],
      [∀xyz (R^{pqr}_{ijl}(x,y,z) → ((±)N_i(x) ∨ (±)N_j(y) ∨ (±)N_l(z))];
      then [σ = (∃N₂)(∀N₃)...(Q Nₖ₊₁) ⋀ ξ] with [N₂ ... Nₖ₊₁]
      second-order quantified.

    [φ] is true iff [T ⊨f σ].

    Note this is a {e data}-complexity bound: for fixed [k] and block
    count the query depends only on which [R^{pqr}_{ijl}] are
    inhabited, not on the clauses themselves. *)

(** [constant i j] is the constant for variable [xᵢ,ⱼ] ("b<i>_<j>"). *)
val constant : int -> int -> string

(** [r_predicate (p,q,r) (i,j,l)] is the predicate name
    ["R<p><q><r>_<i>_<j>_<l>"]. *)
val r_predicate : int * int * int -> int * int * int -> string

(** [database qbf] and [query qbf].
    @raise Invalid_argument when the matrix is not in 3-CNF
    ({!Qbf.cnf3_clauses} returns [None]). *)
val database : Qbf.t -> Vardi_cwdb.Cw_database.t

val query : Qbf.t -> Vardi_logic.Query.t

(** [eval_via_certain qbf] decides the QBF through the
    reduction — must agree with {!Qbf.eval}. Uses bounded second-order
    evaluation internally: keep block sizes small. *)
val eval_via_certain : Qbf.t -> bool
