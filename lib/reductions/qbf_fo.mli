(** The Theorem 7 reduction: truth of Bₖ₊₁ quantified Boolean formulas
    ≤ certain evaluation of Σₖ-prefix first-order queries over CW
    logical databases — establishing that the combined complexity of
    Σₖ first-order queries climbs from Σₖᵖ-complete (physical, Theorem
    6) to Πₖ₊₁ᵖ-complete (logical).

    Construction, for [φ ∈ Bₖ₊₁] with block sizes [m₁ ... mₖ₊₁]:
    - vocabulary: unary [M], unary [N₁ ... N_{m₁}]; constants
      [0, 1, c₁ ... c_{m₁}];
    - facts: [M(1)] and [Nⱼ(cⱼ)]; uniqueness: [¬(0 = 1)];
    - query [σ]: replace [x₁,ⱼ] by [Nⱼ(1)] and [xᵢ,ⱼ (i ≥ 2)] by
      [M(yᵢ,ⱼ)], then prefix [∃y₂,* ... Q yₖ₊₁,*].

    The universal quantification over mappings [h] simulates the
    leading ∀ block ([x₁,ⱼ] is true iff [h(cⱼ) = h(1)]); the
    first-order prefix simulates the rest. [φ] is true iff [T ⊨f σ]. *)

(** [first_block_constant j] is ["c<j>"]. *)
val first_block_constant : int -> string

(** [query qbf] is the Boolean query [(). σ]. With a single block
    (k = 0) the prefix is empty and [σ = χ]. *)
val query : Qbf.t -> Vardi_logic.Query.t

(** [database qbf] is the CW logical database of the construction. *)
val database : Qbf.t -> Vardi_cwdb.Cw_database.t

(** [eval_via_certain qbf] decides the QBF by running the
    exact engine on the reduction — must agree with {!Qbf.eval}. *)
val eval_via_certain : Qbf.t -> bool
