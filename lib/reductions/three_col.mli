(** The Theorem 5 reduction: graph 3-colorability ≤ (complement of)
    Boolean query evaluation over CW logical databases, establishing
    co-NP-hardness of data complexity.

    Given [G = (V, E)], build [LB] over vocabulary
    [{R/2, M/1, c_v (v ∈ V), 1, 2, 3}] with facts [M(1), M(2), M(3)]
    and [R(c_u, c_v)] per edge, and uniqueness axioms [1≠2, 1≠3, 2≠3].
    With the fixed Boolean query
    [φ = (∀y M(y)) → (∃x R(x, x))],
    the paper shows: [G] is 3-colorable iff [LB ⊭f φ].

    Note [φ] is fixed — only the database grows with the graph — which
    is what makes this a {e data}-complexity lower bound. *)

(** [vertex_constant v] is the constant for vertex [v] ("v<v>"). *)
val vertex_constant : int -> string

(** The fixed query [(). (forall y. M(y)) -> exists x. R(x, x)]. *)
val query : Vardi_logic.Query.t

(** [database g] is the CW logical database encoding [g]. *)
val database : Graph.t -> Vardi_cwdb.Cw_database.t

(** [colorable_via_certain ?order g] decides 3-colorability
    by running the exact certain-answer engine on the reduction:
    3-colorable iff {e not} certain. [order = Merge_first] looks at
    heavily-merged kernel partitions first — on colorable graphs the
    countermodel (a proper coloring merges every vertex constant into a
    color class) is then found much earlier (ablation A4). *)
val colorable_via_certain :
  ?order:Vardi_certain.Engine.order ->
  Graph.t ->
  bool

(** [coloring_of_mapping g h] extracts a 3-coloring from a respecting
    mapping [h] that is a countermodel, mirroring the proof's
    construction; [None] if [h] maps some vertex constant outside
    [{1,2,3}] or the induced coloring is improper. *)
val coloring_of_mapping : Graph.t -> Vardi_cwdb.Mapping.t -> int array option
