(** Ablation benches for the design choices DESIGN.md calls out.

    A1 — the structures of Theorem 1: every respecting mapping (the
    literal statement) vs one renaming per kernel partition (the
    isomorphism reduction the engine relies on), both built and
    evaluated on strings, so only the enumeration differs.

    A2 — approximation back end: direct Tarskian evaluation vs
    compilation to relational algebra (the "standard DBMS" route).

    A3 — negated atoms: semantic [α_P] oracle (Theorem 14's
    polynomial-time check) vs the syntactic Lemma-10 subformula.

    A4 — countermodel search order: fresh-first vs merge-first kernel
    partition enumeration on the Theorem 5 reduction. *)

val a1 : unit -> Table.t
val a2 : unit -> Table.t
val a3 : unit -> Table.t
val a4 : unit -> Table.t
