(** Per-scan constant interning.

    A symtab is built once per certain-answer scan from the CW database
    and maps every constant of [C] to a dense code — its rank, the
    index in the sorted constant list, so code order coincides with
    name order and interned relations sort identically to their string
    counterparts. Constants and uniqueness axioms are read through the
    database's own rank coding ({!Vardi_cwdb.Cw_database.Coding}: its
    rank table and rank-indexed bit matrix), which {!make} neither
    copies nor rebuilds; predicates become dense relation slots in
    vocabulary order.

    The table is immutable after {!make}. Its codes hold for every
    database with the same constants and vocabulary ({!same_coding}) —
    an incremental session keeps them across fact deltas and new
    uniqueness axioms — and for no other. *)

type t

(** [make db] interns the predicate schema of [db] and takes its rank
    coding. Codes follow [Cw_database.constants db] (sorted); slots
    follow [Vocabulary.predicates] (sorted). O(p) for [p] predicates:
    nothing per constant or per axiom. The symtab holds no reference to
    [db] itself, so keeping it keeps none of [db]'s facts alive. *)
val make : Vardi_cwdb.Cw_database.t -> t

(** Number of constants (codes are [0 .. size - 1]). *)
val size : t -> int

val name : t -> int -> string
val code : t -> string -> int

(** [None] when the string is not a constant of the database. *)
val code_opt : t -> string -> int option

(** The database's rank coding, whose ranks are this symtab's codes:
    the uniqueness axioms over codes are
    [Cw_database.Coding.distinct_from_any (coding t)]. *)
val coding : t -> Vardi_cwdb.Cw_database.Coding.t

val rel_count : t -> int
val rel_name : t -> int -> string
val rel_arity : t -> int -> int
val rel_slot : t -> string -> int option

(** [same_coding a b] iff [a] and [b] give every constant the same
    code and every predicate the same slot and arity — they may differ
    only in their uniqueness axioms. *)
val same_coding : t -> t -> bool

(** Boundary conversions between string tuples and code rows. *)
val code_tuple : t -> string list -> int array

val name_tuple : t -> int array -> string list
