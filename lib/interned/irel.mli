(** Interned relations: sorted arrays of immutable [int array] rows.

    The integer-coded mirror of {!Vardi_relational.Relation}. Rows are
    kept strictly sorted under monomorphic lexicographic comparison, so
    the set operations are single-pass linear merges with one result
    allocation and membership is a binary search. Because constant
    codes are assigned in sorted-name order (see {!Symtab}), row order
    here coincides with string-tuple order on the other side of the
    boundary.

    Enumeration caps ({!full}, {!subsets}) and their error messages
    mirror the string side exactly, so the engine fails exactly as the
    string-keyed reference does — a property the differential fuzz
    oracle relies on. *)

type row = int array

type t

val max_enumeration : int

val compare_rows : row -> row -> int

val empty : int -> t
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

(** The sorted row array itself — do not mutate. *)
val rows : t -> row array

val of_rows : int -> row list -> t
val of_row_array : int -> row array -> t

(** [of_sorted k rows]: build from an array already strictly increasing
    in {!compare_rows}. Arities are checked, order is trusted, and the
    array is adopted without copying — the caller must not mutate it.
    For producers (like the compiled kernel) whose output order is
    guaranteed by construction. *)
val of_sorted : int -> row array -> t

val mem : row -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** [add_rows t rows] is [t] with [rows] merged in (batch union). *)
val add_rows : t -> row list -> t

val fold : (row -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (row -> unit) -> t -> unit
val exists : (row -> bool) -> t -> bool
val for_all : (row -> bool) -> t -> bool

(** [filter p t] keeps the rows [p] accepts, calling [p] once per row
    in order. When [p] drops no row it returns [t] itself and allocates
    nothing, as a survivor filter does on every structure that refutes
    no candidate. *)
val filter : (row -> bool) -> t -> t

(** [map k f t] applies [f] to every row; the results must have arity
    [k]. *)
val map : int -> (row -> row) -> t -> t

val project : int array -> t -> t
val product : t -> t -> t

(** [full ~domain k]: every [k]-tuple over the element codes in
    [domain] (ascending). Cap and error message mirror
    [Relation.full]. *)
val full : domain:int array -> int -> t

(** All subsets, in the same mask order as [Relation.subsets]; capped
    at 20 rows with the mirrored message. *)
val subsets : t -> t Seq.t

(** Boundary conversions — the only places codes become strings. *)
val to_relation : Symtab.t -> t -> Vardi_relational.Relation.t

val of_relation : Symtab.t -> Vardi_relational.Relation.t -> t

val pp : t Fmt.t
