(** Closed-world logical databases (paper, Section 2.2).

    A CW logical database [(L, T)] is determined by its {e atomic fact
    axioms} and {e uniqueness axioms}; the domain-closure axiom and the
    completion axioms are implied (paper: "In practice it suffices to
    specify the atomic fact axioms and the uniqueness axioms"). This
    module stores exactly those two components; {!Axioms} reconstructs
    the full five-component theory on demand.

    {b Representation.} The [n] constants are kept sorted, each with
    its {e rank} (its index in that order) in a name-to-rank hash table
    that is built once per constant set and never mutated, so databases
    and worker domains share it freely. The uniqueness axioms are one
    bit per unordered pair of ranks [i < j], row by row, plus a count
    of the set bits: n(n−1)/2 bits, 4 KB for a fully specified database
    of 256 constants, whose 32,640 axioms a set of string pairs would
    hold as 32,640 tree nodes. Facts are a balanced set ordered by
    predicate, then arguments.

    {b Costs} ([n] constants, [F] facts, [D] uniqueness axioms):
    - {!are_distinct}: two hash lookups and a bit test;
    - {!is_fully_specified}: O(1), a comparison of the pair count;
    - {!distinct_pairs}: O(n²) bit tests, in sorted order;
    - {!known_values}, {!unknown_values}: O(n²) row scans;
    - {!fully_specify}: an O(n²/8) fill;
    - {!add_distinct}: O(1) when the axiom is present, else an
      O(n²/8) copy of the matrix;
    - {!fact_count}, {!coding}: O(1);
    - {!facts_of}: O(log F) plus the predicate's facts;
    - {!mem_fact}, {!add_fact}, {!remove_fact}: O(log F);
    - {!make}, {!make_interned}: O(n log n + F log F + D);
    - {!merge_constants}: O(n² + F log F). *)

(** An atomic fact axiom [P(c1, ..., ck)]. *)
type fact = {
  pred : string;
  args : string list;  (** constant symbols *)
}

type t

(** [make ~vocabulary ~facts ~distinct] builds a CW database.

    Validation, per Section 2.2:
    - every fact predicate is declared in [vocabulary] with the right
      arity, and every fact argument is a constant of [vocabulary];
    - every [distinct] pair consists of two {e different} constants of
      [vocabulary] (an axiom [¬(c = c)] would make the theory
      inconsistent, and the paper assumes no equalities in [T]);
    - the vocabulary has at least one constant (the domain-closure
      axiom needs a nonempty disjunction).

    Pairs are stored unordered ([¬(ci=cj)] is identified with
    [¬(cj=ci)]); duplicates are dropped.

    @raise Invalid_argument when validation fails. *)
val make :
  vocabulary:Vardi_logic.Vocabulary.t ->
  facts:fact list ->
  distinct:(string * string) list ->
  t

(** [make_interned ~names ~predicates ~facts ~distinct] is {!make} for
    a loader that interns its constants: the vocabulary's constants are
    [names], each once, in any order, and [distinct f] calls [f a b]
    for each uniqueness axiom [¬(names.(a) = names.(b))]. Each constant
    is then hashed once however often the input mentions it.

    @raise Invalid_argument as {!make} does, on an arity clash in
    [predicates] (see {!Vardi_logic.Vocabulary.make}), on a name
    repeated in [names], and on an id out of range. *)
val make_interned :
  names:string array ->
  predicates:(string * int) list ->
  facts:fact list ->
  distinct:((int -> int -> unit) -> unit) ->
  t

val vocabulary : t -> Vardi_logic.Vocabulary.t

(** The constant set [C] of [L], sorted. *)
val constants : t -> string list

(** Atomic fact axioms, sorted. *)
val facts : t -> fact list

(** [fact_count db] is [List.length (facts db)], kept with the
    database. *)
val fact_count : t -> int

(** [facts_of db p] is the list of argument tuples of the atomic facts
    about predicate [p], sorted. It reads [p]'s range of the fact set
    only. *)
val facts_of : t -> string -> string list list

(** [mem_fact db f] holds when [f] is an atomic fact axiom of [db]. A
    fact that fails {!make}'s validation is never one, and is answered
    [false] rather than refused. *)
val mem_fact : t -> fact -> bool

(** Uniqueness axioms as sorted unordered pairs [(ci, cj)] with
    [ci < cj] (byte order, so ["B"] before ["a"] and ["a10"] before
    ["a9"]). *)
val distinct_pairs : t -> (string * string) list

(** [are_distinct db c d] holds when [¬(c = d)] is an axiom; it is
    [false] when [c = d] or either name is not a constant. *)
val are_distinct : t -> string -> string -> bool

(** A database is fully specified when every pair of distinct constants
    carries a uniqueness axiom (paper, Section 2.2). *)
val is_fully_specified : t -> bool

(** [fully_specify db] adds all missing uniqueness axioms. *)
val fully_specify : t -> t

(** Constants that are {e known values}: distinct from every other
    constant. The complement is the unknown-value set [U] of Section 5's
    virtual-NE representation. *)
val known_values : t -> string list

val unknown_values : t -> string list

(** [add_fact db fact] and [add_distinct db c d] extend the theory,
    with the same validation as {!make}. *)
val add_fact : t -> fact -> t

val add_distinct : t -> string -> string -> t

(** [remove_fact db fact] retracts an atomic fact axiom.

    @raise Invalid_argument if [fact] fails the {!make} validation or is
    not in the database (retracting an absent fact is almost always a
    caller bug, so it is loud rather than a no-op). *)
val remove_fact : t -> fact -> t

(** [merge_constants db ~keep ~drop] closes the unknown pair
    [(keep, drop)] to {e true}: every occurrence of [drop] in a fact or
    uniqueness axiom is rewritten to [keep], and [drop] leaves the
    vocabulary. This is the CW-database form of adding the equality
    [keep = drop] to the theory (the paper's theories contain no
    equalities, so the merge is performed syntactically).

    @raise Invalid_argument if either constant is undeclared, if
    [keep = drop], or if the pair carries a uniqueness axiom — then the
    equality would contradict [¬(keep = drop)] and the merged theory
    would be inconsistent. *)
val merge_constants : t -> keep:string -> drop:string -> t

(** Size of the database: number of facts plus uniqueness axioms plus
    constants — the data-complexity measure's input size. *)
val size : t -> int

(** {1 Rank coding}

    The constants by rank and the uniqueness axioms over ranks, without
    the facts: what an integer-coded evaluator needs to code constants
    and test axioms (see [Vardi_interned.Symtab]). A coding refers to
    the database's own sorted name array, rank table and bit matrix,
    which are never mutated once the database is returned, so taking
    one copies nothing, and holding one keeps no fact set alive. *)
module Coding : sig
  type t

  (** Number of constants; ranks are [0 .. size - 1]. *)
  val size : t -> int

  (** [name c r] is the constant of rank [r]. *)
  val name : t -> int -> string

  (** [rank c name] is [name]'s index among the sorted constants.
      @raise Not_found when [name] is not a constant. *)
  val rank : t -> string -> int

  val rank_opt : t -> string -> int option

  (** [distinct_from_any c i ranks] iff the constant of rank [i]
      carries a uniqueness axiom with the constant of some rank in
      [ranks]: one bit test per rank, [false] for [i] itself. *)
  val distinct_from_any : t -> int -> int list -> bool

  (** [same_constants a b] iff [a] and [b] rank the same constants. *)
  val same_constants : t -> t -> bool
end

(** [coding db] is [db]'s rank coding: O(1). *)
val coding : t -> Coding.t

val equal : t -> t -> bool
val pp : t Fmt.t
