(** The interned structure stream: Theorem 1's scan over
    uniqueness-respecting renamings, evaluated entirely on codes.

    {!prepare} interns the database once; {!structure_thunks} then
    yields the kernel-partition stream in {e exactly} the order of
    [Partition.all_valid] — same restricted-growth branch order, same
    [Fresh_first]/[Merge_first] choice points — so a positional budget
    cap truncates the scan at the same structure as the partition
    enumeration itself. Unlike the brute-force string reference, which
    rebuilds every quotient from scratch through [Partition.quotient]
    or [Mapping.image_db], the interned stream is incremental: a tree node
    extends its parent by assigning one constant, copying only the
    relation slots touched by the facts that become final at that
    depth and sharing everything else ({e copy-on-extend}).

    The stream defers the expensive per-structure work (the leaf
    extension and its relations) into the returned thunks: forcing the
    sequence only enumerates. A consumer that looks one position past a
    budget cap, or serves a position from its own cache, never builds
    that structure. {!renamings} is the same enumeration carrying no
    relations. *)

(** One structure of the stream: a renaming and its quotient. [idb] is
    deferred so that a consumer holding the answer for [rename]
    already, such as an incremental session's memo, never builds the
    quotient. Every structure this module returns carries it built
    ([Lazy.from_val], which allocates nothing for a record), so a
    thunk of {!structure_thunks} still does the build when called;
    a session's stream fills it on first force, from its structure
    cache. Evaluators force it. *)
type structure = {
  idb : Idb.t Lazy.t;
  rename : int array;  (** constant code -> representative code *)
}

type plan

(** Intern the database: build the symtab, code every fact, and bucket
    facts by the depth at which they become final. O(n + F log F) for
    [n] constants and [F] facts. *)
val prepare : Vardi_cwdb.Cw_database.t -> plan

(** {1 Fact deltas}

    A fact changes neither the constants nor the uniqueness axioms, so
    the symtab, and every renaming stream of the plan, outlive it.
    [add_fact plan f] and [remove_fact plan f] code the one fact with
    [plan]'s symtab and return a plan equal, in every structure it
    builds, to {!prepare} of the database with [f] added or removed.
    The new plan differs from [plan] in two places only: the fact's
    relation slot and the bucket of the depth at which it becomes
    final (for a nullary fact, its root relation); every other slot
    and bucket is shared. [plan] itself is never mutated, so a scan
    still running over it is undisturbed.

    Cost: O(n + s + p) for [n] constants, [s] relation slots and [p]
    facts of [f]'s predicate — no other fact is coded again.

    [add_fact] returns [plan] itself when [f] is already in it;
    [remove_fact] raises [Invalid_argument] when [f] is not. Both raise
    [Invalid_argument] on a fact the symtab cannot code (undeclared
    predicate, wrong arity, unknown constant). *)

val add_fact : plan -> Vardi_cwdb.Cw_database.fact -> plan
val remove_fact : plan -> Vardi_cwdb.Cw_database.fact -> plan

(** {1 Axiom deltas}

    A uniqueness axiom changes neither the constants nor the
    vocabulary, so every code, slot and coded fact outlives it; only
    the renamings do, and they read the uniqueness bit matrix through
    the symtab. [with_axioms plan db] is [plan] with its symtab rebuilt
    from [db]:
    equal, in every structure it builds, to {!prepare} [db] when [db]
    holds [plan]'s facts (they are not compared). Every fact slot,
    depth bucket and root relation is shared with [plan], which is
    left as it was.

    Cost: one [Symtab.make] — O(p) for [p] predicates, nothing per
    constant or axiom ([db]'s bit matrix is read in place); no fact is
    coded again.

    @raise Invalid_argument when [db]'s constants or vocabulary differ
    from [plan]'s (a merge re-codes constants: use {!prepare}). *)
val with_axioms : plan -> Vardi_cwdb.Cw_database.t -> plan

val symtab : plan -> Symtab.t

(** The discrete structure (identity renaming — Ph₁ itself). *)
val discrete : plan -> structure

(** The kernel-partition stream in [Partition.all_valid]'s order for
    [order] (default [Fresh_first]). *)
val structure_thunks :
  ?order:Vardi_cwdb.Partition.order -> plan -> (unit -> structure) Seq.t

(** {1 The renaming stream}

    {!structure_thunks} with image construction stripped out: the same
    recursion, choice points and uniqueness filter (one implementation
    serves both), yielding only the representative arrays. Position [i]
    of [renamings] names the same renaming as position [i] of
    [structure_thunks] — the contract that lets an incremental session
    substitute cached structures for stream positions without moving
    positional budget caps. *)

val renamings : ?order:Vardi_cwdb.Partition.order -> plan -> int array Seq.t

(** [universe plan map] is the sorted set of codes the completed
    renaming [map] maps onto: the universe of [image plan map]. *)
val universe : plan -> int array -> int array

(** [image plan map] builds the whole quotient structure under the
    completed renaming [map]; equal (as interned structures) to the
    structure {!structure_thunks} produces for the same renaming. *)
val image : plan -> int array -> structure

(** [image_slot plan map slot] rebuilds a single relation slot of
    [image plan map] — the incremental session's per-slot cache
    refresh, so a delta on one predicate re-derives only that
    predicate's rows. *)
val image_slot : plan -> int array -> int -> Irel.t
