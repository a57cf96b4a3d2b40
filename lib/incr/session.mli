(** Incremental evaluation sessions: a resident CW database that keeps
    the engine's heavy state — the {!Vardi_interned.Symtab},
    the {!Vardi_interned.Iscan} partition-tree quotients, and
    per-structure evaluation results — alive across queries and
    mutations, so a query after a small delta pays only for what the
    delta touched instead of rescanning the world.

    {2 The invalidation story}

    A session owns a current {e view}: the database, its interned plan,
    and three kinds of epoch counters.

    - {e Slot epochs}, one per relation slot. [insert]/[retract] bump
      only the mutated predicate's slot. The quotient-structure cache
      tags every cached relation slot with the epoch it was built at,
      so a later scan reuses the untouched slots of each cached
      structure and re-derives exactly the mutated ones
      ({!Vardi_interned.Iscan.image_slot}).
    - The {e tab epoch}, bumped only when the constant coding itself
      changes — today that is [close_unknown ~to_:`Equal] (a constant
      merge). A tab-epoch bump orphans the whole structure cache and
      every memo entry, because code arrays from different codings are
      not comparable. Closing a pair to {e distinct} changes neither
      codes nor facts: the partition enumeration shrinks, but every
      cached structure and memo entry stays valid.
    - The {e delta epoch}, bumped on every successful mutation. It
      never invalidates anything inside the session; it is the cheap
      fingerprint outer caches key on (the serve layer's plan cache
      re-binds a prepared query when it observes a new delta epoch —
      re-binding is cheap precisely because the session retains the
      heavy state).

    Per-query memos are finer than the delta epoch. Each query has one
    memo, from a structure's renaming to its result, and the memo holds
    one {e dependency signature} — the tab epoch plus the slot epochs
    of the predicates the query actually mentions
    ({!Vardi_logic.Formula.free_preds}) — that every entry in it was
    computed at. A delta on a predicate the query never reads leaves
    its signature unchanged, so re-running the query after such a
    delta hits the memo for every structure. A {!prepare} at a new
    signature empties the memo and claims it; a query prepared before
    that neither reads nor writes it (it evaluates every structure),
    so it never sees a newer view's results and, kept in an outer plan
    cache, keeps no stale entries alive.

    {2 Engine integration}

    {!prepare} returns an ordinary {!Vardi_certain.Engine.prepared}
    built with [Certain.prepare_with]: the structure stream comes from
    the session's cache via {!Vardi_interned.Iscan.renamings} (same
    renaming at every stream position as a fresh scan, so positional
    budget caps trip identically incremental-vs-fresh, and memo hits
    still charge the [structures]/[evaluations] stats), and the
    per-structure answer/check functions are wrapped with the memo.
    The scan is memo first: the stream hands out each renaming with its
    quotient deferred ({!Vardi_interned.Iscan.structure}), the memo is
    asked first, and only a miss builds the quotient, from the
    structure cache. A warm re-scan builds no structure.
    The prepared value captures one immutable view: mutations swap the
    session's current view and never disturb in-flight scans.

    All operations are thread-safe; mutations serialize against each
    other and against cache maintenance, while scans only touch the
    locks briefly per structure. *)

type t

(** [create db] starts a session resident on [db].
    [cache_capacity] bounds the quotient-structure cache, each
    per-query memo, the number of queries tracked and each
    materialized renaming stream (entries, not bytes; default [4096]);
    beyond the bound existing entries are still served but new ones
    are not added. A renaming stream longer than the bound is
    recorded once per symtab and order as a negative entry (counted
    as [incr.renamings_uncached]); every later scan of it streams the
    renamings afresh, without forcing [capacity + 1] of them first.
    [delta_epoch] (default [0]) is the epoch the session starts
    at — crash recovery passes the snapshot's recorded epoch so that
    after replaying the log tail the recovered session reports the same
    delta epoch the lost process would have (outer plan caches key on
    it). *)
val create :
  ?cache_capacity:int -> ?delta_epoch:int -> Vardi_cwdb.Cw_database.t -> t

(** The current database (the latest view's). *)
val db : t -> Vardi_cwdb.Cw_database.t

(** The current delta epoch: [0] at {!create}, bumped by every
    successful mutation. Outer caches key on this. *)
val delta_epoch : t -> int

(** [insert t fact] adds an atomic fact axiom. Inserting a fact already
    present is a no-op (no epoch bump — caches stay warm). The view's
    interned plan is patched with the one fact
    ({!Vardi_interned.Iscan.add_fact}), not rebuilt: the cost is
    O(log F) in the database's [F] facts plus O(n + s + p) for [n]
    constants, [s] predicates and the [p] facts of [fact]'s predicate.
    The database validates the fact before the plan is touched.
    @raise Invalid_argument on vocabulary/arity violations, as
    {!Vardi_cwdb.Cw_database.add_fact}. *)
val insert : t -> Vardi_cwdb.Cw_database.fact -> unit

(** [retract t fact] removes an atomic fact axiom, at the cost of
    {!insert} ({!Vardi_interned.Iscan.remove_fact}).
    @raise Invalid_argument if the fact is absent or invalid, as
    {!Vardi_cwdb.Cw_database.remove_fact}. *)
val retract : t -> Vardi_cwdb.Cw_database.fact -> unit

(** [close_unknown t c d ~to_] closes the unknown pair [(c, d)]:
    [`Distinct] adds the uniqueness axiom [¬(c = d)] (a no-op when
    already present); [`Equal] merges [d] into [c]
    ({!Vardi_cwdb.Cw_database.merge_constants} — [c] survives). A merge
    changes the constant coding, so it is the one mutation that resets
    the structure cache and memos, and re-interns every fact. A
    distinct close rebuilds only the symtab
    ({!Vardi_interned.Iscan.with_axioms}).
    @raise Invalid_argument as the underlying database operations. *)
val close_unknown :
  t -> string -> string -> to_:[ `Distinct | `Equal ] -> unit

(** Mutations as first-class data: what the durable layer's write-ahead
    log records and startup recovery replays. [Close] with
    [equal = false] is [close_unknown ~to_:`Distinct]; with
    [equal = true] it is the merge ([left] survives, [right] drops). *)
type mutation =
  | Insert of Vardi_cwdb.Cw_database.fact
  | Retract of Vardi_cwdb.Cw_database.fact
  | Close of { left : string; right : string; equal : bool }

(** [apply t m] applies one mutation through {!insert} / {!retract} /
    {!close_unknown} and reports whether the delta epoch moved ([false]
    = the mutation was a no-op, e.g. inserting a present fact). The
    epoch comparison samples before and after, so the verdict is only
    meaningful when mutations on [t] are externally serialized (the
    durable layer holds its commit lock across the call).
    @raise Invalid_argument as the underlying operation. *)
val apply : t -> mutation -> bool

(** [prepare t q] prepares [q] against the session's current view.
    The result is a standard engine {!Vardi_certain.Engine.prepared} —
    evaluate it through [Certain.prepared_*_stats] or
    [Vardi_resilience.Resilient.prepared_*]. It captures the view at
    call time; after a mutation, call [prepare] again (the heavy state
    persists in the session, so re-preparing costs one query
    compilation, not a rescan). Under the same lock as the view is
    read, it claims [q]'s memo for the view's signature, emptying the
    memo when the signature moved. The memo stores each structure's
    {!Vardi_interned.Icode.answer} as the compiled kernel produced it
    (packed keys, not unpacked rows).

    [?kernel] is deprecated and ignored: there is one kernel. It stays
    in the signature only for callers that still pass it.
    @raise Invalid_argument as [Certain.prepare]. *)
val prepare :
  ?kernel:Vardi_certain.Engine.kernel ->
  t ->
  Vardi_logic.Query.t ->
  Vardi_certain.Engine.prepared

(** Cumulative session counters (monotonic except where noted). *)
type stats = {
  s_delta_epoch : int;  (** current delta epoch *)
  s_tab_epoch : int;  (** current tab epoch (merges so far) *)
  s_memo_hits : int;
      (** per-structure evaluations answered from the memo *)
  s_memo_misses : int;  (** per-structure evaluations actually run *)
  s_slot_reuses : int;
      (** cached relation slots served without rebuilding; counted
          only when a memo miss builds a structure *)
  s_slot_rebuilds : int;
      (** relation slots re-derived because their epoch moved (on
          memo misses, like [s_slot_reuses]) *)
  s_structures_cached : int;
      (** quotient structures currently in the cache (not monotonic) *)
  s_queries_tracked : int;
      (** distinct queries with a live memo table (not monotonic) *)
}

val stats : t -> stats
