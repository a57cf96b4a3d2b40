(** Exact evaluation of queries over CW logical databases, by
    Theorem 1:

    [c ∈ Q(LB)]  iff  [h(c) ∈ Q(h(Ph₁(LB)))] for every [h : C → C]
    that respects [T].

    Mappings with equal kernels give isomorphic images, so the engine
    quantifies over kernel partitions instead of mappings (see
    {!Vardi_cwdb.Partition}): at most Bell(|C|) structures where the
    literal statement has [|C|^|C|] mappings, with the uniqueness
    axioms pruning the enumeration tree. That is its only algorithm;
    the literal mapping enumeration survives as a reference outside the
    engine ([Vardi_fuzz.Reference], ablation A1).

    The scan is exponential in general — necessarily so, since Theorem
    5 shows the problem co-NP-complete — which is the paper's
    motivation for the {!Vardi_approx} approximation. The engine makes
    the exponential sweep as cheap as it can be:

    - {e Pruning}: {!answer} seeds its survivor set from the discrete
      structure's answer (the Ph₁ image) instead of the full [|C|^k]
      candidate relation — sound because the certain answer is
      contained in every structure's answer; {!possible_answer} seeds
      its found set the same way and stops as soon as it saturates.
    - {e Plan reuse}: per-query work (NNF, compilation to relational
      algebra via {!Vardi_relational.Compile.prepared}, optimization,
      interning and compilation to packed flat code via
      {!Vardi_interned.Icode}) runs once per query, outside the
      per-structure loop; each structure pays only plan evaluation.
    - {e One loop}: the scan is one sequential pass over the structure
      stream, in enumeration order, stopping at the first structure
      that decides the call.
    - {e One kernel}: the scan runs on integer codes throughout.
      Constants are interned once per call ({!Vardi_interned.Symtab}),
      quotient images are built incrementally along the
      partition-enumeration tree ({!Vardi_interned.Iscan}), and each
      structure's answer stays packed ({!Vardi_interned.Icode.answer})
      while the survivor filter probes it by binary search. Strings
      reappear only in the returned relation. The string-keyed
      brute-force evaluator the fuzz oracles diff against lives in
      [Vardi_fuzz.Reference], outside the engine.

    {2 Budgets}

    Every entry point takes [?cancel], a {!Cancel} token carrying a
    wall-clock deadline and structure/evaluation caps. Caps truncate
    the structure stream by position, so capped runs are
    deterministic; the deadline is checked cooperatively before each
    structure. When the budget trips before a decision, the call still
    returns promptly and normally, with {!stats.interrupted} naming the
    tripped dimension — the raw partial value is one-sided (see the
    field doc), and [Vardi_resilience.Resilient] is the layer that
    degrades it into an honestly-qualified answer.

    {2 Observability}

    Every entry point is instrumented with {!Vardi_obs.Obs}: a span per
    call ([certain.answer], [certain.boolean], ...), sub-spans for plan
    preparation ([certain.prepare]), the discrete-structure seed
    ([certain.seed]) and the structure scan ([certain.scan], one per
    call), plus counters [certain.structures], [certain.evaluations],
    [certain.pruned] and [certain.early_exit]; the scan span's
    structure and evaluation counts are emitted once, when it closes.
    [certain.interp_fallback] counts, once per compiled answer plan,
    the plans that did not compile to packed code (see
    {!Vardi_interned.Icode.compile_plan}) or have no relational plan
    at all. With no sink installed (the default) each instrumentation
    point costs one atomic load; the counters equal the corresponding
    {!stats} fields exactly — the test suite enforces this. *)

(** Deprecated: the name of the one algorithm, kernel partitions. No
    entry point takes an algorithm; the type survives only as the first
    argument of {!scan_source.source_thunks}, so that sources written
    against it keep compiling. *)
type algorithm = Kernel_partitions

(** Structure-visit order of the partition enumeration: [Fresh_first]
    visits the discrete partition first; [Merge_first] visits
    heavily-merged partitions first, which finds countermodels faster
    when they require merging many unknowns (ablation A4). Default:
    [Fresh_first]. *)
type order = Vardi_cwdb.Partition.order =
  | Fresh_first
  | Merge_first

(** Deprecated: the names of the evaluation kernels the engine used to
    select between. There is one scan path now — interned structures
    ({!Vardi_interned.Iscan}) evaluated by compiled flat code
    ({!Vardi_interned.Icode}) — and no entry point takes a kernel. The
    type survives only so that the [--kernel] CLI flag and the wire
    protocol's ["kernel"] field can keep parsing the three names as
    documented no-ops. *)
type kernel =
  | Strings
  | Interned
  | Compiled

(** Work counters for the complexity experiments and the CLI. *)
type stats = {
  structures : int;  (** quotient structures (partitions) examined *)
  evaluations : int;  (** query evaluations performed *)
  early_exit : bool;
    (** the scan was decided before exhausting the structure space: a
        countermodel refuted a universal, a witness settled an
        existential, the survivor set emptied, or the possible answer
        saturated. Deterministic — it depends only on the verdict. *)
  pruned_candidates : int;
    (** for {!answer_stats}: candidate tuples eliminated by the
        discrete-image seed without per-structure work ([|C|^k] minus
        the seed size, saturating); for {!possible_answer_stats}:
        candidates witnessed by the seed alone; [0] for the
        per-tuple/Boolean deciders *)
  wall_ns : int64;  (** wall-clock nanoseconds for the whole call *)
  interrupted : Cancel.reason option;
    (** [Some reason] when the [?cancel] budget tripped before the scan
        was decided — the returned value then reflects only the
        structures actually examined and {e must not} be read as the
        exact semantics: for the universal entry points
        ([certain_*], {!answer}) it is an over-approximation (nothing
        in the admitted prefix refuted it), for the existential ones
        ([possible_*]) an under-approximation. [None] means the result
        is exact, even if the token also tripped — a decision reached
        inside the admitted prefix is a decision. See {!Cancel} for the
        determinism contract and [Vardi_resilience.Resilient] for the
        layer that turns interrupted scans into qualified answers. *)
}

(** [certain_member ?order lb q c] decides
    [c ∈ Q(LB)], with early exit on the first countermodel.

    @raise Invalid_argument when [c]'s length differs from the query
    arity, when a member of [c] is not a constant of [LB], when the
    query mentions a predicate or constant outside the vocabulary of
    [LB], or when the query head is empty (use {!certain_boolean}). *)
val certain_member :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  string list ->
  bool

val certain_member_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  string list ->
  bool * stats

(** [certain_boolean ?order lb q] decides
    [T ⊨f φ] for a Boolean query [(). φ] — [LAS(Q)] membership for
    Boolean queries.
    @raise Invalid_argument if the query is not Boolean or mentions
    symbols outside the vocabulary. *)
val certain_boolean :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool

val certain_boolean_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool * stats

(** [answer ?order lb q] is the full certain answer
    [Q(LB)], a relation over the constant set [C]. The survivor set is
    seeded from the discrete structure's answer (never the full [C^k]
    relation) and each further structure pays one evaluation of the
    pre-compiled plan; the scan stops once the survivor set empties. *)
val answer :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

val answer_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t * stats

(** {1 The dual modality}

    A tuple is a {e possible} answer when {e some} respecting mapping
    admits it: [possible_member lb q c] iff
    [∃h. h(c) ∈ Q(h(Ph₁(LB)))]. For Boolean queries,
    [possible φ ⟺ ¬ certain (¬φ)]. Not studied by the paper directly
    but implicit in its model-theoretic semantics; exposed because the
    3-colorability reduction (Theorem 5) naturally asks a possibility
    question. *)

val possible_member :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  string list ->
  bool

val possible_member_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  string list ->
  bool * stats

val possible_boolean :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool

val possible_boolean_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool * stats

(** [possible_answer ?order lb q] is the union over
    all structures of the admitted tuples. The candidate relation is
    materialized once (guarded by {!Vardi_relational.Relation.full}'s
    enumeration cap), the found set is seeded from the discrete
    structure, and the scan stops as soon as every candidate is
    found. *)
val possible_answer :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

val possible_answer_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t * stats

(** [validate lb q] performs the vocabulary/arity checks shared by all
    entry points.
    @raise Invalid_argument on failure. *)
val validate : Vardi_cwdb.Cw_database.t -> Vardi_logic.Query.t -> unit

(** {1 Prepared queries}

    The entry points above redo per-(database, query) work on every
    call: validation, interning the database ({!Vardi_interned.Iscan}),
    NNF, compilation to relational algebra and the optimizer pass. A
    {!prepared} pays all of that once, up front, and can then be
    evaluated any number of times — the contract behind the serve
    layer's plan cache ([Vardi_serve.Plan_cache]). Every piece inside a
    prepared query is immutable, so a single value may be evaluated
    concurrently from any number of domains. *)

(** A query prepared against a specific database. *)
type prepared

(** [prepare lb q] validates [q] against [lb] and performs all
    per-query compilation under one [certain.prepare] span. For
    relational queries the image-answer plan is compiled eagerly; for
    Boolean queries there is no plan to compile (the deciders evaluate
    the body directly).
    @raise Invalid_argument as {!validate}. *)
val prepare : Vardi_cwdb.Cw_database.t -> Vardi_logic.Query.t -> prepared

(** {1 Pluggable structure sources}

    An interned scan only needs three things from its plan: the symtab,
    the structure stream per order, and the discrete seed.
    A {!scan_source} bundles them, so a caller that {e owns} structures
    across calls — the incremental session ([Vardi_incr.Session]) with
    its partition-tree cache — can substitute cached structures for
    stream positions while the engine's scan loop, budget and stats
    machinery stays oblivious.

    Contract: [source_thunks Kernel_partitions ord] must yield, at
    every position, the same renaming that [Iscan.structure_thunks
    ~order:ord] over [source_plan] would yield there — that is what
    keeps positional budget caps and stats identical between a cached
    and a fresh scan (see {!Vardi_interned.Iscan.renamings}). Its first
    argument is always [Kernel_partitions] (see {!algorithm}). A
    structure's quotient ([idb]) may be deferred: the engine forces it
    only where it evaluates, so a wrapper that answers from the
    renaming alone never builds it. *)
type scan_source = {
  source_plan : Vardi_interned.Iscan.plan;
  source_thunks :
    algorithm -> order -> (unit -> Vardi_interned.Iscan.structure) Seq.t;
  source_discrete : unit -> Vardi_interned.Iscan.structure;
}

(** The trivial source: fresh structures from the plan's own streams —
    exactly what the unprepared entry points use internally. *)
val source_of_plan : Vardi_interned.Iscan.plan -> scan_source

(** [prepare_with ~source ?wrap_answer ?wrap_check lb q] is {!prepare}
    with the structure stream taken from [source] instead of a fresh
    [Iscan.prepare]. [wrap_answer] wraps the compiled per-structure
    image-answer function (a session's per-query result memo, which
    stores the {!Vardi_interned.Icode.answer} as computed — packed
    keys, not unpacked rows); [wrap_check] likewise wraps the Boolean
    per-structure check used by {!prepared_certain_boolean_stats}. Wrappers
    see the same structures at the same stream positions as the
    unwrapped scan, so memo hits change no stats and move no budget
    caps; a hit that does not call the wrapped function leaves the
    structure's quotient unbuilt.
    @raise Invalid_argument as {!validate}. *)
val prepare_with :
  source:scan_source ->
  ?wrap_answer:
    ((Vardi_interned.Iscan.structure -> Vardi_interned.Icode.answer) ->
    Vardi_interned.Iscan.structure ->
    Vardi_interned.Icode.answer) ->
  ?wrap_check:
    ((Vardi_interned.Iscan.structure -> bool) ->
    Vardi_interned.Iscan.structure ->
    bool) ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  prepared

val prepared_db : prepared -> Vardi_cwdb.Cw_database.t
val prepared_query : prepared -> Vardi_logic.Query.t

(** [prepared_answer_stats p] is {!answer_stats} evaluated through the
    prepared plan — same results, same stats, same spans, minus the
    per-call preparation cost. *)
val prepared_answer_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  prepared ->
  Vardi_relational.Relation.t * stats

(** [prepared_certain_boolean_stats p] is {!certain_boolean_stats}
    through the prepared plan.
    @raise Invalid_argument if the prepared query is not Boolean. *)
val prepared_certain_boolean_stats :
  ?order:order ->
  ?cancel:Cancel.t ->
  prepared ->
  bool * stats
