(** Resilient evaluation: exact while the budget lasts, honest
    degradation when it does not.

    Theorem 5 makes exact certain-answer evaluation co-NP-complete, so
    an engine serving real traffic will meet inputs it cannot finish.
    This layer runs the exact {!Vardi_certain.Engine} scan under a
    {!Budget} and, when the budget trips or the scan dies (an injected
    or real fault), degrades per {!policy} instead of hanging or
    crashing. The principled fallback is the paper's own Section 5
    approximation — sound always (Theorem 11), complete on fully
    specified databases and positive queries (Theorems 12/13).

    {2 The qualified-answer lattice}

    Every result says exactly how much it claims:

    {v
            Upper_bound a      a ⊇ Q(LB)   (unrefuted survivors of the
                 |                          interrupted exact scan)
             Exact a           a = Q(LB)
                 |
            Lower_bound a      a ⊆ Q(LB)   (Theorem-11 approximation)

            Exhausted          no claim    (Fail policy)
    v}

    For Boolean queries the same lattice reads pointwise on the
    verdict: [Lower_bound true] entails the sentence is certain (the
    approximation is sound), [Upper_bound true] only means no
    countermodel was met before the budget tripped, and
    [Lower_bound false] / [Upper_bound false] decide nothing beyond
    their bound.

    The fuzz oracles ([resilient-*] in [Vardi_fuzz.Oracle]) enforce the
    lattice differentially: on every generated instance,
    [Lower_bound a] implies [a ⊆ Q(LB)], [Upper_bound a] implies
    [Q(LB) ⊆ a], [Exact a] implies equality — with and without
    injected faults. *)

type policy =
  | Fail
      (** exhaustion is an error: return {!Exhausted} (the CLI maps it
          to exit code 124); a scan exception propagates *)
  | Partial
      (** on budget exhaustion return the interrupted scan's survivor
          set as {!Upper_bound}; on a scan failure there is no partial
          scan to report, so fall back like [Approx] *)
  | Approx
      (** fall back to the Theorem-11 approximation: {!Lower_bound},
          sound unconditionally *)

type 'a qualified =
  | Exact of 'a  (** the budget sufficed; this is [Q(LB)] *)
  | Lower_bound of 'a  (** sound under-approximation: [⊆ Q(LB)] *)
  | Upper_bound of 'a  (** unrefuted over-approximation: [⊇ Q(LB)] *)
  | Exhausted  (** budget tripped under [Fail]; no claim *)

(** Which computation produced the returned value. *)
type source =
  | Exact_scan  (** the exact engine finished within budget *)
  | Partial_scan  (** the interrupted exact scan's survivors *)
  | Approx_fallback  (** the Section 5 approximation *)
  | No_answer  (** nothing was returned ({!Exhausted}) *)

(** Honest provenance for every call — the stats never claim more than
    the result delivers: [source = Exact_scan] iff the result is
    {!Exact}, [tripped]/[scan_failure] record why degradation happened,
    and [scan] keeps the engine's own counters (structures visited
    before the abort included). *)
type stats = {
  source : source;
  tripped : Vardi_certain.Cancel.reason option;
      (** budget dimension that tripped, if one did *)
  scan_failure : string option;
      (** printed exception when the exact scan died (e.g. an injected
          scan fault) instead of tripping *)
  scan : Vardi_certain.Engine.stats option;
      (** the exact scan's counters — present whenever the scan
          returned, complete or interrupted; [None] when it raised *)
  wall_ns : int64;  (** wall clock for the whole resilient call *)
}

(** [answer ~budget lb q] evaluates the certain answer [Q(LB)] under
    [budget] and degrades per [policy] (default [Fail]).

    [?order] is passed to the exact engine.
    Emits a [resilience.answer] span and, when degradation happens,
    [resilience.budget_trip] / [resilience.scan_failure] /
    [resilience.fallback] counters.

    @raise Invalid_argument when the query mentions symbols outside the
    vocabulary (validated {e before} the scan, so user errors are never
    swallowed by degradation).
    Under [policy = Fail] a scan exception (injected fault, real bug)
    propagates; [Partial] and [Approx] degrade it to the approximation
    fallback. *)
val answer :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?budget:Budget.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t qualified

val answer_stats :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?budget:Budget.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t qualified * stats

(** [boolean ~budget lb q] — the same contract for a Boolean query.
    @raise Invalid_argument when [q] has answer variables. *)
val boolean :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?budget:Budget.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool qualified

val boolean_stats :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?budget:Budget.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool qualified * stats

(** [prepared_answer_stats p] is {!answer_stats} evaluated through a
    {!Vardi_certain.Engine.prepared} query — per-query compilation was
    paid once at prepare time (the serve layer's plan-cache path). The
    approximation fallback recompiles from the stored database and
    query, which only happens on degradation paths.

    [?domains] is deprecated and ignored — the exact scan is one
    sequential loop. It survives on the two prepared entry points only
    so that existing callers keep compiling; pass nothing. *)
val prepared_answer_stats :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?domains:int ->
  ?budget:Budget.t ->
  Vardi_certain.Engine.prepared ->
  Vardi_relational.Relation.t qualified * stats

(** [prepared_boolean_stats p] is {!boolean_stats} through a prepared
    query.
    @raise Invalid_argument if the prepared query is not Boolean. *)
val prepared_boolean_stats :
  ?policy:policy ->
  ?order:Vardi_certain.Engine.order ->
  ?domains:int ->
  ?budget:Budget.t ->
  Vardi_certain.Engine.prepared ->
  bool qualified * stats

val pp_qualified :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a qualified -> unit

val source_to_string : source -> string
val pp_stats : Format.formatter -> stats -> unit
