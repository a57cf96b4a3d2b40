(** Theorem-level oracles for differential fuzzing.

    Each oracle states a property the paper proves (or the
    implementation documents) and checks it by running the same
    [(LB, Q)] instance through independent code paths:

    - [exact-merge-first]: the exact certain-answer engine agrees with
      itself across structure orders;
    - [kernel-parity]: the engine agrees with the brute-force string
      evaluator {!Reference} on [answer]/[certain_boolean] and
      [possible_answer]/[possible_boolean], under both structure
      orders, against both of the reference's enumerations (kernel
      partitions, and Theorem 1's literal mapping enumeration);
    - [approx-sound]: Theorem 11, [A(Q, LB) ⊆ Q(LB)];
    - [approx-complete]: Theorems 12/13 — equality whenever
      {!Vardi_approx.Evaluate.completeness} says a completeness
      theorem applies;
    - [approx-backend-algebra], [approx-backend-optimized]: the
      Tarskian, algebra and optimized-algebra backends agree, on
      answers and on sentences. The optimized backend runs the
      optimizer's fused joins and bounds virtual atoms in
      {!Vardi_relational.Algebra.run}, so this is the oracle for both
      over every instance's [Q̂];
    - [approx-explicit-ph2]: the approximation equals [Q̂] evaluated by
      {!Vardi_relational.Eval} over the paper-literal
      {!Vardi_cwdb.Ph.ph2}, whose [NE] relation is materialized, with
      only the [alpha$P] hooks. The backends all read [NE] in place, so
      this is the oracle that catches a wrong [NE];
    - [naive-tables-positive]: on positive queries the naive-tables
      baseline equals the certain answer (Imielinski–Lipski);
    - [certain-subset-possible], [possible-duality]: modal sanity —
      certain ⊆ possible, and for sentences
      [possible φ ⟺ ¬certain(¬φ)];
    - [member-consistency]: [certain_member] agrees pointwise with the
      materialized {!Vardi_certain.Engine.answer};
    - [resilient-qualified]: the {!Vardi_resilience.Resilient}
      qualified-answer lattice — under every policy and a
      one-structure budget, [Lower_bound a ⊆ Q(LB) ⊆ Upper_bound a]
      and [Exact a = Q(LB)], against the raw engine's exact answer;
    - [resilient-stats-honest]: resilience stats never claim more than
      the result delivers ([source] matches the constructor, every
      degradation records its cause, [Exact] records none);
    - [resilient-fault-safety] (only with [faults_seed]): under an
      armed {!Vardi_resilience.Faults} plan, no injected exception
      escapes a degrading policy, the lattice bounds still hold, and a
      raising Obs sink is caught, counted and disabled without
      changing the engine's verdict;
    - [crash-recovery] (only with [faults_seed]): a random mutation
      script runs against a {!Vardi_durable.Store} (sync [Always],
      checkpoint every 4 records) with fault injection armed; the
      process is "killed" at whichever durability fault point fires
      ([wal.append], [wal.append.short], [wal.fsync], [snapshot.write],
      [snapshot.write.short]) and the directory recovered. The
      recovered session must equal — database, delta epoch and query
      answers — a fresh session that applied exactly the durable
      prefix determined by the crash point (append crashes lose the
      in-flight mutation, fsync/snapshot crashes keep it), and a
      second recovery pass must land on the same state;
    - [incremental-parity]: a {!Vardi_incr.Session} driven through a
      random mutation script answers as {!Reference} does on the
      mutated database after every step, and under a one-structure
      budget its prepared queries trip at the same stream position,
      with the same provenance, as freshly prepared ones; a query
      prepared at the previous step, scanned after the mutation and
      the new prepares, still answers as {!Reference} does on the
      previous database;
    - [query-roundtrip], [ldb-roundtrip]: pretty-printed queries and
      databases reparse to equal values;
    - [ldb-parse-parity]: the printed database, reformatted the ways a
      hand-edited file differs from printed output (tabs and runs of
      blanks, indentation, trailing and whole-line comments, blank and
      repeated lines, shuffled lines, CRLF endings, no final newline),
      is read alike by {!Vardi_format.Ldb_format.parse} and the
      reference parser {!Reference.ldb_parse}, and both read back the
      database (see {!Noise.ldb_parse_parity});
    - typed lane: [typed-approx-sound], [typed-query-roundtrip],
      [tldb-roundtrip] — the same properties through the
      {!Vardi_typed} elaboration.

    An engine exception on a well-formed instance is reported as a
    violation of the oracle whose check raised it (crash oracle), so
    the driver never dies mid-stream.

    The reference paths with exponential enumeration (the reference's
    mapping enumeration, the [member-consistency] tuple sweep) are
    skipped when their search space exceeds a small internal budget;
    the engine's own paths are always checked. *)

type violation = {
  oracle : string;  (** oracle identifier, one of {!oracle_ids} *)
  detail : string;  (** human-readable discrepancy description *)
}

val pp_violation : violation Fmt.t

(** All oracle identifiers that can appear in {!violation.oracle}. *)
val oracle_ids : string list

(** [check ?faults_seed db q] runs every applicable oracle and returns
    the violations, in check order (empty means the instance passed).
    [faults_seed] additionally runs the
    [resilient-fault-safety] and [crash-recovery] oracles under fault
    plans armed with that seed — omitted by default because injection
    perturbs timing, not correctness. Emits a [fuzz.oracle] span and
    [fuzz.checks] / [fuzz.violations] counters. *)
val check :
  ?faults_seed:int ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  violation list

(** [check_typed tdb tq] runs the typed-lane oracles. *)
val check_typed :
  Vardi_typed.Ty_database.t -> Vardi_typed.Ty_query.t -> violation list
