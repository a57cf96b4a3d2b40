(** Public facade for the logical-database library — everything a user
    needs to build, query, and experiment with Reiter/Vardi closed-world
    logical databases.

    The layering mirrors the paper:
    - {!Term} / {!Vocabulary} / {!Formula} / {!Query} / {!Parser} /
      {!Pretty} — first- and second-order logic over relational
      vocabularies (Section 2.1);
    - {!Tuple} / {!Relation} / {!Database} / {!Eval} / {!Algebra} /
      {!Compile} — physical databases and their query processors
      (Sections 2.1, 5);
    - {!Cw_database} / {!Axioms} / {!Ph} / {!Mapping} / {!Partition} /
      {!Ne_virtual} — CW logical databases (Sections 2.2, 3.1, 5);
    - {!Certain} — exact certain-answer evaluation via Theorem 1, on
      one integer-coded kernel: {!Symtab} / {!Irel} / {!Iscan} build
      the quotient structures and {!Icode} evaluates them as packed
      flat code ({!Iplan} is its interpreter fallback; {!Ieval} is the
      interpreter the compiler is tested against). The string-keyed
      brute-force evaluator {!Fuzz_reference} is the oracles'
      reference;
    - {!Approx} / {!Translate} / {!Alpha} / {!Disagree} /
      {!Precise_simulation} — the Section 3.2 precise simulation and
      the Section 5 approximation algorithm;
    - {!Graph} / {!Qbf} / {!Three_col} / {!Qbf_fo} / {!Qbf_so} — the
      hardness reductions of Theorems 5, 7 and 9;
    - {!Obs} — structured tracing and metrics across all engines
      (spans, per-domain counters, console/JSON-lines sinks);
    - {!Incr_session} — incremental evaluation: a resident database
      with insert/retract/close-unknown mutations that persists the
      symtab, the partition-tree quotients, and per-structure
      evaluation results across queries, invalidating only what a
      delta touches;
    - {!Wal} / {!Snapshot} / {!Recovery} / {!Durable_store} —
      durability: a per-database write-ahead log with CRC'd records,
      atomically-renamed snapshots, and startup recovery that replays
      the log tail through an {!Incr_session};
    - {!Serve} / {!Serve_client} / {!Serve_protocol} / {!Plan_cache} /
      {!Serve_pool} — the [ldb serve] daemon: resident databases, a
      shared worker-domain pool with admission control, and a shared
      plan cache behind a line-delimited JSON socket protocol;
    - {!Ldb_format} — a text format for databases.

    {2 Quick start}

    {[
      let db =
        Logicaldb.database
          ~predicates:[ ("TEACHES", 2) ]
          ~constants:[ "socrates"; "plato"; "mystery" ]
          ~facts:[ ("TEACHES", [ "socrates"; "plato" ]) ]
          ~distinct:[ ("socrates", "plato") ]

      let q = Logicaldb.query "(x). exists y. TEACHES(x, y)"
      let exact = Logicaldb.certain_answer db q
      let fast = Logicaldb.approx_answer db q
    ]} *)

(* Logic layer *)
module Term = Vardi_logic.Term
module Vocabulary = Vardi_logic.Vocabulary
module Formula = Vardi_logic.Formula
module Nnf = Vardi_logic.Nnf
module Prenex = Vardi_logic.Prenex
module Simplify = Vardi_logic.Simplify
module Generate = Vardi_logic.Generate
module Query = Vardi_logic.Query
module Pretty = Vardi_logic.Pretty
module Parser = Vardi_logic.Parser
module Lexer = Vardi_logic.Lexer

(* Relational layer *)
module Tuple = Vardi_relational.Tuple
module Relation = Vardi_relational.Relation
module Database = Vardi_relational.Database
module Eval = Vardi_relational.Eval
module Algebra = Vardi_relational.Algebra
module Compile = Vardi_relational.Compile
module Optimizer = Vardi_relational.Optimizer

(* CW logical databases *)
module Cw_database = Vardi_cwdb.Cw_database
module Axioms = Vardi_cwdb.Axioms
module Ph = Vardi_cwdb.Ph
module Mapping = Vardi_cwdb.Mapping
module Partition = Vardi_cwdb.Partition
module Ne_virtual = Vardi_cwdb.Ne_virtual
module Query_check = Vardi_cwdb.Query_check

(* The evaluation kernel (integer-coded hot path of Certain) *)
module Symtab = Vardi_interned.Symtab
module Irel = Vardi_interned.Irel
module Idb = Vardi_interned.Idb
module Iplan = Vardi_interned.Iplan
module Ieval = Vardi_interned.Ieval
module Iscan = Vardi_interned.Iscan
module Icode = Vardi_interned.Icode

(* Engines *)
module Certain = Vardi_certain.Engine
module Cancel = Vardi_certain.Cancel
module Explain = Vardi_certain.Explain
module Sampling = Vardi_certain.Sampling
module Approx = Vardi_approx.Evaluate
module Translate = Vardi_approx.Translate
module Alpha = Vardi_approx.Alpha
module Disagree = Vardi_approx.Disagree
module Precise_simulation = Vardi_approx.Precise_simulation
module Reiter = Vardi_approx.Reiter
module Naive_tables = Vardi_approx.Naive_tables

(* Typed layer (Reiter's extended relational theories with types) *)
module Ty_vocabulary = Vardi_typed.Ty_vocabulary
module Ty_formula = Vardi_typed.Ty_formula
module Ty_database = Vardi_typed.Ty_database
module Ty_query = Vardi_typed.Ty_query
module Ty_parser = Vardi_typed.Ty_parser

(* Reductions and baselines *)
module Graph = Vardi_reductions.Graph
module Qbf = Vardi_reductions.Qbf
module Three_col = Vardi_reductions.Three_col
module Qbf_fo = Vardi_reductions.Qbf_fo
module Qbf_so = Vardi_reductions.Qbf_so

(* General theories (bounded-model reference semantics) *)
module Theory = Vardi_theory.Theory

(* Observability: structured tracing + metrics (spans, counters, sinks) *)
module Obs = Vardi_obs.Obs

(* Resilience: budgets, cooperative cancellation, graceful degradation
   from the exact engine to the Theorem-11 sound approximation, and
   seeded fault injection *)
module Budget = Vardi_resilience.Budget
module Resilient = Vardi_resilience.Resilient
module Faults = Vardi_resilience.Faults

(* Incremental evaluation: resident databases with mutations that keep
   the interned kernel's heavy state warm across queries *)
module Incr_session = Vardi_incr.Session

(* Durability: per-database write-ahead log, atomic snapshots, and
   startup recovery for the serve daemon's resident sessions *)
module Wal = Vardi_durable.Wal
module Snapshot = Vardi_durable.Snapshot
module Recovery = Vardi_durable.Recovery
module Durable_store = Vardi_durable.Store

(* Serving: resident concurrent query server over a Unix-domain
   socket — line-delimited JSON protocol, shared worker-domain pool
   with bounded-queue admission control, shared plan cache *)
module Serve = Vardi_serve.Server
module Serve_client = Vardi_serve.Client
module Serve_protocol = Vardi_serve.Protocol
module Serve_json = Vardi_serve.Json
module Serve_pool = Vardi_serve.Pool
module Plan_cache = Vardi_serve.Plan_cache
module Domain_guard = Vardi_serve.Domain_guard

(* Persistence *)
module Ldb_format = Vardi_format.Ldb_format
module Tldb_format = Vardi_format.Tldb_format

(* Property-based differential fuzzing of the engines *)
module Fuzz = Vardi_fuzz.Driver
module Fuzz_gen = Vardi_fuzz.Gen
module Fuzz_oracle = Vardi_fuzz.Oracle
module Fuzz_shrink = Vardi_fuzz.Shrink
module Fuzz_corpus = Vardi_fuzz.Corpus
module Fuzz_reference = Vardi_fuzz.Reference
module Fuzz_noise = Vardi_fuzz.Noise

(** {1 Convenience constructors} *)

(** [database ~predicates ~constants ~facts ~distinct] builds a CW
    logical database in one call; constants mentioned in facts or
    distinct pairs are declared implicitly.
    @raise Invalid_argument per {!Cw_database.make}. *)
let database ?(predicates = []) ?(constants = []) ?(facts = [])
    ?(distinct = []) () =
  let fact_constants = List.concat_map (fun (_, args) -> args) facts in
  let distinct_constants =
    List.concat_map (fun (c, d) -> [ c; d ]) distinct
  in
  let vocabulary =
    Vocabulary.make
      ~constants:(constants @ fact_constants @ distinct_constants)
      ~predicates
  in
  Cw_database.make ~vocabulary
    ~facts:(List.map (fun (pred, args) -> { Cw_database.pred; args }) facts)
    ~distinct

(** [query s] parses a query, e.g.
    ["(x, y). exists z. (EMP(x, z) /\\ MGR(z, y))"].
    @raise Parser.Parse_error / {!Lexer.Lex_error} on bad syntax. *)
let query = Parser.query

(** [certain_answer db q] is the exact [Q(LB)] (Theorem 1 semantics;
    exponential in the number of unknown constants). *)
let certain_answer db q = Certain.answer db q

(** [approx_answer db q] is the sound approximation [Q̂(Ph₂(LB))]
    (Section 5; polynomial data complexity). *)
let approx_answer db q = Approx.answer db q

(** [certain db s] decides a Boolean query given as a formula string,
    e.g. [certain db "exists x. TEACHES(x, plato)"]. *)
let certain db s = Certain.certain_boolean db (Query.boolean (Parser.formula s))

(** [approx_certain db s] — the approximation's verdict on a Boolean
    query; [true] implies [certain db s]. *)
let approx_certain db s = Approx.boolean db (Query.boolean (Parser.formula s))
