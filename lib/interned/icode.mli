(** Flat-code compilation of the Theorem-1 hot loop.

    [Iplan.run] and [Ieval.eval] still walk an AST for every structure
    of the scan; after the PR-5 interning win that dispatch is the
    dominant per-structure cost. This module compiles both evaluators
    once per prepared query, in the WAM/PAIP tradition of flattening an
    interpreter into straight-line code with resolved operands:

    - {e Relational plans} ({!compile_plan}) become a postfix
      {e instruction array} over a value stack. Slot indexes, column
      divisors and constant codes are resolved at compile time. When
      the symtab's code range allows it, every intermediate relation is
      {e packed}: a row of arity [k] becomes the single integer
      [Σ row.(i)·n^(k-1-i)] (radix [n] = symtab size), so the
      per-tuple path runs entirely on immediate integers — sorts,
      merges and membership never chase a pointer and never call a
      comparison closure, and row order is preserved because packing is
      monotone in lexicographic order. Plans whose intermediate
      arities overflow the packing radix, and plans with a hash
      [Join]/[Semijoin] node, fall back to {!Iplan.run} (identical
      semantics, just unflattened).
    - {e Formulas} ({!compile_sentence}, {!compile_member},
      {!compile_answer}) become closure chains over a mutable
      {e register file}: each first-order binder is assigned a fixed
      [int] register at compile time and each second-order binder a
      relation register, replacing [Ieval]'s assoc-list environments;
      variable and predicate names are gone before the first structure
      is evaluated. Atom membership uses the arity-specialized
      comparators below. The bounded-SO fallback enumerates
      [Irel.subsets (Irel.full ...)] exactly as [Ieval] does, with the
      same caps and messages.

    Observational equivalence with [Iplan.run]/[Ieval] is a hard
    contract (the compiler tests diff against both interpreters, and
    the kernel-parity fuzz oracle diffs the engine against a
    string-keyed reference):
    same answers, and the same [Eval.Eval_error]s with byte-identical
    messages {e at the same evaluation points} — compile-time-detectable
    errors (unknown predicate, arity clash, unbound variable) are
    compiled to raising code at the offending node, so short-circuit
    evaluation hides exactly the errors the interpreter would hide.
    All compiled values are immutable and every [run_*]/[exec] call
    allocates its own register file and stack, so one compiled program
    may be evaluated concurrently from any number of domains. *)

(** {1 Arity-specialized row comparators}

    Unrolled mirrors of {!Irel.compare_rows} for the small arities that
    dominate real queries; both arguments must have arity exactly 1, 2
    or 3 respectively. The generic path stays [Irel.compare_rows]. *)

val compare_rows1 : Irel.row -> Irel.row -> int
val compare_rows2 : Irel.row -> Irel.row -> int
val compare_rows3 : Irel.row -> Irel.row -> int

(** [mem_row row rel] = [Irel.mem row rel], dispatching to an unrolled
    binary search for arities 1-3 and to [Irel.mem] otherwise. *)
val mem_row : Irel.row -> Irel.t -> bool

(** {1 Compiled relational plans} *)

(** One packed-mode instruction. Exposed so the compiler tests can
    check every resolved index against the symtab it was compiled
    from; execution never re-validates. *)
type instr =
  | Load of { slot : int; arity : int }  (** push base relation, packed *)
  | Load_domain  (** push the universe (arity 1; packed = the codes) *)
  | Load_empty of { arity : int }
  | Sel_cols of { div_i : int; div_j : int; keep_equal : bool }
      (** keep rows whose columns at divisors [div_i]/[div_j] agree
          (disagree when [keep_equal] is false) *)
  | Sel_col_const of { div : int; code : int; keep_equal : bool }
      (** column against the interpretation of constant [code] *)
  | Sel_consts of { code_c : int; code_d : int; keep_equal : bool }
      (** row-independent constant test *)
  | Proj of { divs : int array; arity : int }
      (** output column [j] is the input column extracted by
          [divs.(j)]; repacked in radix [n] *)
  | Prod of { mult : int; arity : int }
      (** packed product: [a·mult + b] with [mult = n^arity(b)];
          [arity] is the output arity *)
  | Union
  | Inter
  | Diff

type prog

(** [compile_plan tab plan] resolves [plan] against [tab] once. *)
val compile_plan : Symtab.t -> Iplan.t -> prog

(** One structure's image answer, as the engine's scans consume it:
    [Keys] is the packed program's result as it comes off the operand
    stack — the sorted packed rows, in radix [Symtab.size tab] at the
    plan's output arity — and [Rows] the interpreter's relation, for
    plans that fell back to {!Iplan.run} and for queries with no
    relational plan ({!run_answer}). Neither form is unpacked per
    structure: the survivor filter probes it with {!mem}, and only the
    discrete seed is materialized with {!rows}. The keys carry no
    radix or arity of their own — a memo holding one answer per
    structure pays one word per answer tuple and nothing more — so
    {!rows} and {!mem} take them from the caller. *)
type answer =
  | Keys of int array
  | Rows of Irel.t

(** [exec idb prog] evaluates the compiled plan against one image
    database; [rows (exec idb prog)] (at the symtab's size and
    {!out_arity}) equals [Iplan.run idb plan] for the source plan. *)
val exec : Idb.t -> prog -> answer

(** [rows ~radix ~arity a] is the answer as an interned relation
    (unpacks [Keys]; [Rows] is returned as is). *)
val rows : radix:int -> arity:int -> answer -> Irel.t

(** [mem ~radix a ~rename row] = [Irel.mem (Array.map (fun c ->
    rename.(c)) row) (rows ~radix ~arity a)]: candidate rows over
    constant codes are renamed into the structure and, for [Keys],
    packed to a single integer searched in the keys — allocation-free
    per probe. The engine's survivor-filter hot path. *)
val mem : radix:int -> answer -> rename:int array -> int array -> bool

(** The instruction array, or [None] when the plan fell back to the
    AST interpreter (packing radix overflow, or a [Join]/[Semijoin]
    node). For the bounds tests and the engine's fallback counter. *)
val instrs : prog -> instr array option

val out_arity : prog -> int

(** Operand-stack high-water mark the executor will allocate. *)
val max_stack : prog -> int

(** {1 Compiled formulas} *)

type check

(** [compile_sentence tab f] compiles a closed formula; mirrors
    [Ieval.satisfies] (including the free-variable error, deferred to
    run time). *)
val compile_sentence : Symtab.t -> Vardi_logic.Formula.t -> check

(** [run_sentence idb c]: one per-structure Boolean check. *)
val run_sentence : Idb.t -> check -> bool

(** [compile_member tab q] compiles the query body with the head
    variables pre-bound to registers [0 .. arity-1]; mirrors
    [Ieval.member]. *)
val compile_member : Symtab.t -> Vardi_logic.Query.t -> check

(** [run_member idb c row]: [row] holds element codes (the candidate
    tuple already renamed), loaded into the head registers. *)
val run_member : Idb.t -> check -> int array -> bool

(** [compile_answer tab q] compiles the direct-enumeration answer path
    — the bounded-SO fallback used when the query has no relational
    plan; mirrors [Ieval.answer]. *)
val compile_answer : Symtab.t -> Vardi_logic.Query.t -> check

val run_answer : Idb.t -> check -> Irel.t

(** Compile-time register-file sizes and every base-relation slot the
    compiled formula dereferences — for the bounds tests. *)
val check_regs : check -> int

val check_sos : check -> int
val check_slots : check -> int list
