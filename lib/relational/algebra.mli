(** A positional relational algebra — the "standard database management
    system" on which Section 5 implements logical databases.

    Expressions denote relations whose columns are numbered from 0.
    Constant symbols inside selections are resolved through the
    database's constant interpretation at evaluation time. *)

type selection =
  | Cols_eq of int * int              (** keep rows with [row.(i) = row.(j)] *)
  | Cols_neq of int * int
  | Col_eq_const of int * string      (** [row.(i) = I(c)] for constant symbol [c] *)
  | Col_neq_const of int * string
  | Consts_eq of string * string      (** row-independent: [I(c) = I(d)] *)
  | Consts_neq of string * string

type t =
  | Base of string                    (** a stored relation *)
  | Virtual of string * int           (** computed relation, decided by
                                          {!Eval.virtuals}; see {!run} for
                                          when it is built over [D^arity] *)
  | Domain                            (** the unary relation holding all of [D] *)
  | Empty of int                      (** the empty [k]-ary relation *)
  | Select of selection * t
  | Project of int list * t           (** output column [i] is input column
                                          [cols.(i)]; may duplicate and reorder *)
  | Product of t * t
  | Join of (int * int) list * t * t
                                      (** equi-join: keeps [u ++ v] for
                                          [u] in the left and [v] in the right
                                          operand with [u.(i) = v.(j)] for every
                                          pair [(i, j)]; output arity is the sum
                                          of the operand arities. Evaluated as a
                                          hash join — semantically equal to the
                                          corresponding [Select]s over
                                          [Product], without materializing the
                                          cartesian product. An empty pair list
                                          degenerates to [Product]. *)
  | Semijoin of (int * int) list * t * t
                                      (** keeps the left rows that agree with at
                                          least one right row on every pair;
                                          output arity is the left arity. An
                                          empty pair list keeps the left operand
                                          iff the right operand is nonempty. *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t

(** [arity db e] is the output arity of [e] against [db]'s schema.
    @raise Eval.Eval_error on unknown base relations, column indexes
    out of range, or arity mismatches between set-operation operands. *)
val arity : Database.t -> t -> int

(** [run ?virtuals db e] evaluates [e] bottom-up.

    A [Virtual] operand of an [Inter], [Join] or [Semijoin] node, or a
    column permutation ([Project] of a permutation) of one, is bounded
    when the other operand fixes every one of its columns: every column
    for [Inter], and for a join or semijoin every column of the virtual
    side appears in a pair. Its relation is then the other operand's
    rows projected onto those columns and kept where the hook holds,
    and nothing enumerates [D^arity]; the answer is the same. The right
    operand is tried first. Every other [Virtual] node is materialized
    over [D^arity], and each such build adds one to the Obs counter
    [relational.virtual_full].
    @raise Eval.Eval_error as {!arity} does, and when a [Virtual] node
    has no entry in [virtuals]. *)
val run : ?virtuals:Eval.virtuals -> Database.t -> t -> Relation.t

(** Number of nodes, a cost measure for the ablation benches. *)
val size : t -> int

val pp : t Fmt.t
