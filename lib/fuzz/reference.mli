(** A brute-force Theorem-1 evaluator on strings: the reference the
    differential oracles and tests diff {!Vardi_certain.Engine}
    against.

    It enumerates the respecting renamings ([Partition.all_valid] or
    [Mapping.all_respecting]), builds each image database
    ([Partition.quotient] or [Mapping.image_db]) and evaluates the
    query on it with the Tarskian evaluator {!Vardi_relational.Eval}.
    It shares no code with the engine's scan — no interning, no
    compiled plans, no pruning seed, no budget or observability — so a
    divergence points at the engine. The mapping enumeration is
    Theorem 1 read literally and shares not even the partition
    enumeration with the engine. *)

(** One structure of Theorem 1: an image database and the renaming of
    constants that produced it. *)
type structure = {
  image : Vardi_relational.Database.t;
  rename : string -> string;
}

(** Which renamings the reference quantifies over. *)
type enumeration =
  | Mappings
      (** every mapping [h : C → C] that respects the uniqueness
          axioms, in [Mapping.all_respecting]'s order ([|C|^|C|]
          before filtering, under [Mapping.all]'s enumeration cap) *)
  | Partitions
      (** one representative renaming per kernel partition, in
          [Partition.all_valid]'s order — the engine's order *)

(** The structures of [enumeration] (default [Partitions]); [order]
    applies to [Partitions] only. *)
val structures :
  ?enumeration:enumeration ->
  ?order:Vardi_cwdb.Partition.order ->
  Vardi_cwdb.Cw_database.t ->
  structure Seq.t

val certain_boolean :
  ?enumeration:enumeration ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool

val possible_boolean :
  ?enumeration:enumeration ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  bool

(** The certain answer: every candidate tuple over the constants that
    every structure admits. *)
val answer :
  ?enumeration:enumeration ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

(** [answer_in structures lb q] is {!answer} quantified over the given
    structures only — over a prefix of {!structures}, it is what a scan
    capped at that position may report. *)
val answer_in :
  structure Seq.t ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

(** The possible answer: every candidate tuple some structure admits. *)
val possible_answer :
  ?enumeration:enumeration ->
  Vardi_cwdb.Cw_database.t ->
  Vardi_logic.Query.t ->
  Vardi_relational.Relation.t

(** [ldb_parse text] is the reference [.ldb] parser. It reads line
    by line through word lists and hands every mention of a constant to
    {!Vardi_cwdb.Cw_database.make}, sharing no scanning code with
    {!Vardi_format.Ldb_format.parse}, under the same contract (the same
    [Syntax_error] line and message, [Invalid_argument] on a semantic
    violation). The parse-parity checks ({!Noise.check_input} and the
    [ldb-parse-parity] oracle) diff the one-pass parser against it. *)
val ldb_parse : string -> Vardi_cwdb.Cw_database.t
