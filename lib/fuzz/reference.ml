module Query = Vardi_logic.Query
module Relation = Vardi_relational.Relation
module Database = Vardi_relational.Database
module Eval = Vardi_relational.Eval
module Cw_database = Vardi_cwdb.Cw_database
module Mapping = Vardi_cwdb.Mapping
module Partition = Vardi_cwdb.Partition
module Query_check = Vardi_cwdb.Query_check
module Certain = Vardi_certain.Engine

type structure = {
  image : Database.t;
  rename : string -> string;
}

let structures ?(algorithm = Certain.Kernel_partitions) ?order lb =
  match algorithm with
  | Certain.Naive_mappings ->
    Seq.map
      (fun h -> { image = Mapping.image_db h; rename = Mapping.apply h })
      (Mapping.all_respecting lb)
  | Certain.Kernel_partitions ->
    Seq.map
      (fun p -> { image = Partition.quotient p; rename = Partition.representative p })
      (Partition.all_valid ?order lb)

let certain_boolean ?algorithm lb q =
  Query_check.validate lb q;
  Seq.for_all (fun s -> Eval.satisfies s.image (Query.body q)) (structures ?algorithm lb)

let possible_boolean ?algorithm lb q =
  Query_check.validate lb q;
  Seq.exists (fun s -> Eval.satisfies s.image (Query.body q)) (structures ?algorithm lb)

let candidates lb q =
  Relation.full ~domain:(Cw_database.constants lb) (Query.arity q)

(* The tuples [c] of [tuples] with [h(c) ∈ Q(h(Ph₁))] for this
   structure's renaming [h]. *)
let admitted tuples q s =
  let image = Eval.answer s.image q in
  Relation.filter (fun t -> Relation.mem (List.map s.rename t) image) tuples

let answer_in structures lb q =
  Query_check.validate lb q;
  Seq.fold_left (fun acc s -> admitted acc q s) (candidates lb q) structures

let answer ?algorithm lb q = answer_in (structures ?algorithm lb) lb q

let possible_answer ?algorithm lb q =
  Query_check.validate lb q;
  let all = candidates lb q in
  Seq.fold_left
    (fun acc s -> Relation.union acc (admitted all q s))
    (Relation.empty (Query.arity q))
    (structures ?algorithm lb)
