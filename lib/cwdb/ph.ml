module Vocabulary = Vardi_logic.Vocabulary
module Database = Vardi_relational.Database
module Relation = Vardi_relational.Relation
module Eval = Vardi_relational.Eval

let ne_predicate = "NE"

let relations_of db =
  let vocabulary = Cw_database.vocabulary db in
  List.map
    (fun (p, k) -> (p, Relation.of_tuples k (Cw_database.facts_of db p)))
    (Vocabulary.predicates vocabulary)

let ph1 db =
  let constants = Cw_database.constants db in
  Database.make
    ~vocabulary:(Cw_database.vocabulary db)
    ~domain:constants
    ~constants:(List.map (fun c -> (c, c)) constants)
    ~relations:(relations_of db)

let refuse_declared_ne db =
  if Vocabulary.mem_predicate (Cw_database.vocabulary db) ne_predicate then
    invalid_arg
      (Printf.sprintf "Ph.ph2: the vocabulary already declares %s" ne_predicate)

let ph2 db =
  refuse_declared_ne db;
  let vocabulary = Cw_database.vocabulary db in
  let constants = Cw_database.constants db in
  let ne_tuples =
    List.concat_map
      (fun (c, d) -> [ [ c; d ]; [ d; c ] ])
      (Cw_database.distinct_pairs db)
  in
  Database.make
    ~vocabulary:(Vocabulary.add_predicate vocabulary ne_predicate 2)
    ~domain:constants
    ~constants:(List.map (fun c -> (c, c)) constants)
    ~relations:((ne_predicate, Relation.of_tuples 2 ne_tuples) :: relations_of db)

let ne_virtuals db =
  let hook =
    Some
      (function
      | [ x; y ] -> Cw_database.are_distinct db x y
      | args ->
        raise
          (Eval.Eval_error
             (Printf.sprintf "predicate %s used with arity %d, declared 2"
                ne_predicate (List.length args))))
  in
  fun name -> if String.equal name ne_predicate then hook else None

let ph2_in_place db =
  refuse_declared_ne db;
  (ph1 db, ne_virtuals db)
