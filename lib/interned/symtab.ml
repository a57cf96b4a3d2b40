module Cw_database = Vardi_cwdb.Cw_database
module Coding = Cw_database.Coding
module Vocabulary = Vardi_logic.Vocabulary

(* Codes are the database's ranks: [coding] refers to its name array,
   rank table and uniqueness bit matrix, which it never mutates, so a
   symtab copies none of them. *)
type t = {
  coding : Coding.t;
  rel_names : string array;
  rel_arities : int array;
  rel_slots : (string, int) Hashtbl.t;
}

let make db =
  let predicates = Vocabulary.predicates (Cw_database.vocabulary db) in
  let rel_names = Array.of_list (List.map fst predicates) in
  let rel_arities = Array.of_list (List.map snd predicates) in
  let rel_slots = Hashtbl.create 16 in
  Array.iteri (fun s p -> Hashtbl.replace rel_slots p s) rel_names;
  { coding = Cw_database.coding db; rel_names; rel_arities; rel_slots }

let size t = Coding.size t.coding
let name t code = Coding.name t.coding code
let code t c = Coding.rank t.coding c
let code_opt t c = Coding.rank_opt t.coding c
let coding t = t.coding
let rel_count t = Array.length t.rel_names
let rel_name t slot = t.rel_names.(slot)
let rel_arity t slot = t.rel_arities.(slot)
let rel_slot t p = Hashtbl.find_opt t.rel_slots p

let same_coding a b =
  Coding.same_constants a.coding b.coding
  && a.rel_names = b.rel_names
  && a.rel_arities = b.rel_arities

let code_tuple t tuple = Array.of_list (List.map (code t) tuple)
let name_tuple t row = Array.to_list (Array.map (name t) row)
