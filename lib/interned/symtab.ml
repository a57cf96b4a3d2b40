module Cw_database = Vardi_cwdb.Cw_database
module Vocabulary = Vardi_logic.Vocabulary

type t = {
  constants : string array;
  codes : (string, int) Hashtbl.t;
  incompatible : bool array;  (* n*n row-major uniqueness-axiom matrix *)
  distinct_pairs : (int * int) array;
  rel_names : string array;
  rel_arities : int array;
  rel_slots : (string, int) Hashtbl.t;
}

let make db =
  let constants = Array.of_list (Cw_database.constants db) in
  let n = Array.length constants in
  let codes = Hashtbl.create (2 * (n + 1)) in
  Array.iteri (fun i c -> Hashtbl.replace codes c i) constants;
  let incompatible = Array.make (n * n) false in
  let distinct_pairs =
    Array.of_list
      (List.map
         (fun (c, d) ->
           let i = Hashtbl.find codes c and j = Hashtbl.find codes d in
           incompatible.((i * n) + j) <- true;
           incompatible.((j * n) + i) <- true;
           (i, j))
         (Cw_database.distinct_pairs db))
  in
  let predicates = Vocabulary.predicates (Cw_database.vocabulary db) in
  let rel_names = Array.of_list (List.map fst predicates) in
  let rel_arities = Array.of_list (List.map snd predicates) in
  let rel_slots = Hashtbl.create 16 in
  Array.iteri (fun s p -> Hashtbl.replace rel_slots p s) rel_names;
  {
    constants;
    codes;
    incompatible;
    distinct_pairs;
    rel_names;
    rel_arities;
    rel_slots;
  }

let size t = Array.length t.constants
let name t code = t.constants.(code)
let code t c = Hashtbl.find t.codes c
let code_opt t c = Hashtbl.find_opt t.codes c
let distinct t i j = t.incompatible.((i * Array.length t.constants) + j)
let distinct_pairs t = t.distinct_pairs
let rel_count t = Array.length t.rel_names
let rel_name t slot = t.rel_names.(slot)
let rel_arity t slot = t.rel_arities.(slot)
let rel_slot t p = Hashtbl.find_opt t.rel_slots p

let same_coding a b =
  a.constants = b.constants
  && a.rel_names = b.rel_names
  && a.rel_arities = b.rel_arities

let code_tuple t tuple = Array.of_list (List.map (code t) tuple)
let name_tuple t row = Array.to_list (Array.map (name t) row)
