module Vocabulary = Vardi_logic.Vocabulary
module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Cw_database = Vardi_cwdb.Cw_database

let constant_name i = Printf.sprintf "k%d" i

let parametric_db ~constants ~unknowns ~seed =
  if constants < 1 then invalid_arg "Workloads: need at least one constant";
  if unknowns > constants then
    invalid_arg "Workloads: more unknowns than constants";
  let names = List.init constants constant_name in
  let state = Random.State.make [| seed; constants; unknowns |] in
  let pick () = constant_name (Random.State.int state constants) in
  let unary_facts =
    List.init (max 1 (constants / 2)) (fun _ -> ("P", [ pick () ]))
  in
  let binary_facts =
    List.init constants (fun _ -> ("R", [ pick (); pick () ]))
  in
  let unknown i = i < unknowns in
  let distinct =
    let pairs = ref [] in
    for i = 0 to constants - 1 do
      for j = i + 1 to constants - 1 do
        if not (unknown i || unknown j) then
          pairs := (constant_name i, constant_name j) :: !pairs
      done
    done;
    !pairs
  in
  Cw_database.make
    ~vocabulary:
      (Vocabulary.make ~constants:names ~predicates:[ ("P", 1); ("R", 2) ])
    ~facts:
      (List.map
         (fun (pred, args) -> { Cw_database.pred; args })
         (unary_facts @ binary_facts))
    ~distinct

let parse = Vardi_logic.Parser.query

let mixed_query = parse "(x). (exists y. R(x, y)) /\\ ~P(x)"
let positive_query = parse "(x). exists y. R(x, y) /\\ P(y)"

let random_pairs ~count ~seed =
  let state = Random.State.make [| seed; count |] in
  List.init count (fun i ->
      let constants = 2 + Random.State.int state 3 in
      let unknowns = Random.State.int state (constants + 1) in
      let db =
        parametric_db ~constants ~unknowns ~seed:(seed + (i * 7919))
      in
      let queries =
        [
          mixed_query;
          positive_query;
          parse "(x). ~P(x)";
          parse "(x). ~(exists y. R(x, y))";
          parse "(x). P(x) \\/ ~P(x)";
          parse "(x, y) . R(x, y) /\\ x != y";
        ]
      in
      let q = List.nth queries (Random.State.int state (List.length queries)) in
      (db, q))
