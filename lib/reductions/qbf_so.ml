module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Vocabulary = Vardi_logic.Vocabulary
module Cw_database = Vardi_cwdb.Cw_database

let constant i j = Printf.sprintf "b%d_%d" i j

let r_predicate (p, q, r) (i, j, l) =
  Printf.sprintf "R%d%d%d_%d_%d_%d" p q r i j l

let n_predicate i = Printf.sprintf "N%d" i

let sign_of_literal { Qbf.positive; _ } = if positive then 1 else 0

(* The clause signature: sign exponents and blocks, in clause order. *)
let clause_key ((l1, l2, l3) : Qbf.clause3) =
  ( (sign_of_literal l1, sign_of_literal l2, sign_of_literal l3),
    (l1.Qbf.var.block, l2.Qbf.var.block, l3.Qbf.var.block) )

let clauses_of qbf =
  match Qbf.cnf3_clauses qbf with
  | Some cs -> cs
  | None -> invalid_arg "Qbf_so: the matrix is not in 3-CNF"

let used_predicates qbf =
  List.sort_uniq compare
    (List.map
       (fun cl ->
         let signs, blocks = clause_key cl in
         r_predicate signs blocks)
       (clauses_of qbf))

let database qbf =
  let sizes = Qbf.blocks qbf in
  let constants =
    "1"
    :: List.concat
         (List.mapi
            (fun bi size -> List.init size (fun j -> constant (bi + 1) (j + 1)))
            sizes)
  in
  let predicates =
    (n_predicate 1, 1) :: List.map (fun p -> (p, 3)) (used_predicates qbf)
  in
  let clause_fact cl =
    let (l1, l2, l3) = cl in
    let signs, blocks = clause_key cl in
    {
      Cw_database.pred = r_predicate signs blocks;
      args =
        [
          constant l1.Qbf.var.block l1.Qbf.var.index;
          constant l2.Qbf.var.block l2.Qbf.var.index;
          constant l3.Qbf.var.block l3.Qbf.var.index;
        ];
    }
  in
  let facts =
    { Cw_database.pred = n_predicate 1; args = [ "1" ] }
    :: List.map clause_fact (clauses_of qbf)
  in
  (* Constants of blocks ≥ 2 are pairwise distinct and distinct from
     the first-block constants and from 1; first-block constants stay
     mergeable with anything (they carry the simulated ∀ choice). *)
  let later_constants =
    List.concat
      (List.mapi
         (fun bi size ->
           if bi = 0 then []
           else List.init size (fun j -> constant (bi + 1) (j + 1)))
         sizes)
  in
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun d -> (c, d)) rest @ pairs rest
  in
  let distinct = pairs later_constants in
  Cw_database.make
    ~vocabulary:(Vocabulary.make ~constants ~predicates)
    ~facts ~distinct

let xi_for pred_name (signs, blocks) =
  let p, q, r = signs in
  let i, j, l = blocks in
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let literal sign block term =
    let atom = Formula.Atom (n_predicate block, [ term ]) in
    if sign = 1 then atom else Formula.Not atom
  in
  Formula.forall_many [ "x"; "y"; "z" ]
    (Formula.Implies
       ( Formula.Atom (pred_name, [ x; y; z ]),
         Formula.disj [ literal p i x; literal q j y; literal r l z ] ))

let query qbf =
  let keys =
    List.sort_uniq compare (List.map clause_key (clauses_of qbf))
  in
  let xi =
    Formula.conj
      (List.map
         (fun (signs, blocks) ->
           xi_for (r_predicate signs blocks) (signs, blocks))
         keys)
  in
  (* Second-order prefix over N₂ ... Nₖ₊₁; block i is universal when i
     is odd, and the prefix starts at block 2, hence existentially. *)
  let k1 = Qbf.block_count qbf in
  let rec wrap i =
    if i > k1 then xi
    else
      let inner = wrap (i + 1) in
      if Qbf.universal_block qbf i then Formula.Forall2 (n_predicate i, 1, inner)
      else Formula.Exists2 (n_predicate i, 1, inner)
  in
  Query.boolean (wrap 2)

let eval_via_certain qbf =
  let module Obs = Vardi_obs.Obs in
  Obs.span "reduce.qbf_so" (fun () ->
      let db, q =
        Obs.span "reduce.qbf_so.encode" (fun () -> (database qbf, query qbf))
      in
      Obs.count "reduce.qbf_so.query_size"
        (Vardi_logic.Formula.size (Query.body q));
      Obs.span "reduce.qbf_so.decide" (fun () ->
          Vardi_certain.Engine.certain_boolean db q))
