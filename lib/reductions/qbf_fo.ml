module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Vocabulary = Vardi_logic.Vocabulary
module Cw_database = Vardi_cwdb.Cw_database

let first_block_constant j = Printf.sprintf "c%d" j
let n_predicate j = Printf.sprintf "N%d" j
let y_variable i j = Printf.sprintf "y_%d_%d" i j

(* χ: replace x_{1,j} by N_j(1) and x_{i,j} (i ≥ 2) by M(y_{i,j}). *)
let rec chi = function
  | Qbf.Lit { positive; var = { block; index } } ->
    let atom =
      if block = 1 then
        Formula.Atom (n_predicate index, [ Term.const "1" ])
      else Formula.Atom ("M", [ Term.var (y_variable block index) ])
    in
    if positive then atom else Formula.Not atom
  | Qbf.Not m -> Formula.Not (chi m)
  | Qbf.And (a, b) -> Formula.And (chi a, chi b)
  | Qbf.Or (a, b) -> Formula.Or (chi a, chi b)

let query qbf =
  let sizes = Qbf.blocks qbf in
  let body = chi (Qbf.matrix qbf) in
  (* Wrap blocks k+1, k, ..., 2 (innermost first). *)
  let rec wrap i sizes body =
    match sizes with
    | [] -> body
    | size :: rest ->
      let inner = wrap (i + 1) rest body in
      if i = 1 then inner
      else
        let ys = List.init size (fun j -> y_variable i (j + 1)) in
        if Qbf.universal_block qbf i then Formula.forall_many ys inner
        else Formula.exists_many ys inner
  in
  Query.boolean (wrap 1 sizes body)

let database qbf =
  let m1 = List.hd (Qbf.blocks qbf) in
  let constants =
    "0" :: "1" :: List.init m1 (fun j -> first_block_constant (j + 1))
  in
  let predicates =
    ("M", 1) :: List.init m1 (fun j -> (n_predicate (j + 1), 1))
  in
  let facts =
    { Cw_database.pred = "M"; args = [ "1" ] }
    :: List.init m1 (fun j ->
           {
             Cw_database.pred = n_predicate (j + 1);
             args = [ first_block_constant (j + 1) ];
           })
  in
  Cw_database.make
    ~vocabulary:(Vocabulary.make ~constants ~predicates)
    ~facts
    ~distinct:[ ("0", "1") ]

let eval_via_certain qbf =
  let module Obs = Vardi_obs.Obs in
  Obs.span "reduce.qbf_fo" (fun () ->
      let db, q =
        Obs.span "reduce.qbf_fo.encode" (fun () -> (database qbf, query qbf))
      in
      Obs.count "reduce.qbf_fo.query_size"
        (Vardi_logic.Formula.size (Query.body q));
      Obs.span "reduce.qbf_fo.decide" (fun () ->
          Vardi_certain.Engine.certain_boolean db q))
