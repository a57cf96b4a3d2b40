module Formula = Vardi_logic.Formula
module Query = Vardi_logic.Query
module Relation = Vardi_relational.Relation
module Eval = Vardi_relational.Eval
module Compile = Vardi_relational.Compile
module Optimizer = Vardi_relational.Optimizer
module Algebra = Vardi_relational.Algebra
module Cw_database = Vardi_cwdb.Cw_database
module Query_check = Vardi_cwdb.Query_check
module Ph = Vardi_cwdb.Ph
module Obs = Vardi_obs.Obs

type backend =
  | Direct
  | Algebra
  | Algebra_optimized

type completeness =
  | Complete_fully_specified
  | Complete_positive
  | Sound_only

let completeness lb q =
  if Cw_database.is_fully_specified lb then Complete_fully_specified
  else if Query.is_positive q then Complete_positive
  else Sound_only

(* The three pipeline stages of A(Q, LB) = Q-hat(Ph2(LB)), each under
   its own span so the CLI/bench breakdown attributes cost to
   translation vs storage vs evaluation. The hat-size counter records
   the Lemma-10 blow-up (dramatic in Syntactic mode, nil in Semantic
   mode where alpha_P stays virtual). *)
let translate mode q =
  Obs.span "approx.translate" (fun () ->
      let hat = Translate.query mode q in
      Obs.count "approx.query_size" (Formula.size (Query.body q));
      Obs.count "approx.hat_size" (Formula.size (Query.body hat));
      hat)

let storage ?(mode = Translate.Semantic) lb =
  Obs.span "approx.ph2" (fun () ->
      let ph1, ne = Ph.ph2_in_place lb in
      let hooks =
        match mode with
        | Translate.Semantic ->
          let alpha = Disagree.virtuals lb in
          fun name ->
            (match ne name with Some _ as hook -> hook | None -> alpha name)
        | Translate.Syntactic -> ne
      in
      (ph1, hooks))

(* The relational-algebra plan [backend] runs [hat] with over [db], or
   [None] for the Tarskian evaluator. *)
let backend_plan backend db hat =
  match backend with
  | Direct -> None
  | Algebra -> Some (Compile.query db hat)
  | Algebra_optimized -> Some (Optimizer.optimize db (Compile.query db hat))

let plan ?(mode = Translate.Semantic) ~backend lb q =
  Query_check.validate lb q;
  let db, _ = storage ~mode lb in
  backend_plan backend db (Translate.query mode q)

let answer ?(mode = Translate.Semantic) ?(backend = Direct) lb q =
  Query_check.validate lb q;
  Obs.span "approx.answer" (fun () ->
      let hat = translate mode q in
      let db, hooks = storage ~mode lb in
      Obs.span "approx.evaluate" (fun () ->
          match backend_plan backend db hat with
          | None -> Eval.answer ~virtuals:hooks db hat
          | Some plan -> Algebra.run ~virtuals:hooks db plan))

let member ?(mode = Translate.Semantic) lb q tuple =
  Query_check.validate lb q;
  Query_check.validate_tuple lb q tuple;
  Obs.span "approx.member" (fun () ->
      let hat = translate mode q in
      let db, hooks = storage ~mode lb in
      Obs.span "approx.evaluate" (fun () ->
          Eval.member ~virtuals:hooks db hat tuple))

let boolean ?(mode = Translate.Semantic) ?(backend = Direct) lb q =
  Query_check.validate lb q;
  if not (Query.is_boolean q) then
    invalid_arg "Approx.boolean: the query has answer variables";
  Obs.span "approx.boolean" (fun () ->
      let hat = translate mode q in
      let db, hooks = storage ~mode lb in
      Obs.span "approx.evaluate" (fun () ->
          match backend_plan backend db hat with
          | None -> Eval.satisfies ~virtuals:hooks db (Query.body hat)
          | Some plan ->
            not (Relation.is_empty (Algebra.run ~virtuals:hooks db plan))))
