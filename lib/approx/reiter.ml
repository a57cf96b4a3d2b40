module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Nnf = Vardi_logic.Nnf
module Relation = Vardi_relational.Relation
module Cw_database = Vardi_cwdb.Cw_database
module Query_check = Vardi_cwdb.Query_check

exception Unsupported of string

(* Each subformula is evaluated to the relation over an ordered
   variable list [vars] of the assignments that make it provable.
   Column i holds the value of [List.nth vars i]. *)

let value_of vars row term =
  match term with
  | Term.Const c -> c
  | Term.Var x ->
    let rec find names cells =
      match names, cells with
      | n :: _, v :: _ when String.equal n x -> v
      | _ :: ns, _ :: vs -> find ns vs
      | _ -> assert false
    in
    find vars row

let rec provable lb vars f =
  let constants = Cw_database.constants lb in
  let full () = Relation.full ~domain:constants (List.length vars) in
  let filter check = Relation.filter check (full ()) in
  match f with
  | Formula.True -> full ()
  | Formula.False -> Relation.empty (List.length vars)
  | Formula.Eq (s, t) ->
    filter (fun row ->
        String.equal (value_of vars row s) (value_of vars row t))
  | Formula.Not (Formula.Eq (s, t)) ->
    (* Provably unequal: a uniqueness axiom separates the values. *)
    filter (fun row ->
        Cw_database.are_distinct lb (value_of vars row s) (value_of vars row t))
  | Formula.Atom (p, ts) ->
    let facts = Cw_database.facts_of lb p in
    filter (fun row ->
        let args = List.map (value_of vars row) ts in
        List.exists (fun fact -> List.equal String.equal fact args) facts)
  | Formula.Not (Formula.Atom (p, ts)) ->
    filter (fun row ->
        Disagree.alpha_holds lb p (List.map (value_of vars row) ts))
  | Formula.Not _ | Formula.Implies _ | Formula.Iff _ ->
    (* NNF removes these before we get here. *)
    assert false
  | Formula.And (g, h) ->
    Relation.inter (provable lb vars g) (provable lb vars h)
  | Formula.Or (g, h) ->
    Relation.union (provable lb vars g) (provable lb vars h)
  | Formula.Exists (x, body) ->
    let x, body = unshadow vars x body in
    let inner = provable lb (vars @ [ x ]) body in
    Relation.fold
      (fun row acc ->
        let keep = List.filteri (fun i _ -> i < List.length vars) row in
        Relation.add keep acc)
      inner
      (Relation.empty (List.length vars))
  | Formula.Forall (x, body) ->
    let x, body = unshadow vars x body in
    let inner = provable lb (vars @ [ x ]) body in
    filter (fun row ->
        List.for_all (fun d -> Relation.mem (row @ [ d ]) inner) constants)
  | Formula.Exists2 _ | Formula.Forall2 _ ->
    raise (Unsupported "Reiter's algorithm covers first-order queries only")

(* Rename a binder that shadows a column. The new name must avoid
   [vars] as well as the body's variables, or a third nested binder of
   one name would alias two quantifiers; so retry until it does. *)
and unshadow vars x body =
  if List.mem x vars then begin
    let rec pick base =
      let candidate = Formula.fresh_var ~base [ body ] in
      if List.mem candidate vars then pick (candidate ^ "_r") else candidate
    in
    let x' = pick x in
    ( x',
      Formula.substitute
        (fun y -> if String.equal y x then Some (Term.Var x') else None)
        body )
  end
  else (x, body)

let answer lb q =
  Query_check.validate lb q;
  provable lb (Query.head q) (Nnf.transform (Query.body q))

let boolean lb q =
  if not (Query.is_boolean q) then
    invalid_arg "Reiter.boolean: the query has answer variables";
  not (Relation.is_empty (answer lb q))
