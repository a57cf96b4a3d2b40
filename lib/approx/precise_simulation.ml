module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Vocabulary = Vardi_logic.Vocabulary
module Eval = Vardi_relational.Eval

let prefix = "sim$"
let h_name = prefix ^ "H"
let primed p = prefix ^ p

let var_terms names = List.map Term.var names

(* ρ = ρ1 ∧ ρ2 ∧ ρ3: H is total, functional, and respects NE. *)
let rho =
  let h a b = Formula.Atom (h_name, [ a; b ]) in
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let u = Term.var "u" and v = Term.var "v" in
  let rho1 = Formula.Forall ("x", Formula.Exists ("y", h x y)) in
  let rho2 =
    Formula.forall_many [ "x"; "y"; "z" ]
      (Formula.Implies (Formula.And (h x y, h x z), Formula.Eq (y, z)))
  in
  let rho3 =
    Formula.forall_many [ "x"; "y"; "u"; "v" ]
      (Formula.Implies
         ( Formula.conj
             [
               Formula.Atom (Vardi_cwdb.Ph.ne_predicate, [ x; y ]);
               h x u;
               h y v;
             ],
           Formula.neq u v ))
  in
  Formula.conj [ rho1; rho2; rho3 ]

(* θᵢ forces P′ᵢ = h(I(Pᵢ)). *)
let theta_for p arity =
  let h a b = Formula.Atom (h_name, [ a; b ]) in
  let ys = List.init arity (Printf.sprintf "y%d") in
  let us = List.init arity (Printf.sprintf "u%d") in
  let yts = var_terms ys and uts = var_terms us in
  let h_links = List.map2 h yts uts in
  let forward =
    Formula.forall_many (ys @ us)
      (Formula.Implies
         ( Formula.conj (Formula.Atom (p, yts) :: h_links),
           Formula.Atom (primed p, uts) ))
  in
  let backward =
    Formula.forall_many us
      (Formula.exists_many ys
         (Formula.Implies
            ( Formula.Atom (primed p, uts),
              Formula.conj (Formula.Atom (p, yts) :: h_links) )))
  in
  Formula.And (forward, backward)

(* Replace constant symbols by variables per the association list.
   Purely syntactic: the replacement variables use the reserved
   [sim_] namespace, which [query'] verifies is unused. *)
let rec replace_constants assoc f =
  let term = function
    | Term.Const a as t -> (
      match List.assoc_opt a assoc with
      | Some w -> Term.Var w
      | None -> t)
    | Term.Var _ as t -> t
  in
  match f with
  | Formula.True | Formula.False -> f
  | Formula.Eq (s, t) -> Formula.Eq (term s, term t)
  | Formula.Atom (p, ts) -> Formula.Atom (p, List.map term ts)
  | Formula.Not g -> Formula.Not (replace_constants assoc g)
  | Formula.And (g, h) ->
    Formula.And (replace_constants assoc g, replace_constants assoc h)
  | Formula.Or (g, h) ->
    Formula.Or (replace_constants assoc g, replace_constants assoc h)
  | Formula.Implies (g, h) ->
    Formula.Implies (replace_constants assoc g, replace_constants assoc h)
  | Formula.Iff (g, h) ->
    Formula.Iff (replace_constants assoc g, replace_constants assoc h)
  | Formula.Exists (x, g) -> Formula.Exists (x, replace_constants assoc g)
  | Formula.Forall (x, g) -> Formula.Forall (x, replace_constants assoc g)
  | Formula.Exists2 (p, k, g) ->
    Formula.Exists2 (p, k, replace_constants assoc g)
  | Formula.Forall2 (p, k, g) ->
    Formula.Forall2 (p, k, replace_constants assoc g)

let reserved_variable x =
  String.length x >= 4 && String.equal (String.sub x 0 4) "sim_"

let query' vocabulary q =
  let body = Query.body q in
  List.iter
    (fun (p, _) ->
      if String.length p >= String.length prefix
         && String.equal (String.sub p 0 (String.length prefix)) prefix
      then
        invalid_arg
          (Printf.sprintf "Precise_simulation: query already mentions %s" p))
    (Formula.free_preds body);
  List.iter
    (fun x ->
      if reserved_variable x then
        invalid_arg
          (Printf.sprintf
             "Precise_simulation: variable %s uses the reserved sim_ namespace"
             x))
    (Formula.all_vars body @ Query.head q);
  let predicates = Vocabulary.predicates vocabulary in
  let theta = Formula.conj (List.map (fun (p, k) -> theta_for p k) predicates) in
  let phi' =
    List.fold_left
      (fun f (p, _) -> Formula.rename_atom ~from:p ~into:(primed p) f)
      body predicates
  in
  let head = Query.head q in
  let zs = List.mapi (fun i _ -> Printf.sprintf "%sz%d" "sim_" (i + 1)) head in
  let links =
    List.map2
      (fun z x -> Formula.Atom (h_name, [ Term.var z; Term.var x ]))
      zs head
  in
  (* Constants occurring in the body must be read through H as well:
     Theorem 1 interprets a query constant [a] as [h(a)] in the image
     database, while [Ph₂]'s interpretation is the identity. Replace
     each constant by a fresh variable [w] linked by [H(a, w)]. (The
     paper's construction leaves this implicit.) *)
  let body_constants = Formula.constants phi' in
  let const_vars =
    List.mapi (fun i a -> (a, Printf.sprintf "sim_w%d" (i + 1))) body_constants
  in
  let phi'' = replace_constants const_vars phi' in
  let const_links =
    List.map
      (fun (a, w) -> Formula.Atom (h_name, [ Term.const a; Term.var w ]))
      const_vars
  in
  let psi =
    Formula.exists_many head
      (Formula.exists_many (List.map snd const_vars)
         (Formula.conj (links @ const_links @ [ phi'' ])))
  in
  let matrix = Formula.Implies (Formula.And (rho, theta), psi) in
  let quantified =
    Formula.Forall2
      ( h_name,
        2,
        List.fold_right
          (fun (p, k) f -> Formula.Forall2 (primed p, k, f))
          predicates matrix )
  in
  Query.make zs quantified

let answer lb q =
  let q' = query' (Vardi_cwdb.Cw_database.vocabulary lb) q in
  let ph1, ne = Vardi_cwdb.Ph.ph2_in_place lb in
  Eval.answer ~virtuals:ne ph1 q'
