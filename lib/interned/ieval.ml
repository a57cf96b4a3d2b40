module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Eval = Vardi_relational.Eval

(* The interned mirror of [Vardi_relational.Eval]: Tarskian evaluation
   over an [Idb.t], raising [Eval.Eval_error] with messages identical
   to the string side so the two evaluators fail indistinguishably.
   Environments are small assoc lists — query nesting depth bounds
   their length, and lookup beats a map below a dozen entries. *)

type context = {
  idb : Idb.t;
  env : (string * int) list;  (* individual variables -> element code *)
  so_env : (string * Irel.t) list;  (* second-order variables *)
}

let error fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

let element ctx = function
  | Term.Var x -> (
    match List.assoc_opt x ctx.env with
    | Some e -> e
    | None -> error "unbound variable %s" x)
  | Term.Const c -> (
    match Symtab.code_opt (Idb.tab ctx.idb) c with
    | Some code -> Idb.interp ctx.idb code
    | None -> error "unknown constant %s" c)

let atom_holds ctx p args =
  match List.assoc_opt p ctx.so_env with
  | Some r ->
    if Irel.arity r <> Array.length args then
      error "predicate variable %s used with arity %d" p (Array.length args);
    Irel.mem args r
  | None -> (
    match Idb.relation_opt ctx.idb p with
    | Some r ->
      if Irel.arity r <> Array.length args then
        error "predicate %s used with arity %d, declared %d" p
          (Array.length args) (Irel.arity r);
      Irel.mem args r
    | None -> error "unknown predicate %s" p)

let rec eval ctx formula =
  match formula with
  | Formula.True -> true
  | Formula.False -> false
  | Formula.Eq (s, t) -> element ctx s = element ctx t
  | Formula.Atom (p, ts) ->
    atom_holds ctx p (Array.of_list (List.map (element ctx) ts))
  | Formula.Not f -> not (eval ctx f)
  | Formula.And (f, g) -> eval ctx f && eval ctx g
  | Formula.Or (f, g) -> eval ctx f || eval ctx g
  | Formula.Implies (f, g) -> (not (eval ctx f)) || eval ctx g
  | Formula.Iff (f, g) -> Bool.equal (eval ctx f) (eval ctx g)
  | Formula.Exists (x, f) ->
    Array.exists
      (fun e -> eval { ctx with env = (x, e) :: ctx.env } f)
      (Idb.universe ctx.idb)
  | Formula.Forall (x, f) ->
    Array.for_all
      (fun e -> eval { ctx with env = (x, e) :: ctx.env } f)
      (Idb.universe ctx.idb)
  | Formula.Exists2 (p, k, f) ->
    Seq.exists
      (fun r -> eval { ctx with so_env = (p, r) :: ctx.so_env } f)
      (all_relations ctx k)
  | Formula.Forall2 (p, k, f) ->
    Seq.for_all
      (fun r -> eval { ctx with so_env = (p, r) :: ctx.so_env } f)
      (all_relations ctx k)

and all_relations ctx k =
  Irel.subsets (Irel.full ~domain:(Idb.universe ctx.idb) k)

let holds idb env formula = eval { idb; env; so_env = [] } formula

let satisfies idb sentence =
  match Formula.free_vars sentence with
  | [] -> holds idb [] sentence
  | x :: _ -> error "sentence has free variable %s" x

(* [row] holds element codes (the tuple already renamed). *)
let member idb q row =
  let head = Query.head q in
  if Array.length row <> List.length head then
    error "Eval.member: tuple arity differs from the query head";
  holds idb (List.mapi (fun i x -> (x, row.(i))) head) (Query.body q)

let answer idb q =
  let head = Query.head q in
  let k = List.length head in
  let domain = Idb.universe idb in
  let n = Array.length domain in
  let body = Query.body q in
  let rows = ref [] in
  let row = Array.make k 0 in
  let rec assign pos env =
    if pos = k then begin
      if eval { idb; env; so_env = [] } body then rows := Array.copy row :: !rows
    end
    else
      for i = 0 to n - 1 do
        row.(pos) <- domain.(i);
        assign (pos + 1) ((List.nth head pos, domain.(i)) :: env)
      done
  in
  assign 0 [];
  Irel.of_rows k !rows
