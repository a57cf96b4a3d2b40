module F = Vardi_logic.Formula
module T = Vardi_logic.Term
module Q = Vardi_logic.Query
module Obs = Vardi_obs.Obs

type atom = { pred : string; args : T.t list }

let atom_vars a = T.vars_of a.args

let pp_atom ppf a =
  Fmt.pf ppf "@[<h>%s(%a)@]" a.pred Fmt.(list ~sep:(any ", ") T.pp) a.args

(* ------------------------------------------------------------------ *)
(* Named relations: a relation together with the variable owning each
   column. All Yannakakis-side operators are schema-driven joins and
   semijoins over these. *)

module Internal = struct
  type nrel = { vars : string list; rel : Relation.t }

  let key_fn vars wanted =
    let pos = List.mapi (fun i v -> (v, i)) vars in
    let idx = List.map (fun v -> List.assoc v pos) wanted in
    fun row ->
      let arr = Array.of_list row in
      List.map (fun i -> arr.(i)) idx

  (* keep the rows of [a] that agree with some row of [b] on the shared
     variables; [a]'s schema is unchanged *)
  let semijoin a b =
    let shared = List.filter (fun v -> List.mem v b.vars) a.vars in
    if shared = [] then
      if Relation.is_empty b.rel then
        { a with rel = Relation.empty (Relation.arity a.rel) }
      else a
    else begin
      let bkey = key_fn b.vars shared and akey = key_fn a.vars shared in
      let keys : (string list, unit) Hashtbl.t = Hashtbl.create 64 in
      Relation.iter (fun row -> Hashtbl.replace keys (bkey row) ()) b.rel;
      { a with rel = Relation.filter (fun row -> Hashtbl.mem keys (akey row)) a.rel }
    end

  (* natural join; output schema is [a.vars] then [b]'s remaining vars *)
  let join a b =
    let shared = List.filter (fun v -> List.mem v a.vars) b.vars in
    let b_rest = List.filter (fun v -> not (List.mem v a.vars)) b.vars in
    let out_vars = a.vars @ b_rest in
    let bkey = key_fn b.vars shared and akey = key_fn a.vars shared in
    let brest = key_fn b.vars b_rest in
    let table : (string list, string list list) Hashtbl.t =
      Hashtbl.create 64
    in
    Relation.iter
      (fun row ->
        let k = bkey row in
        let prev = try Hashtbl.find table k with Not_found -> [] in
        Hashtbl.replace table k (brest row :: prev))
      b.rel;
    let rel =
      Relation.fold
        (fun row acc ->
          match Hashtbl.find_opt table (akey row) with
          | None -> acc
          | Some rests ->
            List.fold_left
              (fun acc rest -> Relation.add (row @ rest) acc)
              acc rests)
        a.rel
        (Relation.empty (List.length out_vars))
    in
    { vars = out_vars; rel }

  (* project onto [vs] (must all be present), in [vs] order *)
  let project vs a =
    let keyf = key_fn a.vars vs in
    {
      vars = vs;
      rel =
        Relation.fold
          (fun row acc -> Relation.add (keyf row) acc)
          a.rel
          (Relation.empty (List.length vs));
    }

  (* The full reducer: one bottom-up then one top-down semijoin pass
     over the join tree makes every node globally consistent. Mutates
     [rels] (indexed by edge id) in place. *)
  let rec reduce_up rels (node : Hypergraph.tree) =
    List.iter (reduce_up rels) node.children;
    List.iter
      (fun (c : Hypergraph.tree) ->
        rels.(node.edge) <- semijoin rels.(node.edge) rels.(c.edge))
      node.children

  let rec reduce_down rels (node : Hypergraph.tree) =
    List.iter
      (fun (c : Hypergraph.tree) ->
        rels.(c.edge) <- semijoin rels.(c.edge) rels.(node.edge);
        reduce_down rels c)
      node.children

  let reducer_passes rels tree =
    reduce_up rels tree;
    reduce_down rels tree

  let union_vars a b =
    a @ List.filter (fun v -> not (List.mem v a)) b

  (* Bottom-up joins with early projection: each subtree result keeps
     only head variables and variables shared with its parent (the
     running-intersection property makes dropping the rest exact). *)
  let rec assemble rels head ~keep (node : Hypergraph.tree) =
    let acc =
      List.fold_left
        (fun acc c ->
          join acc (assemble rels head ~keep:(union_vars head node.vars) c))
        rels.(node.edge) node.children
    in
    project (List.filter (fun v -> List.mem v acc.vars) keep) acc
end

open Internal

(* ------------------------------------------------------------------ *)
(* Detection: is the query an acyclic conjunctive query this module can
   evaluate? The body must be existential quantifiers and conjunctions
   over positive predicate atoms (no Eq, no negation, no disjunction,
   no second-order structure), every atom must resolve against the
   database schema or the virtual hooks with matching arity and known
   constants, every head variable must occur in some atom, and the join
   hypergraph must pass GYO reduction. Everything else returns [None]
   and takes the fallback path — which also keeps error behavior
   (unknown predicates, arity mismatches) on the naive evaluator. *)

type plan = {
  head : string list;
  answer_arity : int;
  guards : atom list;  (** variable-free atoms, evaluated as gates *)
  atoms : atom array;  (** atoms with variables; edge ids index this *)
  tree : Hypergraph.tree option;  (** [None] when [atoms] is empty *)
}

let rec conjuncts ~scope f acc =
  match f with
  | F.True -> Some acc
  | F.And (a, b) -> (
    match conjuncts ~scope a acc with
    | Some acc -> conjuncts ~scope b acc
    | None -> None)
  | F.Exists (x, f') ->
    (* reject shadowing so variable names identify columns globally *)
    if List.mem x scope then None else conjuncts ~scope:(x :: scope) f' acc
  | F.Atom (p, args) -> Some ({ pred = p; args } :: acc)
  | F.False | F.Eq _ | F.Not _ | F.Or _ | F.Implies _ | F.Iff _ | F.Forall _
  | F.Exists2 _ | F.Forall2 _ ->
    None

let atom_supported ~virtuals db a =
  let schema_ok =
    match Database.relation_opt db a.pred with
    | Some r -> Relation.arity r = List.length a.args
    | None -> virtuals a.pred <> None
  in
  schema_ok
  && List.for_all
       (fun c ->
         match Database.constant db c with
         | (_ : Tuple.element) -> true
         | exception Not_found -> false)
       (T.consts_of a.args)

let plan ?(virtuals = Eval.no_virtuals) db q =
  match conjuncts ~scope:(Q.head q) (Q.body q) [] with
  | None -> None
  | Some atoms_rev ->
    let atoms = List.rev atoms_rev in
    if not (List.for_all (atom_supported ~virtuals db) atoms) then None
    else
      let guards, var_atoms =
        List.partition (fun a -> atom_vars a = []) atoms
      in
      let covered = List.concat_map atom_vars var_atoms in
      if not (List.for_all (fun v -> List.mem v covered) (Q.head q)) then
        None
      else if var_atoms = [] then
        Some
          {
            head = Q.head q;
            answer_arity = Q.arity q;
            guards;
            atoms = [||];
            tree = None;
          }
      else (
        match Hypergraph.join_tree (List.map atom_vars var_atoms) with
        | None -> None (* cyclic: fall back *)
        | Some tree ->
          Some
            {
              head = Q.head q;
              answer_arity = Q.arity q;
              guards;
              atoms = Array.of_list var_atoms;
              tree = Some tree;
            })

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let element_of db = function
  | T.Const c -> Database.constant db c
  | T.Var v ->
    raise
      (Eval.Eval_error
         (Printf.sprintf "Yannakakis: unexpected free variable %s" v))

(* Materialize one atom as a named relation over its distinct
   variables: constant positions are selected on, repeated variables
   equated, and the columns projected down to first occurrences. *)
let atom_nrel ~virtuals db a =
  let base =
    match Database.relation_opt db a.pred with
    | Some r -> r
    | None -> (
      match virtuals a.pred with
      | Some check ->
        Obs.count "relational.virtual_full" 1;
        Relation.filter check
          (Relation.full ~domain:(Database.domain db)
             (List.length a.args))
      | None ->
        raise
          (Eval.Eval_error
             (Printf.sprintf "Yannakakis: no implementation for %s" a.pred)))
  in
  let argv = Array.of_list a.args in
  let vars = atom_vars a in
  let first_pos =
    List.map
      (fun v ->
        let rec find i =
          if argv.(i) = T.Var v then i else find (i + 1)
        in
        find 0)
      vars
  in
  let rel =
    Relation.fold
      (fun row acc ->
        let arr = Array.of_list row in
        let ok =
          Array.for_all Fun.id
            (Array.mapi
               (fun i t ->
                 match t with
                 | T.Const c -> arr.(i) = Database.constant db c
                 | T.Var v ->
                   let rec first j =
                     if argv.(j) = T.Var v then j else first (j + 1)
                   in
                   arr.(i) = arr.(first 0))
               argv)
        in
        if ok then
          Relation.add (List.map (fun i -> arr.(i)) first_pos) acc
        else acc)
      base
      (Relation.empty (List.length vars))
  in
  { vars; rel }

(* A virtual atom whose variables all occur in a stored atom is
   evaluated over that atom's tuples: its relation is the hook-filtered
   projection of the stored atom's relation. This is exact, because the
   stored atom is joined in too and already restricts those variables.
   [cover] is the stored atom's named relation. *)
let bounded_nrel ~virtuals db a cover =
  let check =
    match virtuals a.pred with
    | Some check -> check
    | None ->
      raise
        (Eval.Eval_error
           (Printf.sprintf "Yannakakis: no implementation for %s" a.pred))
  in
  let vars = atom_vars a in
  let args row =
    let env = List.combine vars row in
    List.map
      (function
        | T.Const c -> Database.constant db c | T.Var v -> List.assoc v env)
      a.args
  in
  let projected = project vars cover in
  {
    projected with
    rel = Relation.filter (fun row -> check (args row)) projected.rel;
  }

(* Every atom's named relation. Stored atoms come first; each virtual
   atom then takes the smallest stored relation covering its variables,
   and is built over D^k only when none does. *)
let atom_nrels ~virtuals db atoms =
  let stored =
    Array.map
      (fun a ->
        match Database.relation_opt db a.pred with
        | Some _ -> Some (atom_nrel ~virtuals db a)
        | None -> None)
      atoms
  in
  let cover a =
    let vars = atom_vars a in
    Array.fold_left
      (fun best n ->
        match n with
        | Some n when List.for_all (fun v -> List.mem v n.vars) vars -> (
          match best with
          | Some b when Relation.cardinal b.rel <= Relation.cardinal n.rel ->
            best
          | _ -> Some n)
        | _ -> best)
      None stored
  in
  Array.mapi
    (fun i a ->
      match stored.(i) with
      | Some n -> n
      | None -> (
        match cover a with
        | Some c -> bounded_nrel ~virtuals db a c
        | None -> atom_nrel ~virtuals db a))
    atoms

let guard_holds ~virtuals db a =
  let vals = List.map (element_of db) a.args in
  match Database.relation_opt db a.pred with
  | Some r -> Relation.mem vals r
  | None -> (
    match virtuals a.pred with
    | Some check -> check vals
    | None ->
      raise
        (Eval.Eval_error
           (Printf.sprintf "Yannakakis: no implementation for %s" a.pred)))

let run ?(virtuals = Eval.no_virtuals) db p =
  if not (List.for_all (guard_holds ~virtuals db) p.guards) then
    Relation.empty p.answer_arity
  else
    match p.tree with
    | None ->
      (* no variable atoms: the (boolean) query reduced to its guards *)
      Relation.of_tuples p.answer_arity [ [] ]
    | Some tree ->
      let rels = atom_nrels ~virtuals db p.atoms in
      reducer_passes rels tree;
      let result = assemble rels p.head ~keep:p.head tree in
      (* [assemble] keeps head variables in [keep] order, so the
         schema is exactly the head *)
      assert (result.vars = p.head);
      result.rel

let answer ?(virtuals = Eval.no_virtuals) db q =
  Option.map (run ~virtuals db) (plan ~virtuals db q)

(* ------------------------------------------------------------------ *)
(* Explain *)

let pp_plan ppf p =
  match p.tree with
  | None ->
    Fmt.pf ppf "acyclic CQ, no variable atoms; guards: %a"
      Fmt.(list ~sep:comma pp_atom)
      p.guards
  | Some tree ->
    let atom e = p.atoms.(e) in
    let rec pp_tree indent ppf (n : Hypergraph.tree) =
      Fmt.pf ppf "%s%a  covers {%s}" indent pp_atom (atom n.edge)
        (String.concat " " n.vars);
      List.iter
        (fun c -> Fmt.pf ppf "@,%a" (pp_tree (indent ^ "  ")) c)
        n.children
    in
    let rec up_order (n : Hypergraph.tree) =
      List.concat_map up_order n.children
      @ List.map (fun (c : Hypergraph.tree) -> (n.edge, c.edge)) n.children
    in
    let rec down_order (n : Hypergraph.tree) =
      List.concat_map
        (fun (c : Hypergraph.tree) -> (c.edge, n.edge) :: down_order c)
        n.children
    in
    let pp_pass ppf (a, b) =
      Fmt.pf ppf "%a <| %a" pp_atom (atom a) pp_atom (atom b)
    in
    let pp_passes ppf = function
      | [] -> Fmt.string ppf "(none)"
      | ps -> Fmt.(list ~sep:(any "; ") pp_pass) ppf ps
    in
    Fmt.pf ppf
      "@[<v>join tree (%d atoms):@,%a@,semijoin order (up): %a@,semijoin order (down): %a@]"
      (Array.length p.atoms) (pp_tree "  ") tree pp_passes (up_order tree)
      pp_passes (down_order tree);
    if p.guards <> [] then
      Fmt.pf ppf "@,ground guards: %a" Fmt.(list ~sep:comma pp_atom) p.guards
