module Vocabulary = Vardi_logic.Vocabulary
module Cw_database = Vardi_cwdb.Cw_database

(* Union-find over the constants of the two tuples. The graph G_{c,d}
   has an edge (ci, di) per position, so components are computed by
   unioning positionwise; two occurrences of the same constant are the
   same node. *)
let connected_distinct lb c d =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some None -> x
    | Some (Some p) ->
      let root = find p in
      Hashtbl.replace parent x (Some root);
      root
  in
  let union x y =
    let rx = find x and ry = find y in
    if not (String.equal rx ry) then Hashtbl.replace parent rx (Some ry)
  in
  List.iter2 union c d;
  let nodes =
    List.sort_uniq String.compare (List.rev_append c d)
  in
  let rec any_distinct_pair = function
    | [] -> false
    | u :: rest ->
      List.exists
        (fun v ->
          Cw_database.are_distinct lb u v
          && String.equal (find u) (find v))
        rest
      || any_distinct_pair rest
  in
  any_distinct_pair nodes

(* A position pair that is itself a uniqueness axiom is an edge of
   G_{c,d}, so it decides the question before any union-find is
   built. *)
let tuples lb c d =
  if List.length c <> List.length d then
    invalid_arg "Disagree.tuples: tuples of different lengths";
  List.exists2 (Cw_database.are_distinct lb) c d || connected_distinct lb c d

(* α_P with P's facts fetched once, for a hook that tests many tuples. *)
let alpha_of lb p =
  match Vocabulary.arity_opt (Cw_database.vocabulary lb) p with
  | None -> invalid_arg (Printf.sprintf "Disagree.alpha_holds: undeclared %s" p)
  | Some k ->
    let facts = Cw_database.facts_of lb p in
    fun c ->
      if k <> List.length c then
        invalid_arg
          (Printf.sprintf "Disagree.alpha_holds: %s applied to %d arguments" p
             (List.length c));
      List.for_all (fun d -> tuples lb c d) facts

let alpha_holds lb p c = alpha_of lb p c

let alpha_prefix = "alpha$"
let alpha_predicate p = alpha_prefix ^ p

(* The Tarskian evaluator asks the hook about every atom it meets, so
   a lookup allocates nothing and compares with String.equal. *)
let virtuals lb =
  let hooks =
    List.map
      (fun (p, _) -> (alpha_predicate p, Some (alpha_of lb p)))
      (Vocabulary.predicates (Cw_database.vocabulary lb))
  in
  let rec find name = function
    | [] -> None
    | (n, hook) :: rest -> if String.equal n name then hook else find name rest
  in
  fun name -> find name hooks
