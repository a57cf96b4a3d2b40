(* Reference answers, computed before timing by code the timed path
   never runs.

   Exact answers apply Theorem 1 literally: a tuple is certain iff its
   image is in Q(h(Ph1)) for every mapping h respecting the uniqueness
   axioms. Kernel partitions enumerate those mappings up to
   isomorphism; each image is built with [Mapping.image_db] and queried
   with the Tarskian [Eval] — the string-keyed construction the fuzz
   oracles keep as their reference, never the interned kernel.

   Approximate answers are Q-hat(Ph2) for conjunctive queries with
   negated atoms, evaluated here by nested loops over the generator's
   fact lists: a positive atom must be a fact, and a negated atom
   [~P(t)] holds iff [t] disagrees with every fact of [P] (Section 5:
   some two constants the equalities [t = d] would identify carry a
   uniqueness axiom). The Tarskian [Direct] backend computes the same
   thing but is O(n^v) at these sizes; the self-check compares the two
   on small instances. *)

module L = Logicaldb

type expected = Rows of string list list | Bool of bool

let rec tuples_over domain k =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun rest -> List.map (fun c -> c :: rest) domain)
      (tuples_over domain (k - 1))

(* One pass over the partitions answers a whole batch of queries; a
   query drops out once decided (survivors empty, or a countermodel to
   a sentence), and the pass ends when all have. *)
let certain (cw : L.Cw_database.t) (qs : L.Query.t array) =
  let constants = L.Cw_database.constants cw in
  let survivors =
    Array.map
      (fun q ->
        if L.Query.is_boolean q then `Sentence true
        else `Answer (tuples_over constants (L.Query.arity q)))
      qs
  in
  let undecided () =
    Array.exists
      (function `Sentence v -> v | `Answer rows -> rows <> [])
      survivors
  in
  let rec scan seq =
    if undecided () then
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons (p, rest) ->
        let h = L.Partition.to_mapping p in
        let image = L.Mapping.image_db h in
        Array.iteri
          (fun i q ->
            match survivors.(i) with
            | `Sentence true ->
              if not (L.Eval.satisfies image (L.Query.body q)) then
                survivors.(i) <- `Sentence false
            | `Answer (_ :: _ as rows) ->
              let answer = L.Eval.answer image q in
              survivors.(i) <-
                `Answer
                  (List.filter
                     (fun t -> L.Relation.mem (L.Mapping.apply_tuple h t) answer)
                     rows)
            | `Sentence false | `Answer [] -> ())
          qs;
        scan rest
  in
  scan (L.Partition.all_valid cw);
  Array.map
    (function
      | `Sentence v -> Bool v
      | `Answer rows -> Rows (List.sort compare rows))
    survivors

(* --- conjunctive queries with negated atoms ---------------------------- *)

type atom = { pred : string; args : string list; negated : bool }
type cq = { head : string list; exists : string list; atoms : atom list }

let pos pred args = { pred; args; negated = false }
let neg pred args = { pred; args; negated = true }

let cq_text q =
  let atom a =
    Printf.sprintf "%s%s(%s)"
      (if a.negated then "~" else "")
      a.pred (String.concat ", " a.args)
  in
  Printf.sprintf "(%s). %s%s"
    (String.concat ", " q.head)
    (String.concat "" (List.map (fun v -> Printf.sprintf "exists %s. " v) q.exists))
    (String.concat " /\\ " (List.map atom q.atoms))

(* [disagree distinct c d]: the equalities c_i = d_i identify two
   constants that a uniqueness axiom keeps apart. *)
let disagree distinct c d =
  let parent = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some y when y <> x -> find y
    | _ -> x
  in
  List.iter2
    (fun a b ->
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb)
    c d;
  let nodes = List.sort_uniq compare (c @ d) in
  List.exists
    (fun a -> List.exists (fun b -> a < b && find a = find b && distinct a b) nodes)
    nodes

let approx (db : Gen.db) q =
  let known = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace known c ()) (Gen.knowns db);
  let distinct a b = a <> b && Hashtbl.mem known a && Hashtbl.mem known b in
  let facts = Hashtbl.create 16 in
  List.iter
    (fun (p, args) ->
      Hashtbl.replace facts p (args :: Option.value ~default:[] (Hashtbl.find_opt facts p)))
    db.facts;
  let facts_of p = Option.value ~default:[] (Hashtbl.find_opt facts p) in
  let positives = List.filter (fun a -> not a.negated) q.atoms in
  let negatives = List.filter (fun a -> a.negated) q.atoms in
  let results = Hashtbl.create 64 in
  let rec go env = function
    | [] ->
      let value v = List.assoc v env in
      if
        List.for_all
          (fun a ->
            let t = List.map value a.args in
            List.for_all (fun d -> disagree distinct t d) (facts_of a.pred))
          negatives
      then Hashtbl.replace results (List.map value q.head) ()
    | a :: rest ->
      List.iter
        (fun tuple ->
          let rec bind env args tuple =
            match (args, tuple) with
            | [], [] -> Some env
            | v :: vs, c :: cs -> (
              match List.assoc_opt v env with
              | Some c' when c' <> c -> None
              | Some _ -> bind env vs cs
              | None -> bind ((v, c) :: env) vs cs)
            | _ -> None
          in
          match bind env a.args tuple with
          | Some env -> go env rest
          | None -> ())
        (facts_of a.pred)
  in
  go [] positives;
  Rows (List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) results []))

let equal_rows (a : string list list) (b : string list list) =
  List.sort compare a = List.sort compare b
