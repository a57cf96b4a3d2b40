(* Tests for the relational-algebra optimizer: per-rule unit tests and
   the semantics-preservation property on compiled random queries. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

let vocabulary =
  Vocabulary.make ~constants:[ "a"; "b" ] ~predicates:[ ("P", 1); ("R", 2) ]

let db =
  Database.make ~vocabulary ~domain:[ "a"; "b"; "c" ]
    ~constants:[ ("a", "a"); ("b", "b") ]
    ~relations:
      [
        ("P", Relation.of_tuples 1 [ [ "a" ] ]);
        ("R", Relation.of_tuples 2 [ [ "a"; "b" ]; [ "b"; "c" ] ]);
      ]

let algebra_testable =
  Alcotest.testable Algebra.pp ( = )

let opt e = Optimizer.optimize db e

let test_trivial_selections () =
  check algebra_testable "eq same column" (Algebra.Base "R")
    (opt (Algebra.Select (Algebra.Cols_eq (0, 0), Algebra.Base "R")));
  check algebra_testable "neq same column" (Algebra.Empty 2)
    (opt (Algebra.Select (Algebra.Cols_neq (1, 1), Algebra.Base "R")));
  check algebra_testable "select over empty" (Algebra.Empty 2)
    (opt (Algebra.Select (Algebra.Cols_eq (0, 1), Algebra.Empty 2)))

let test_projection_rules () =
  check algebra_testable "identity projection" (Algebra.Base "R")
    (opt (Algebra.Project ([ 0; 1 ], Algebra.Base "R")));
  check algebra_testable "projection fusion"
    (Algebra.Project ([ 1 ], Algebra.Base "R"))
    (opt (Algebra.Project ([ 0 ], Algebra.Project ([ 1; 0 ], Algebra.Base "R"))));
  check algebra_testable "project over empty" (Algebra.Empty 1)
    (opt (Algebra.Project ([ 0 ], Algebra.Empty 2)))

let test_empty_folding () =
  let r = Algebra.Base "R" in
  check algebra_testable "union empty" r (opt (Algebra.Union (Algebra.Empty 2, r)));
  check algebra_testable "inter empty" (Algebra.Empty 2)
    (opt (Algebra.Inter (r, Algebra.Empty 2)));
  check algebra_testable "diff from empty" (Algebra.Empty 2)
    (opt (Algebra.Diff (Algebra.Empty 2, r)));
  check algebra_testable "diff of empty" r (opt (Algebra.Diff (r, Algebra.Empty 2)));
  check algebra_testable "product with empty" (Algebra.Empty 3)
    (opt (Algebra.Product (r, Algebra.Empty 1)))

let test_idempotence () =
  let p = Algebra.Base "P" in
  check algebra_testable "union self" p (opt (Algebra.Union (p, p)));
  check algebra_testable "inter self" p (opt (Algebra.Inter (p, p)));
  check algebra_testable "diff self" (Algebra.Empty 1) (opt (Algebra.Diff (p, p)))

let test_universal_absorption () =
  let r = Algebra.Base "R" in
  let full2 = Algebra.Product (Algebra.Domain, Algebra.Domain) in
  check algebra_testable "inter with full" r (opt (Algebra.Inter (full2, r)));
  check algebra_testable "union with full" full2 (opt (Algebra.Union (r, full2)));
  check algebra_testable "diff from full twice (double complement)" r
    (opt (Algebra.Diff (full2, Algebra.Diff (full2, r))));
  check algebra_testable "diff against full" (Algebra.Empty 2)
    (opt (Algebra.Diff (r, full2)))

let test_universal_semijoin () =
  (* Two left columns paired with one right column must be equal: on
     R = {(a, b), (b, c)} the semijoin is empty, so the universal right
     side may only drop with a selection left behind. *)
  let e =
    Algebra.Semijoin ([ (0, 0); (1, 0) ], Algebra.Base "R", Algebra.Domain)
  in
  check Support.relation_testable "runs to {}" (Relation.empty 2)
    (Algebra.run db e);
  check algebra_testable "keeps $0 = $1"
    (Algebra.Select (Algebra.Cols_eq (0, 1), Algebra.Base "R"))
    (opt e);
  check Support.relation_testable "optimized runs to {}" (Relation.empty 2)
    (Algebra.run db (opt e));
  (* Distinct right columns: every key is in D^2, the semijoin drops. *)
  check algebra_testable "distinct right columns" (Algebra.Base "R")
    (opt
       (Algebra.Semijoin
          ( [ (0, 0); (1, 1) ],
            Algebra.Base "R",
            Algebra.Product (Algebra.Domain, Algebra.Domain) )))

let test_pushdown_product () =
  let e =
    Algebra.Select
      (Algebra.Col_eq_const (2, "a"), Algebra.Product (Algebra.Base "R", Algebra.Base "P"))
  in
  check algebra_testable "pushed into right side"
    (Algebra.Product
       (Algebra.Base "R", Algebra.Select (Algebra.Col_eq_const (0, "a"), Algebra.Base "P")))
    (opt e);
  let e2 =
    Algebra.Select
      (Algebra.Cols_eq (0, 1), Algebra.Product (Algebra.Base "R", Algebra.Base "P"))
  in
  check algebra_testable "pushed into left side"
    (Algebra.Product
       (Algebra.Select (Algebra.Cols_eq (0, 1), Algebra.Base "R"), Algebra.Base "P"))
    (opt e2);
  (* A spanning equality fuses product and selection into an equi-join;
     a spanning disequality stays put. *)
  let e3 =
    Algebra.Select
      (Algebra.Cols_eq (0, 2), Algebra.Product (Algebra.Base "R", Algebra.Base "P"))
  in
  check algebra_testable "spanning equality fused to join"
    (Algebra.Join ([ (0, 0) ], Algebra.Base "R", Algebra.Base "P"))
    (opt e3);
  let e4 =
    Algebra.Select
      (Algebra.Cols_neq (0, 2), Algebra.Product (Algebra.Base "R", Algebra.Base "P"))
  in
  check algebra_testable "spanning disequality kept" e4 (opt e4)

let test_pushdown_project () =
  let e =
    Algebra.Select
      (Algebra.Col_eq_const (0, "b"), Algebra.Project ([ 1 ], Algebra.Base "R"))
  in
  check algebra_testable "remapped through projection"
    (Algebra.Project
       ([ 1 ], Algebra.Select (Algebra.Col_eq_const (1, "b"), Algebra.Base "R")))
    (opt e)

let test_optimized_runs_agree_fixed () =
  List.iter
    (fun e ->
      check Support.relation_testable
        (Fmt.str "%a" Algebra.pp e)
        (Algebra.run db e)
        (Algebra.run db (opt e)))
    [
      Algebra.Select
        (Algebra.Cols_eq (0, 1), Algebra.Product (Algebra.Base "R", Algebra.Base "P"));
      Algebra.Diff
        ( Algebra.Product (Algebra.Domain, Algebra.Domain),
          Algebra.Base "R" );
      Algebra.Project
        ( [ 1; 1; 0 ],
          Algebra.Select (Algebra.Col_eq_const (0, "a"), Algebra.Base "R") );
      Algebra.Union
        ( Algebra.Inter (Algebra.Base "P", Algebra.Base "P"),
          Algebra.Project ([ 0 ], Algebra.Base "R") );
    ]

(* Property: on plans compiled from random queries, optimization
   preserves results and never grows the plan's evaluation cost class
   (checked as: same answers). *)
let optimizer_preserves_semantics =
  QCheck2.Test.make ~count:250 ~name:"optimize preserves run results"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:2)
    (fun (cw, query) ->
      let pb = Ph.ph1 cw in
      let plan = Compile.query pb query in
      Relation.equal (Algebra.run pb plan)
        (Algebra.run pb (Optimizer.optimize pb plan)))

(* Random raw algebra trees (not only compiler output): generated
   bottom-up so every node is well-formed against the schema. *)
let gen_algebra : Algebra.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneofl
      [ Algebra.Base "P"; Algebra.Base "R"; Algebra.Domain; Algebra.Empty 1;
        Algebra.Empty 2 ]
  in
  let arity_of e = Algebra.arity db e in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let* choice = int_bound 7 in
        match choice with
        | 0 -> leaf
        | 1 ->
          let* e = self (depth - 1) in
          let k = arity_of e in
          if k = 0 then return e
          else
            let* i = int_bound (k - 1) in
            let* j = int_bound (k - 1) in
            let* sel =
              oneofl
                [
                  Algebra.Cols_eq (i, j);
                  Algebra.Cols_neq (i, j);
                  Algebra.Col_eq_const (i, "a");
                  Algebra.Col_neq_const (i, "b");
                ]
            in
            return (Algebra.Select (sel, e))
        | 2 ->
          let* e = self (depth - 1) in
          let k = arity_of e in
          if k = 0 then return e
          else
            let* cols = list_size (int_range 1 3) (int_bound (k - 1)) in
            return (Algebra.Project (cols, e))
        | 3 ->
          let* a = self (depth - 1) in
          let* b = self (depth - 1) in
          return (Algebra.Product (a, b))
        | 4 ->
          let* a = self (depth - 1) in
          let* b = self (depth - 1) in
          let ka = arity_of a and kb = arity_of b in
          if ka = 0 || kb = 0 then return (Algebra.Product (a, b))
          else
            let* pairs =
              list_size (int_bound 2)
                (pair (int_bound (ka - 1)) (int_bound (kb - 1)))
            in
            let* semi = bool in
            return
              (if semi then Algebra.Semijoin (pairs, a, b)
               else Algebra.Join (pairs, a, b))
        | _ ->
          let* a = self (depth - 1) in
          let* b = self (depth - 1) in
          let ka = arity_of a and kb = arity_of b in
          if ka <> kb then return (Algebra.Product (a, b))
          else
            let* op = int_bound 2 in
            return
              (match op with
              | 0 -> Algebra.Union (a, b)
              | 1 -> Algebra.Inter (a, b)
              | _ -> Algebra.Diff (a, b)))
    3

let optimizer_on_raw_trees =
  QCheck2.Test.make ~count:300 ~name:"optimize preserves raw algebra trees"
    ~print:(Fmt.str "%a" Algebra.pp) gen_algebra
    (fun e ->
      Relation.equal (Algebra.run db e) (Algebra.run db (Optimizer.optimize db e)))

let optimizer_never_grows =
  QCheck2.Test.make ~count:300 ~name:"optimize never grows the plan"
    ~print:(Fmt.str "%a" Algebra.pp) gen_algebra
    (fun e ->
      (* Selection pushdown through Union may add nodes; everything
         else shrinks. Allow the bounded growth it can cause: one extra
         Select per Union under each pushed selection. *)
      Algebra.size (Optimizer.optimize db e) <= 2 * Algebra.size e)

(* The optimized approximation backend agrees with the others. *)
let optimized_backend_agrees =
  QCheck2.Test.make ~count:150 ~name:"optimized backend = direct"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.equal
        (Approx.answer ~backend:Approx.Direct db query)
        (Approx.answer ~backend:Approx.Algebra_optimized db query))

let suite =
  [
    Alcotest.test_case "trivial selections" `Quick test_trivial_selections;
    Alcotest.test_case "projection rules" `Quick test_projection_rules;
    Alcotest.test_case "empty folding" `Quick test_empty_folding;
    Alcotest.test_case "idempotence" `Quick test_idempotence;
    Alcotest.test_case "universal absorption" `Quick test_universal_absorption;
    Alcotest.test_case "pushdown through product" `Quick test_pushdown_product;
    Alcotest.test_case "pushdown through project" `Quick test_pushdown_project;
    Alcotest.test_case "optimized runs agree" `Quick
      test_optimized_runs_agree_fixed;
    Support.qcheck_case optimizer_preserves_semantics;
    Support.qcheck_case optimizer_on_raw_trees;
    Support.qcheck_case optimizer_never_grows;
    Support.qcheck_case optimized_backend_agrees;
    Alcotest.test_case "universal semijoin" `Quick test_universal_semijoin;
  ]
