(* Tests for the reconstructed Reiter proof-theoretic algorithm and the
   paper's Remark (after Theorem 13): on first-order queries it returns
   exactly the same answers as the Section 5 approximation. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

let socrates = Support.socrates_db ()
let q s = Parser.query s

let test_fixture_answers () =
  let cases =
    [
      ("(x). TEACHES(x, plato)", [ [ "socrates" ] ]);
      ("(x). ~TEACHES(x, plato)", [ [ "plato" ] ]);
      ("(x, y). TEACHES(x, y)", [ [ "socrates"; "plato" ] ]);
      ("(x). exists y. TEACHES(y, x)", [ [ "plato" ] ]);
      ("(x). x != socrates", [ [ "plato" ] ]);
    ]
  in
  List.iter
    (fun (text, expected) ->
      check Support.relation_testable text
        (Relation.of_tuples
           (Query.arity (q text))
           expected)
        (Reiter.answer socrates (q text)))
    cases

let test_boolean () =
  check_bool "fact" true (Reiter.boolean socrates (q "(). TEACHES(socrates, plato)"));
  check_bool "provable negation" true
    (Reiter.boolean socrates (q "(). ~TEACHES(plato, plato)"));
  check_bool "open negation" false
    (Reiter.boolean socrates (q "(). ~TEACHES(mystery, plato)"));
  (* Certain but not provable: every model's TEACHES tuples start with
     (the value of) socrates, yet the row x = mystery is neither
     provably outside TEACHES nor provably equal to socrates — so the
     proof-theoretic answer is false while the exact answer is true.
     Sound, not complete. *)
  let universal = q "(). forall x, y. TEACHES(x, y) -> x = socrates" in
  check_bool "incomplete on certain universal" false
    (Reiter.boolean socrates universal);
  check_bool "...which is nonetheless certain" true
    (Certain.certain_boolean socrates universal)

let test_second_order_rejected () =
  match
    Reiter.answer socrates
      (Query.boolean
         (Formula.Exists2 ("Q", 1, Formula.Atom ("Q", [ Term.const "plato" ]))))
  with
  | exception Reiter.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* Three nested binders of one name: the third rename must avoid the
   columns the first two introduced, or two quantifiers alias and the
   innermost P(q0) reads the universal's column. *)
let test_nested_shadowing () =
  let db =
    database ~predicates:[ ("P", 1); ("R", 2) ] ~constants:[ "a"; "b"; "c" ]
      ~facts:[ ("P", [ "a" ]) ] ()
  in
  let query = q "(q0). exists q0. forall q0. exists q0. P(q0)" in
  let all = Relation.of_tuples 1 [ [ "a" ]; [ "b" ]; [ "c" ] ] in
  check Support.relation_testable "exact" all (Certain.answer db query);
  check Support.relation_testable "approximation" all (Approx.answer db query);
  check Support.relation_testable "Reiter" all (Reiter.answer db query)

(* The Remark: Reiter's answers = the approximation's answers, on
   random first-order database/query pairs. *)
let remark_reiter_equals_approx =
  QCheck2.Test.make ~count:200 ~name:"remark: Reiter = Section 5 approximation"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.equal (Reiter.answer db query) (Approx.answer db query))

let remark_reiter_equals_approx_binary =
  QCheck2.Test.make ~count:100
    ~name:"remark: Reiter = approximation (binary heads)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:2)
    (fun (db, query) ->
      Relation.equal (Reiter.answer db query) (Approx.answer db query))

(* Soundness of the reconstruction, independently. *)
let reiter_sound =
  QCheck2.Test.make ~count:120 ~name:"Reiter sound w.r.t. certain answers"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.subset (Reiter.answer db query) (Certain.answer db query))

(* Completeness on the two complete fragments transfers. *)
let reiter_complete_fragments =
  QCheck2.Test.make ~count:100 ~name:"Reiter complete on Thm 12/13 fragments"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      let full = Cw_database.fully_specify db in
      Relation.equal (Reiter.answer full query) (Certain.answer full query)
      && (not (Query.is_positive query)
         || Relation.equal (Reiter.answer db query) (Certain.answer db query)))

let suite =
  [
    Alcotest.test_case "fixture answers" `Quick test_fixture_answers;
    Alcotest.test_case "boolean queries" `Quick test_boolean;
    Alcotest.test_case "second order rejected" `Quick test_second_order_rejected;
    Support.qcheck_case remark_reiter_equals_approx;
    Support.qcheck_case remark_reiter_equals_approx_binary;
    Support.qcheck_case reiter_sound;
    Support.qcheck_case reiter_complete_fragments;
    Alcotest.test_case "nested binders of one name" `Quick test_nested_shadowing;
  ]
