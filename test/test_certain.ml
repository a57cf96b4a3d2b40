(* Tests for the exact certain-answer engines (Theorem 1, Corollary 2). *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

let socrates = Support.socrates_db ()
let personnel = Support.personnel_db ()
let ripper = Support.ripper_db ()

let q s = Parser.query s

(* --- basic certain-answer semantics --- *)

let test_positive_fact_certain () =
  (* A stored fact is certainly true. *)
  check_bool "stored fact" true
    (Certain.certain_boolean socrates (q "(). TEACHES(socrates, plato)"));
  check_bool "existential over fact" true
    (Certain.certain_boolean socrates (q "(). exists x. TEACHES(socrates, x)"))

let test_absent_fact_not_certain () =
  check_bool "absent fact not certain" false
    (Certain.certain_boolean socrates (q "(). TEACHES(plato, socrates)"))

let test_negation_with_unknowns () =
  (* ¬TEACHES(mystery, plato) is NOT certain: mystery might equal
     socrates. *)
  check_bool "unknown identity blocks negation" false
    (Certain.certain_boolean socrates (q "(). ~TEACHES(mystery, plato)"));
  (* But ¬TEACHES(plato, plato) is certain: plato ≠ socrates is an
     axiom, so no model lets plato teach. *)
  check_bool "provable negation" true
    (Certain.certain_boolean socrates (q "(). ~TEACHES(plato, plato)"))

let test_inequality_queries () =
  check_bool "axiom inequality certain" true
    (Certain.certain_boolean socrates (q "(). socrates != plato"));
  check_bool "open identity not certain" false
    (Certain.certain_boolean socrates (q "(). mystery != socrates"));
  (* Nor is the equality certain. *)
  check_bool "open identity not certainly equal" false
    (Certain.certain_boolean socrates (q "(). mystery = socrates"))

let test_disjunctive_knowledge () =
  (* In the ripper database, jack is distinct from victoria, disraeli is
     distinct from victoria, but jack vs disraeli is open. So
     "some murderer is a politician" is not certain, and "every
     murderer differs from victoria" is. *)
  check_bool "open conjecture" false
    (Certain.certain_boolean ripper
       (q "(). exists x. MURDERER(x) /\\ POLITICIAN(x)"));
  check_bool "but possible" true
    (Certain.possible_boolean ripper
       (q "(). exists x. MURDERER(x) /\\ POLITICIAN(x)"));
  check_bool "certain separation" true
    (Certain.certain_boolean ripper
       (q "(). forall x. MURDERER(x) -> x != victoria"))

let test_certain_member_and_answer () =
  let teaches_someone = q "(x). exists y. TEACHES(x, y)" in
  check_bool "socrates teaches" true
    (Certain.certain_member socrates teaches_someone [ "socrates" ]);
  check_bool "plato does not certainly teach" false
    (Certain.certain_member socrates teaches_someone [ "plato" ]);
  (* mystery teaches in the worlds where mystery = socrates only. *)
  check_bool "mystery does not certainly teach" false
    (Certain.certain_member socrates teaches_someone [ "mystery" ]);
  check Support.relation_testable "answer set"
    (Relation.of_tuples 1 [ [ "socrates" ] ])
    (Certain.answer socrates teaches_someone)

let test_corollary2_fully_specified () =
  (* Corollary 2: on a fully specified database the certain answer is
     the Ph₁ answer, for any query, including negation. *)
  let queries =
    [
      q "(x). exists y. EMP_DEPT(x, y)";
      q "(x). ~(exists y. EMP_DEPT(x, y))";
      q "(x, y). exists z. EMP_DEPT(x, z) /\\ DEPT_MGR(z, y)";
      q "(x). forall y. EMP_DEPT(x, y) -> y = toys";
    ]
  in
  let pb = Ph.ph1 personnel in
  List.iter
    (fun query ->
      check Support.relation_testable
        (Pretty.query_to_string query)
        (Eval.answer pb query)
        (Certain.answer personnel query))
    queries

let test_stats_early_exit () =
  (* The countermodel search stops early: a query false already on the
     discrete partition examines exactly one structure. *)
  let _, stats =
    Certain.certain_boolean_stats socrates (q "(). TEACHES(plato, plato)")
  in
  check Alcotest.int "early exit" 1 stats.Certain.structures;
  check Alcotest.bool "early exit flagged" true stats.Certain.early_exit;
  (* A certain query visits every valid partition (3 for socrates). *)
  let _, stats =
    Certain.certain_boolean_stats socrates (q "(). TEACHES(socrates, plato)")
  in
  check Alcotest.int "full scan" 3 stats.Certain.structures;
  check Alcotest.bool "no early exit" false stats.Certain.early_exit

let test_answer_stats_pruning () =
  (* |C|^1 = 3 candidates; the discrete (Ph₁) answer holds only
     socrates, so 2 candidates are pruned without per-structure work. *)
  let relation, stats =
    Certain.answer_stats socrates (q "(x). exists y. TEACHES(x, y)")
  in
  check Support.relation_testable "pruned answer"
    (Relation.of_tuples 1 [ [ "socrates" ] ])
    relation;
  check Alcotest.int "pruned candidates" 2 stats.Certain.pruned_candidates;
  check Alcotest.bool "no early exit" false stats.Certain.early_exit;
  (* An empty discrete answer decides the query on the seed alone. *)
  let relation, stats =
    Certain.answer_stats socrates (q "(x). TEACHES(x, socrates)")
  in
  check Alcotest.bool "empty answer" true (Relation.is_empty relation);
  check Alcotest.int "seed-only scan" 1 stats.Certain.structures;
  check Alcotest.bool "early exit on empty seed" true stats.Certain.early_exit

let test_validation_errors () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Certain.certain_boolean socrates (q "(). NOPE(socrates)"));
  expect_invalid (fun () ->
      Certain.certain_member socrates (q "(). TEACHES(socrates, plato)") []);
  expect_invalid (fun () ->
      Certain.certain_boolean socrates (q "(x). TEACHES(x, plato)"))

(* --- Theorem 1 read literally = the kernel-partition engine --- *)

(* The reference's enumeration of every respecting mapping, on strings:
   the statement of Theorem 1 itself, sharing no code with the engine's
   partition scan. *)
let mappings = Fuzz_reference.Mappings

let engines_agree_boolean =
  QCheck2.Test.make ~count:120 ~name:"naive = kernel partitions (boolean)"
    ~print:Support.print_db_sentence Support.gen_db_and_sentence
    (fun (db, sentence) ->
      let query = Query.boolean sentence in
      Fuzz_reference.certain_boolean ~enumeration:mappings db query
      = Certain.certain_boolean db query)

let engines_agree_answers =
  QCheck2.Test.make ~count:60 ~name:"naive = kernel partitions (answers)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.equal
        (Fuzz_reference.answer ~enumeration:mappings db query)
        (Certain.answer db query))

(* Theorem 1 restated directly: membership in the certain answer equals
   universal satisfaction over all respecting mappings. *)
let theorem1_definition =
  QCheck2.Test.make ~count:60 ~name:"theorem 1 characterization"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      let constants = Cw_database.constants db in
      List.for_all
        (fun c ->
          let by_engine = Certain.certain_member db query [ c ] in
          let by_definition =
            Seq.for_all
              (fun h ->
                Eval.member (Mapping.image_db h) query [ Mapping.apply h c ])
              (Mapping.all_respecting db)
          in
          by_engine = by_definition)
        constants)

(* Corollary 2 as a property: once fully specified, certain answers
   equal Ph₁ answers. *)
let corollary2_property =
  QCheck2.Test.make ~count:100 ~name:"corollary 2 (fully specified)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      let full = Cw_database.fully_specify db in
      Relation.equal
        (Certain.answer full query)
        (Eval.answer (Ph.ph1 full) query))

(* Monotonicity in knowledge: adding uniqueness axioms can only grow
   the set of certain answers (more axioms → fewer models). *)
let more_axioms_more_answers =
  QCheck2.Test.make ~count:100 ~name:"uniqueness axioms grow certain answers"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.subset (Certain.answer db query)
        (Certain.answer (Cw_database.fully_specify db) query))

(* Certain implies possible. *)
let certain_implies_possible =
  QCheck2.Test.make ~count:100 ~name:"certain ⊆ possible"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.subset (Certain.answer db query)
        (Certain.possible_answer db query))

(* The mapping enumeration and the engine agree on the dual modality as
   well. *)
let engines_agree_possible =
  QCheck2.Test.make ~count:60 ~name:"naive = kernel partitions (possible)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.equal
        (Fuzz_reference.possible_answer ~enumeration:mappings db query)
        (Certain.possible_answer db query))

(* The visit order changes only the search path, never the verdict. *)
let orders_agree =
  QCheck2.Test.make ~count:120 ~name:"fresh-first = merge-first verdicts"
    ~print:Support.print_db_sentence Support.gen_db_and_sentence
    (fun (db, sentence) ->
      let query = Query.boolean sentence in
      Certain.certain_boolean ~order:Certain.Fresh_first db query
      = Certain.certain_boolean ~order:Certain.Merge_first db query)

(* Boolean duality: possible φ = ¬ certain ¬φ. *)
let possible_duality =
  QCheck2.Test.make ~count:120 ~name:"possible = ¬certain¬"
    ~print:Support.print_db_sentence Support.gen_db_and_sentence
    (fun (db, sentence) ->
      Certain.possible_boolean db (Query.boolean sentence)
      = not (Certain.certain_boolean db (Query.boolean (Formula.Not sentence))))

let suite =
  [
    Alcotest.test_case "stored facts certain" `Quick test_positive_fact_certain;
    Alcotest.test_case "absent facts not certain" `Quick
      test_absent_fact_not_certain;
    Alcotest.test_case "negation with unknowns" `Quick
      test_negation_with_unknowns;
    Alcotest.test_case "inequality queries" `Quick test_inequality_queries;
    Alcotest.test_case "ripper scenario" `Quick test_disjunctive_knowledge;
    Alcotest.test_case "member and answer" `Quick test_certain_member_and_answer;
    Alcotest.test_case "corollary 2 examples" `Quick
      test_corollary2_fully_specified;
    Alcotest.test_case "stats and early exit" `Quick test_stats_early_exit;
    Alcotest.test_case "answer pruning stats" `Quick test_answer_stats_pruning;
    Alcotest.test_case "validation" `Quick test_validation_errors;
    Support.qcheck_case engines_agree_boolean;
    Support.qcheck_case engines_agree_answers;
    Support.qcheck_case engines_agree_possible;
    Support.qcheck_case more_axioms_more_answers;
    Support.qcheck_case certain_implies_possible;
    Support.qcheck_case orders_agree;
    Support.qcheck_case possible_duality;
    Support.qcheck_case theorem1_definition;
    Support.qcheck_case corollary2_property;
  ]
