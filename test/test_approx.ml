(* Tests for the Section 5 approximation algorithm: translation,
   Lemma 10, and the Theorem 11/12/13 guarantees. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

let socrates = Support.socrates_db ()
let personnel = Support.personnel_db ()
let q s = Parser.query s

(* --- disagreement (Lemma 10 semantics) --- *)

let test_disagree_basics () =
  (* (plato) vs (socrates): connected (positionwise), axiom says
     distinct → disagree. *)
  check_bool "distinct pair disagrees" true
    (Disagree.tuples socrates [ "plato" ] [ "socrates" ]);
  (* (mystery) vs (socrates): no axiom separates them. *)
  check_bool "open pair agrees" false
    (Disagree.tuples socrates [ "mystery" ] [ "socrates" ]);
  check_bool "identical tuples agree" false
    (Disagree.tuples socrates [ "plato" ] [ "plato" ])

let test_disagree_transitive_chain () =
  (* Positions chain constants: c=(a, b), d=(b, c) puts a, b, c in one
     component; with ¬(a = c) they disagree even though no position
     holds the pair (a, c) directly. *)
  let db =
    database ~constants:[ "a"; "b"; "c" ] ~distinct:[ ("a", "c") ] ()
  in
  check_bool "chained disagreement" true
    (Disagree.tuples db [ "a"; "b" ] [ "b"; "c" ]);
  (* Without the axiom there is no disagreement. *)
  let db0 = database ~constants:[ "a"; "b"; "c" ] () in
  check_bool "no axiom, no disagreement" false
    (Disagree.tuples db0 [ "a"; "b" ] [ "b"; "c" ])

let test_disagree_positionwise_axiom () =
  (* A position pair that is itself an axiom decides at once. *)
  let db = database ~constants:[ "a"; "b"; "e" ] ~distinct:[ ("a", "b") ] () in
  check_bool "position pair (a, b) is an axiom" true
    (Disagree.tuples db [ "a"; "b" ] [ "b"; "e" ]);
  (* Neither position pair (a, b) nor (b, e) is an axiom here; only the
     union-find joins a and e through b. *)
  let db = database ~constants:[ "a"; "b"; "e" ] ~distinct:[ ("a", "e") ] () in
  check_bool "no position pair is an axiom" false
    (Cw_database.are_distinct db "a" "b" || Cw_database.are_distinct db "b" "e");
  check_bool "the union-find finds ~(a = e)" true
    (Disagree.tuples db [ "a"; "b" ] [ "b"; "e" ])

let test_alpha_holds () =
  (* α_TEACHES(plato, plato): the only fact is (socrates, plato);
     tuples (plato,plato) vs (socrates,plato) — components {plato,
     socrates} via position 1... positions: plato~socrates, plato~plato.
     ¬(socrates = plato) ∈ T → disagree → α holds. *)
  check_bool "provably absent" true
    (Disagree.alpha_holds socrates "TEACHES" [ "plato"; "plato" ]);
  check_bool "not provably absent (unknown)" false
    (Disagree.alpha_holds socrates "TEACHES" [ "mystery"; "plato" ]);
  check_bool "present fact not alpha" false
    (Disagree.alpha_holds socrates "TEACHES" [ "socrates"; "plato" ]);
  (* The hook fetches the facts once and keeps the arity check. *)
  let hook = Option.get (Disagree.virtuals socrates "alpha$TEACHES") in
  check_bool "hook = alpha_holds" true (hook [ "plato"; "plato" ]);
  check_bool "NE is not an alpha hook" true
    (Option.is_none (Disagree.virtuals socrates Ph.ne_predicate));
  match hook [ "plato" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on an arity mismatch"

(* Semantic disagreement really is unsatisfiability of
   Unique(T) ∧ c = d: cross-check against the partition engine —
   c and d disagree iff no valid partition merges them positionwise. *)
let disagree_is_unsat =
  QCheck2.Test.make ~count:80 ~name:"disagree = no merging partition"
    ~print:Support.print_db Support.gen_cw_database
    (fun db ->
      let constants = Cw_database.constants db in
      List.for_all
        (fun c1 ->
          List.for_all
            (fun c2 ->
              List.for_all
                (fun d1 ->
                  List.for_all
                    (fun d2 ->
                      let disagree =
                        Disagree.tuples db [ c1; c2 ] [ d1; d2 ]
                      in
                      let mergeable =
                        Seq.exists
                          (fun p ->
                            String.equal
                              (Partition.representative p c1)
                              (Partition.representative p d1)
                            && String.equal
                                 (Partition.representative p c2)
                                 (Partition.representative p d2))
                          (Partition.all_valid db)
                      in
                      disagree = not mergeable)
                    constants)
                constants)
            constants)
        constants)

(* --- the syntactic α formula --- *)

let test_alpha_formula_agrees_semantics () =
  (* Evaluate the Lemma-10 formula on Ph₂ and compare with the
     union-find oracle, on every pair for TEACHES. *)
  let ph2 = Ph.ph2 socrates in
  let constants = Cw_database.constants socrates in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          let syntactic =
            Eval.holds ph2
              [ (Alpha.free_var 1, c1); (Alpha.free_var 2, c2) ]
              (Alpha.formula ~pred:"TEACHES" ~arity:2)
          in
          let semantic = Disagree.alpha_holds socrates "TEACHES" [ c1; c2 ] in
          check_bool (Printf.sprintf "alpha(%s, %s)" c1 c2) semantic syntactic)
        constants)
    constants

let test_alpha_formula_size_growth () =
  (* O(k log k): the node count for arity 2k is well under 4x the node
     count for arity k once k is large enough. *)
  let size k = Formula.size (Alpha.formula ~pred:"P" ~arity:k) in
  let s4 = size 4 and s8 = size 8 and s16 = size 16 in
  check_bool "growth 4->8 below quadratic" true (s8 < 4 * s4);
  check_bool "growth 8->16 below quadratic" true (s16 < 4 * s8)

let test_connectivity_formula () =
  (* Connectivity on a concrete little graph, via a database whose E
     relation is the edge set. *)
  let v =
    Vocabulary.make ~constants:[ "a"; "b"; "c"; "d" ] ~predicates:[ ("E", 2) ]
  in
  let edge_rel =
    Relation.of_tuples 2 [ [ "a"; "b" ]; [ "b"; "c" ] ]
  in
  let db =
    Database.make ~vocabulary:v ~domain:[ "a"; "b"; "c"; "d" ]
      ~constants:(List.map (fun c -> (c, c)) [ "a"; "b"; "c"; "d" ])
      ~relations:[ ("E", edge_rel) ]
  in
  let edge u v =
    Formula.Or (Formula.Atom ("E", [ u; v ]), Formula.Atom ("E", [ v; u ]))
  in
  let connected x y =
    let f =
      Alpha.connectivity ~nodes:4 (Term.var "s", Term.var "t") ~edge
    in
    Eval.holds db [ ("s", x); ("t", y) ] f
  in
  check_bool "path a-c" true (connected "a" "c");
  check_bool "reflexive" true (connected "d" "d");
  check_bool "disconnected" false (connected "a" "d")

(* --- the translation --- *)

let test_translate_shapes () =
  let f = Parser.formula "~(socrates = plato)" in
  check Support.formula_testable "inequality becomes NE"
    (Formula.Atom (Ph.ne_predicate, [ Term.const "socrates"; Term.const "plato" ]))
    (Translate.formula Translate.Semantic f);
  let g = Parser.formula ~free_vars:[ "x" ] "~P(x)" in
  check Support.formula_testable "negated atom becomes alpha$"
    (Formula.Atom (Disagree.alpha_predicate "P", [ Term.var "x" ]))
    (Translate.formula Translate.Semantic g)

let test_translate_positive_untouched () =
  let f = Parser.formula "exists x. TEACHES(x, plato) /\\ x = socrates" in
  check Support.formula_testable "positive fixed point" f
    (Translate.formula Translate.Semantic f);
  check Support.formula_testable "positive fixed point (syntactic)" f
    (Translate.formula Translate.Syntactic f)

let test_translate_so_restriction () =
  let f =
    Formula.Exists2 ("Q", 1, Formula.Not (Formula.Atom ("Q", [ Term.const "a" ])))
  in
  (match Translate.formula Translate.Semantic f with
  | exception Translate.Unsupported _ -> ()
  | _ -> Alcotest.fail "semantic mode must reject negated SO atoms");
  (* Syntactic mode accepts it. *)
  ignore (Translate.formula Translate.Syntactic f)

(* --- end-to-end approximation --- *)

let test_approx_examples () =
  check_bool "positive fact" true
    (Approx.boolean socrates (q "(). TEACHES(socrates, plato)"));
  check_bool "provable negation recovered" true
    (Approx.boolean socrates (q "(). ~TEACHES(plato, plato)"));
  check_bool "open negation rejected" false
    (Approx.boolean socrates (q "(). ~TEACHES(mystery, plato)"));
  check_bool "NE from axiom" true
    (Approx.boolean socrates (q "(). socrates != plato"));
  check_bool "open inequality rejected" false
    (Approx.boolean socrates (q "(). mystery != plato"))

(* The paper's motivating incompleteness: approximation may miss
   certain answers on non-positive queries over unknowns. Disjunction
   of complementary unknowns is the classic case. *)
let test_approx_incompleteness_witness () =
  let db =
    database
      ~predicates:[ ("P", 1) ]
      ~constants:[ "a"; "b" ]
      ~facts:[ ("P", [ "a" ]) ]
      ()
  in
  (* P(b) ∨ ¬P(b): certainly true (tautology), but the approximation
     evaluates P(b) = false on Ph₂ and α_P(b) = false (b might equal a),
     so it answers false — sound, not complete. *)
  let tautology = q "(). P(b) \\/ ~P(b)" in
  check_bool "exact says true" true (Certain.certain_boolean db tautology);
  check_bool "approximation misses it" false (Approx.boolean db tautology)

(* Theorem 11: soundness, on random database/query pairs, all three
   modes/backends. *)
let soundness_property mode backend name =
  QCheck2.Test.make ~count:120 ~name ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.subset
        (Approx.answer ~mode ~backend db query)
        (Certain.answer db query))

let soundness_semantic_direct =
  soundness_property Translate.Semantic Approx.Direct
    "soundness (semantic, direct)"

let soundness_syntactic_direct =
  soundness_property Translate.Syntactic Approx.Direct
    "soundness (syntactic, direct)"

let soundness_semantic_algebra =
  soundness_property Translate.Semantic Approx.Algebra
    "soundness (semantic, algebra)"

(* Theorem 12: completeness on fully specified databases. *)
let completeness_fully_specified =
  QCheck2.Test.make ~count:100 ~name:"theorem 12 (fully specified)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      let full = Cw_database.fully_specify db in
      Relation.equal (Approx.answer full query) (Certain.answer full query))

(* Theorem 13: completeness on positive queries. *)
let completeness_positive =
  QCheck2.Test.make ~count:150 ~name:"theorem 13 (positive queries)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      QCheck2.assume (Query.is_positive query);
      Relation.equal (Approx.answer db query) (Certain.answer db query))

(* Every practical mode × backend combination computes the same
   answers. The Syntactic × Algebra combination is excluded here: the
   Lemma-10 subformulas carry ~10 nested quantifiers, and the
   active-domain compiler materializes D^k per quantifier depth — the
   blow-up Theorem 14 avoids by treating α_P as a virtual atom (see
   the note in Evaluate's interface). A fixed-instance check below
   keeps that path correct without the random-instance cost. *)
let modes_agree =
  QCheck2.Test.make ~count:100 ~name:"modes and backends agree"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      let reference = Approx.answer ~mode:Translate.Semantic db query in
      List.for_all
        (fun (mode, backend) ->
          Relation.equal reference (Approx.answer ~mode ~backend db query))
        [
          (Translate.Semantic, Approx.Algebra);
          (Translate.Semantic, Approx.Algebra_optimized);
          (Translate.Syntactic, Approx.Direct);
        ])

let test_syntactic_algebra_fixed () =
  (* Smallest meaningful instance: 2 constants keep the α-formula's
     quantifier tower cheap to materialize. *)
  let db =
    database ~predicates:[ ("P", 1) ] ~constants:[ "a"; "b" ]
      ~facts:[ ("P", [ "a" ]) ]
      ()
  in
  let q = Parser.query "(x). ~P(x)" in
  let reference = Approx.answer db q in
  List.iter
    (fun backend ->
      check Support.relation_testable "syntactic algebra" reference
        (Approx.answer ~mode:Translate.Syntactic ~backend db q))
    [ Approx.Algebra; Approx.Algebra_optimized ]

(* --- the naive-tables baseline (E11's claims as unit/property tests) --- *)

let test_naive_tables_unsound_witness () =
  (* Naive evaluation treats "mystery" as a fresh value, so it accepts
     ~TEACHES(mystery, plato) — which is not certain. *)
  let q = Parser.query "(). ~TEACHES(mystery, plato)" in
  check_bool "naive accepts" true (Naive_tables.boolean socrates q);
  check_bool "but not certain" false (Certain.certain_boolean socrates q);
  check_bool "approximation stays sound" false (Approx.boolean socrates q)

let naive_tables_positive_exact =
  QCheck2.Test.make ~count:150 ~name:"naive tables exact on positive queries"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      QCheck2.assume (Query.is_positive query);
      Relation.equal (Naive_tables.answer db query) (Certain.answer db query))

let naive_tables_contains_certain =
  (* Naive evaluation errs only on the side of unsound extras: Ph1 is
     itself a model of T, so a certain tuple satisfies the query there
     too — certain ⊆ naive always. *)
  QCheck2.Test.make ~count:150 ~name:"certain ⊆ naive (Ph1 is a model)"
    ~print:Support.print_db_query
    (Support.gen_db_and_query ~arity:1)
    (fun (db, query) ->
      Relation.subset (Certain.answer db query) (Naive_tables.answer db query))

(* The storage reads NE from the uniqueness axioms in place: every
   backend agrees with Q-hat over the explicit Ph2, and a vocabulary
   that declares NE is refused as Ph2 refuses it. *)
let test_in_place_ne () =
  let text = "(x, y). ~(x = y) /\\ ~TEACHES(x, y)" in
  let hat = Translate.query Translate.Semantic (q text) in
  let reference =
    Eval.answer ~virtuals:(Disagree.virtuals socrates) (Ph.ph2 socrates) hat
  in
  List.iter
    (fun backend ->
      check Support.relation_testable text reference
        (Approx.answer ~backend socrates (q text)))
    [ Approx.Direct; Approx.Algebra; Approx.Algebra_optimized ];
  let storage, _ = Approx.storage socrates in
  check_bool "storage is Ph1" true (Database.equal storage (Ph.ph1 socrates));
  let declares_ne =
    database ~predicates:[ ("NE", 2) ] ~constants:[ "a"; "b" ] ()
  in
  match Approx.answer declares_ne (q "(x). exists y. NE(x, y)") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a declared NE"

let virtual_full_count f =
  let buf = Obs.buffer () in
  ignore (Obs.with_sink (Obs.buffer_sink buf) f);
  Option.value ~default:0
    (List.assoc_opt "relational.virtual_full"
       (Obs.counter_totals (Obs.events buf)))

(* A virtual atom that a stored atom or a join binds is filtered, not
   built over D^k: on either side of an intersection, permuted, under a
   semijoin, or bound by a two-atom join. One that nothing binds (all
   of NE, or alpha$S with its second column free) is built and
   counted. Over a fully specified 128-constant database whose S holds
   the reverse of four R pairs, so that reading ~S(y, x) as ~S(x, y)
   changes the answer. *)
let test_virtual_full_counter () =
  let n = 128 in
  let names = Array.init n (Printf.sprintf "c%03d") in
  let chain p shift =
    List.init n (fun i -> (p, [ names.(i); names.((i + shift) mod n) ]))
  in
  let reversed = List.init 4 (fun i -> ("S", [ names.(i + 1); names.(i) ])) in
  let marked = List.init (n / 2) (fun i -> ("U", [ names.(2 * i) ])) in
  let db =
    Cw_database.fully_specify
      (database ~predicates:[ ("R", 2); ("S", 2); ("U", 1) ]
         ~facts:(chain "R" 1 @ chain "S" 3 @ reversed @ marked) ())
  in
  let builds text expected_rows =
    let answer = ref (Relation.empty 0) in
    let count =
      virtual_full_count (fun () ->
          answer := Approx.answer ~backend:Approx.Algebra_optimized db (q text))
    in
    Alcotest.(check int)
      (text ^ ": rows") expected_rows (Relation.cardinal !answer);
    count
  in
  let check_int = Alcotest.(check int) in
  check_int "alpha bound by R" 0
    (builds "(x). exists y. R(x, y) /\\ ~S(x, y)" n);
  check_int "NE bound by R" 0 (builds "(x, y). R(x, y) /\\ ~(x = y)" n);
  check_int "alpha left of R" 0 (builds "(x, y). ~S(x, y) /\\ R(x, y)" n);
  check_int "permuted alpha" 0
    (builds "(x, y). R(x, y) /\\ ~S(y, x)" (n - 4));
  check_int "alpha under a semijoin" 0
    (builds "(x). exists y. R(x, y) /\\ ~U(y)" (n / 2));
  check_int "alpha bound by a join" 0
    (builds "(x, y). exists z. R(x, z) /\\ R(z, y) /\\ ~S(x, y)" n);
  check_int "alpha with a free column" 1
    (builds "(x, y). exists z. R(x, z) /\\ ~S(z, y)" ((n * (n - 1)) - 4));
  check_int "NE bound by nothing" 1 (builds "(x, y). ~(x = y)" (n * (n - 1)));
  let storage, hooks = Approx.storage db in
  let plan =
    Optimizer.optimize storage
      (Compile.query storage
         (Translate.query Translate.Semantic (q "(x, y). ~(x = y)")))
  in
  check_int "algebra fallback" 1
    (virtual_full_count (fun () -> Algebra.run ~virtuals:hooks storage plan))

let test_completeness_certificates () =
  check_bool "personnel fully specified" true
    (Approx.completeness personnel (q "(x). ~(exists y. EMP_DEPT(x, y))")
     = Approx.Complete_fully_specified);
  check_bool "positive query" true
    (Approx.completeness socrates (q "(x). exists y. TEACHES(x, y)")
     = Approx.Complete_positive);
  check_bool "sound only" true
    (Approx.completeness socrates (q "(x). ~TEACHES(x, plato)")
     = Approx.Sound_only)

let suite =
  [
    Alcotest.test_case "disagree basics" `Quick test_disagree_basics;
    Alcotest.test_case "disagree chains" `Quick test_disagree_transitive_chain;
    Alcotest.test_case "alpha oracle" `Quick test_alpha_holds;
    Support.qcheck_case disagree_is_unsat;
    Alcotest.test_case "alpha formula = oracle" `Quick
      test_alpha_formula_agrees_semantics;
    Alcotest.test_case "alpha formula size" `Quick test_alpha_formula_size_growth;
    Alcotest.test_case "connectivity formula" `Quick test_connectivity_formula;
    Alcotest.test_case "translate shapes" `Quick test_translate_shapes;
    Alcotest.test_case "positive untouched" `Quick
      test_translate_positive_untouched;
    Alcotest.test_case "SO restriction" `Quick test_translate_so_restriction;
    Alcotest.test_case "approx examples" `Quick test_approx_examples;
    Alcotest.test_case "incompleteness witness" `Quick
      test_approx_incompleteness_witness;
    Support.qcheck_case soundness_semantic_direct;
    Support.qcheck_case soundness_syntactic_direct;
    Support.qcheck_case soundness_semantic_algebra;
    Support.qcheck_case completeness_fully_specified;
    Support.qcheck_case completeness_positive;
    Support.qcheck_case modes_agree;
    Alcotest.test_case "syntactic algebra (fixed)" `Quick
      test_syntactic_algebra_fixed;
    Alcotest.test_case "naive tables unsound" `Quick
      test_naive_tables_unsound_witness;
    Support.qcheck_case naive_tables_positive_exact;
    Support.qcheck_case naive_tables_contains_certain;
    Alcotest.test_case "completeness certificates" `Quick
      test_completeness_certificates;
    Alcotest.test_case "disagree positionwise axiom" `Quick
      test_disagree_positionwise_axiom;
    Alcotest.test_case "NE read in place" `Quick test_in_place_ne;
    Alcotest.test_case "D^k fallback counted" `Quick test_virtual_full_counter;
  ]
