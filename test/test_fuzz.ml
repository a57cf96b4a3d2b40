(* Tests for the differential fuzzing subsystem: generator determinism,
   oracle cleanliness on a fixed-seed stream, corpus round-trips and
   regression replay, shrinker sanity, and the parser-hardening
   regressions the noise fuzzer guards. *)

open Logicaldb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let instance_to_string i = Fmt.to_to_string Fuzz_gen.pp_instance i

(* --- generator determinism: the acceptance criterion that the same
   seed reproduces the identical instance stream --- *)

let test_gen_deterministic () =
  List.iter
    (fun index ->
      let a = Fuzz_gen.instance ~seed:42 index in
      let b = Fuzz_gen.instance ~seed:42 index in
      Alcotest.(check string)
        (Printf.sprintf "instance %d is a pure function of (seed, index)" index)
        (instance_to_string a) (instance_to_string b);
      check_bool "databases equal" true (Cw_database.equal a.Fuzz_gen.db b.Fuzz_gen.db);
      check_bool "queries equal" true (Query.equal a.Fuzz_gen.query b.Fuzz_gen.query))
    [ 0; 1; 17; 99 ]

let test_gen_stream_matches_point_access () =
  let streamed = List.of_seq (Fuzz_gen.stream ~seed:7 ~count:20 ()) in
  check_int "stream length" 20 (List.length streamed);
  List.iteri
    (fun index streamed ->
      let direct = Fuzz_gen.instance ~seed:7 index in
      check_bool
        (Printf.sprintf "stream element %d = direct access" index)
        true
        (String.equal (instance_to_string streamed) (instance_to_string direct)))
    streamed

let test_gen_seeds_disjoint () =
  let a = Fuzz_gen.instance ~seed:1 0 in
  let b = Fuzz_gen.instance ~seed:2 0 in
  check_bool "different seeds give different instances" false
    (String.equal (instance_to_string a) (instance_to_string b))

let test_gen_unknown_density_extremes () =
  (* Density 0 must produce fully specified databases (Theorem 12's
     precondition); density 1 must leave every identity open. *)
  let closed = { Fuzz_gen.default with unknown_density = 0.0 } in
  let open_ = { Fuzz_gen.default with unknown_density = 1.0 } in
  List.iter
    (fun index ->
      let i = Fuzz_gen.instance ~config:closed ~seed:5 index in
      check_bool "density 0 is fully specified" true
        (Cw_database.is_fully_specified i.Fuzz_gen.db);
      let i = Fuzz_gen.instance ~config:open_ ~seed:5 index in
      check_int "density 1 has no uniqueness axioms" 0
        (List.length (Cw_database.distinct_pairs i.Fuzz_gen.db)))
    [ 0; 1; 2; 3; 4 ]

let test_gen_validates_config () =
  Alcotest.check_raises "negative density rejected"
    (Invalid_argument "Fuzz.Gen: unknown_density must lie in [0, 1]")
    (fun () ->
      ignore
        (Fuzz_gen.instance
           ~config:{ Fuzz_gen.default with unknown_density = -0.1 }
           ~seed:0 0))

(* --- the differential driver on a fixed seed: the CI smoke property
   in miniature --- *)

let test_driver_clean_stream () =
  let outcome =
    Fuzz.run
      ~config:{ Fuzz.default with seed = 42; count = 150; noise = 300 }
      ()
  in
  check_bool
    (Fmt.str "no oracle violations: %a" Fuzz.pp_outcome outcome)
    true (Fuzz.clean outcome);
  check_int "all instances ran" 150 outcome.Fuzz.instances;
  check_int "typed lane ran per instance" 150 outcome.Fuzz.checked_typed

(* --- oracles catch seeded bugs: a broken engine result must be
   flagged (the oracle battery is not vacuously green) --- *)

let test_oracle_flags_unsoundness () =
  (* ~P(x) with the identity of a and b open: the naive-tables baseline
     over-answers {b}, and an oracle using it as "exact" would object.
     Here we check the real oracles accept the real engines, and that
     the approximation on this canonical case is strictly below the
     naive baseline — the gap Theorem 11 is about. *)
  let db =
    database ~predicates:[ ("P", 1) ] ~constants:[ "a"; "b" ]
      ~facts:[ ("P", [ "a" ]) ] ()
  in
  let q = Parser.query "(x). ~P(x)" in
  check_int "oracle battery passes the real engines" 0
    (List.length (Fuzz_oracle.check db q));
  check_bool "approx is strictly below naive tables here" true
    (Relation.cardinal (Approx.answer db q)
    < Relation.cardinal (Naive_tables.answer db q))

(* --- corpus round-trips and regression replay --- *)

let test_corpus_roundtrip () =
  List.iter
    (fun index ->
      let i = Fuzz_gen.instance ~seed:11 index in
      let case =
        {
          Fuzz_corpus.oracle = Some "approx-sound";
          query = i.Fuzz_gen.query;
          db = i.Fuzz_gen.db;
        }
      in
      let reparsed = Fuzz_corpus.parse (Fuzz_corpus.print case) in
      check_bool "database survives the corpus format" true
        (Cw_database.equal case.Fuzz_corpus.db reparsed.Fuzz_corpus.db);
      check_bool "query survives the corpus format" true
        (Query.equal case.Fuzz_corpus.query reparsed.Fuzz_corpus.query);
      Alcotest.(check (option string))
        "oracle id survives" case.Fuzz_corpus.oracle reparsed.Fuzz_corpus.oracle)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_corpus_rejects_garbage () =
  let expect_error text =
    match Fuzz_corpus.parse text with
    | _ -> Alcotest.failf "accepted %S" text
    | exception Fuzz_corpus.Corpus_error _ -> ()
  in
  expect_error "";
  expect_error "query (). true\n";
  expect_error "mystery line\n==\nconstant a\n";
  expect_error "query ((((\n==\nconstant a\n"

let test_corpus_regressions_replay_clean () =
  (* The committed shrunk regressions under test/corpus/ must keep
     passing: these encode previously-interesting instances. *)
  let cases = Fuzz_corpus.load_dir "corpus" in
  check_bool "regression corpus is non-empty" true (cases <> []);
  let violations = Fuzz.replay cases in
  List.iter
    (fun (label, v) ->
      Alcotest.failf "%s: %a" label Fuzz_oracle.pp_violation v)
    violations

(* --- shrinker --- *)

let test_shrink_minimizes () =
  let db =
    database ~predicates:[ ("P", 1); ("R", 2) ]
      ~constants:[ "a"; "b"; "c" ]
      ~facts:[ ("P", [ "a" ]); ("R", [ "a"; "b" ]); ("R", [ "b"; "c" ]) ]
      ()
  in
  let query = Parser.query "(x). ~P(x) /\\ exists y. R(x, y)" in
  let case = { Fuzz_shrink.db; query } in
  (* Minimize against "the approximation answers strictly less than
     naive tables" — a semantic property that needs negation and an
     open identity, so the shrinker must keep both alive. *)
  let still_failing (c : Fuzz_shrink.case) =
    Relation.cardinal (Approx.answer c.Fuzz_shrink.db c.Fuzz_shrink.query)
    < Relation.cardinal (Naive_tables.answer c.Fuzz_shrink.db c.Fuzz_shrink.query)
  in
  check_bool "the starting case has the property" true (still_failing case);
  let shrunk = Fuzz_shrink.minimize ~still_failing case in
  check_bool "the property survives shrinking" true (still_failing shrunk);
  check_bool "the cost went down" true
    (Fuzz_shrink.cost shrunk < Fuzz_shrink.cost case);
  check_bool "no candidate improves further (local minimum)" true
    (List.for_all
       (fun c ->
         Fuzz_shrink.cost c >= Fuzz_shrink.cost shrunk || not (still_failing c))
       (Fuzz_shrink.candidates shrunk))

let test_shrink_closes_unknowns () =
  (* Moving from 0 to all uniqueness axioms must be reachable: on a
     predicate-free property the minimum has every identity closed. *)
  let db = database ~predicates:[ ("P", 1) ] ~constants:[ "a"; "b" ] () in
  let case = { Fuzz_shrink.db; query = Parser.query "(). true" } in
  let shrunk = Fuzz_shrink.minimize ~still_failing:(fun _ -> true) case in
  check_bool "all identities closed in the minimum" true
    (Cw_database.is_fully_specified shrunk.Fuzz_shrink.db)

(* --- parser hardening: the regressions behind satellite 2 --- *)

let test_parser_survives_deep_nesting () =
  (* 200k of [~] used to overflow the OCaml stack; the nesting cap now
     raises a positioned Parse_error instead. *)
  let deep = String.make 200_000 '~' ^ "true" in
  (match Parser.formula deep with
  | _ -> Alcotest.fail "a 200k-deep formula should not parse"
  | exception Parser.Parse_error (_, msg) ->
    check_bool "error mentions the nesting cap" true
      (String.length msg > 0)
  | exception Stack_overflow -> Alcotest.fail "nesting cap missed");
  let parens = String.concat "" (List.init 50_000 (fun _ -> "(")) ^ "true" in
  match Parser.formula parens with
  | _ -> Alcotest.fail "unbalanced parens should not parse"
  | exception Parser.Parse_error _ -> ()
  | exception Stack_overflow -> Alcotest.fail "nesting cap missed (parens)"

let test_lexer_survives_huge_integers () =
  (* An over-long digit run used to raise Failure from int_of_string;
     it now lexes as an identifier — a perfectly good constant name in
     term position (vocabulary checks happen later, in the engines). *)
  match Parser.formula "P(99999999999999999999999999)" with
  | Formula.Atom ("P", [ Term.Const huge ]) ->
    check_bool "digit run became a constant" true
      (String.equal huge "99999999999999999999999999")
  | _ -> Alcotest.fail "unexpected parse"
  | exception Failure _ -> Alcotest.fail "huge literal leaked Failure"

let test_noise_inputs_raise_only_documented_exceptions () =
  List.iter
    (fun input ->
      match Fuzz_noise.check_input input with
      | [] -> ()
      | crashes ->
        Alcotest.failf "%a" (Fmt.list Fuzz_noise.pp_crash) crashes)
    [
      String.make 100_000 '~' ^ "true";
      "99999999999999999999999999";
      "(x). P(x";
      "predicate P/99999999999999999999";
      "fact P(\x00\xff)";
      "";
      "((((((((((";
    ]

let test_noise_run_clean () =
  let crashes = Fuzz_noise.run ~seed:3 ~count:400 in
  List.iter
    (fun c -> Alcotest.failf "%a" Fuzz_noise.pp_crash c)
    crashes

let suite =
  [
    Alcotest.test_case "generator is deterministic" `Quick
      test_gen_deterministic;
    Alcotest.test_case "stream = point access" `Quick
      test_gen_stream_matches_point_access;
    Alcotest.test_case "seeds are disjoint" `Quick test_gen_seeds_disjoint;
    Alcotest.test_case "unknown-density extremes" `Quick
      test_gen_unknown_density_extremes;
    Alcotest.test_case "config validation" `Quick test_gen_validates_config;
    Alcotest.test_case "driver: clean fixed-seed stream" `Quick
      test_driver_clean_stream;
    Alcotest.test_case "oracle battery on the canonical gap" `Quick
      test_oracle_flags_unsoundness;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus rejects garbage" `Quick
      test_corpus_rejects_garbage;
    Alcotest.test_case "corpus regressions replay clean" `Quick
      test_corpus_regressions_replay_clean;
    Alcotest.test_case "shrinker minimizes" `Quick test_shrink_minimizes;
    Alcotest.test_case "shrinker closes unknowns" `Quick
      test_shrink_closes_unknowns;
    Alcotest.test_case "parser: deep nesting capped" `Quick
      test_parser_survives_deep_nesting;
    Alcotest.test_case "lexer: huge integers" `Quick
      test_lexer_survives_huge_integers;
    Alcotest.test_case "noise: documented exceptions only" `Quick
      test_noise_inputs_raise_only_documented_exceptions;
    Alcotest.test_case "noise: seeded run is clean" `Quick
      test_noise_run_clean;
  ]
