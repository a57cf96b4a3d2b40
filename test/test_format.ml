(* Tests for the .ldb text format. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db_testable = Alcotest.testable Cw_database.pp Cw_database.equal

let sample_text =
  {|# sample database
predicate TEACHES/2 WISE/1
constant mystery
fact TEACHES(socrates, plato)
fact WISE(socrates)
distinct socrates plato
|}

let test_parse_sample () =
  let db = Ldb_format.parse sample_text in
  check
    Alcotest.(list string)
    "constants (explicit + implicit)"
    [ "mystery"; "plato"; "socrates" ]
    (Cw_database.constants db);
  check_int "facts" 2 (List.length (Cw_database.facts db));
  check_bool "distinct" true (Cw_database.are_distinct db "plato" "socrates")

let test_fully_specified_directive () =
  let db = Ldb_format.parse "constant a b c\nfully_specified\n" in
  check_bool "closed" true (Cw_database.is_fully_specified db);
  check_int "all pairs" 3 (List.length (Cw_database.distinct_pairs db))

let test_zero_ary_fact () =
  let db = Ldb_format.parse "predicate FLAG/0\nconstant a\nfact FLAG()\n" in
  check_int "one fact" 1 (List.length (Cw_database.facts db))

let test_syntax_errors () =
  let expect_error text =
    match Ldb_format.parse text with
    | exception Ldb_format.Syntax_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "%S should be rejected" text)
  in
  expect_error "predicate P\n";
  expect_error "predicate P/x\n";
  expect_error "fact P(a\n";
  expect_error "distinct a\n";
  expect_error "distinct a b c\n";
  expect_error "bogus directive\n";
  (* semantic: undeclared predicate arity *)
  expect_error "predicate P/2\nfact P(a)\n"

let test_error_line_numbers () =
  match Ldb_format.parse "constant a\n\n# fine\ndistinct a\n" with
  | exception Ldb_format.Syntax_error (4, _) -> ()
  | exception Ldb_format.Syntax_error (n, _) ->
    Alcotest.failf "wrong line: %d" n
  | _ -> Alcotest.fail "expected a syntax error"

let test_roundtrip_fixtures () =
  List.iter
    (fun db ->
      check db_testable "print/parse round-trip" db
        (Ldb_format.parse (Ldb_format.print db)))
    [
      Support.socrates_db ();
      Support.personnel_db ();
      Support.ripper_db ();
    ]

let roundtrip_random =
  QCheck2.Test.make ~count:150 ~name:"ldb print/parse round-trip"
    ~print:Support.print_db Support.gen_cw_database
    (fun db -> Cw_database.equal db (Ldb_format.parse (Ldb_format.print db)))

let test_file_io () =
  let path = Filename.temp_file "logicaldb" ".ldb" in
  let db = Support.socrates_db () in
  Ldb_format.save path db;
  let loaded = Ldb_format.load path in
  Sys.remove path;
  check db_testable "save/load" db loaded

(* --- the one-pass parser --- *)

(* [text] parsed, after checking that the reference parser reads the
   same database. *)
let parse_both text =
  let db = Ldb_format.parse text in
  check db_testable "reference parser agrees" (Fuzz_reference.ldb_parse text) db;
  db

let pairs = Alcotest.(list (pair string string))

let test_crlf_and_tabs () =
  let db =
    parse_both
      "predicate\tP/1 R/2\r\nconstant a\t b\r\nfact\tP( a )\r\nfact R(a,\tb)\r\n\
       distinct\ta \t b\r\n"
  in
  check pairs "pair" [ ("a", "b") ] (Cw_database.distinct_pairs db);
  check_bool "P(a)" true
    (Cw_database.mem_fact db { Cw_database.pred = "P"; args = [ "a" ] });
  check_bool "R(a, b)" true
    (Cw_database.mem_fact db { Cw_database.pred = "R"; args = [ "a"; "b" ] })

let test_comment_after_distinct () =
  let db = parse_both "distinct a b # a and b differ\ndistinct b c#c too\n# done" in
  check pairs "pairs" [ ("a", "b"); ("b", "c") ] (Cw_database.distinct_pairs db)

let test_distinct_either_order () =
  let db = parse_both "distinct b a\ndistinct a b\n" in
  check pairs "one axiom" [ ("a", "b") ] (Cw_database.distinct_pairs db);
  check_int "size: 2 constants + 1 axiom" 3 (Cw_database.size db)

let test_fully_specified_first () =
  let db = parse_both "fully_specified\nconstant c b a\n" in
  check_bool "closed" true (Cw_database.is_fully_specified db);
  check pairs "all pairs" [ ("a", "b"); ("a", "c"); ("b", "c") ]
    (Cw_database.distinct_pairs db)

let test_constant_first_in_distinct () =
  let db = parse_both "constant a\ndistinct a9 a10\ndistinct B a9\n" in
  check Alcotest.(list string) "byte order" [ "B"; "a"; "a10"; "a9" ]
    (Cw_database.constants db);
  check pairs "pairs" [ ("B", "a9"); ("a10", "a9") ] (Cw_database.distinct_pairs db)

let test_predicate_declared_later () =
  let db = parse_both "fact P(a)\nconstant b\npredicate P/1\n" in
  check Alcotest.(list (list string)) "P" [ [ "a" ] ] (Cw_database.facts_of db "P")

let test_distinct_self_inconsistent () =
  let expect_invalid parse =
    match parse "constant a b\ndistinct a a\n" with
    | exception Invalid_argument _ -> ()
    | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "distinct a a accepted"
  in
  expect_invalid Ldb_format.parse;
  expect_invalid Fuzz_reference.ldb_parse;
  (* a later syntax error wins over the inconsistency *)
  match Ldb_format.parse "distinct a a\nbogus\n" with
  | exception Ldb_format.Syntax_error (2, _) -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected a syntax error"

let test_error_line_after_many_distinct () =
  let buffer = Buffer.create (16 * 10_000) in
  Buffer.add_string buffer "constant z\n";
  for i = 1 to 10_000 do
    Buffer.add_string buffer (Printf.sprintf "distinct c%d z\n" i)
  done;
  Buffer.add_string buffer "distinct c1\n";
  let text = Buffer.contents buffer in
  let expected = (10_002, "distinct takes exactly two constants") in
  List.iter
    (fun (label, parse) ->
      match parse text with
      | exception Ldb_format.Syntax_error (line, msg) ->
        check Alcotest.(pair int string) label expected (line, msg)
      | _ -> Alcotest.failf "%s: expected a syntax error" label)
    [ ("parse", Ldb_format.parse); ("reference", Fuzz_reference.ldb_parse) ]

(* [print]'s bytes seed fuzz instances and fill the durable corpus, so
   they are pinned here. *)
let test_print_bytes () =
  let db =
    Ldb_format.parse
      "predicate R/2 Z/0\nconstant a9 a10 B\nfact Z()\nfact R(a9, B)\n\
       distinct a9 a10\ndistinct a9 B\n"
  in
  check Alcotest.string "printed"
    "predicate R/2\npredicate Z/0\nconstant B a10 a9\nfact R(a9, B)\nfact Z()\n\
     distinct B a9\ndistinct a10 a9\n"
    (Ldb_format.print db)

let suite =
  [
    Alcotest.test_case "parse sample" `Quick test_parse_sample;
    Alcotest.test_case "fully_specified directive" `Quick
      test_fully_specified_directive;
    Alcotest.test_case "zero-ary facts" `Quick test_zero_ary_fact;
    Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    Alcotest.test_case "fixture round-trips" `Quick test_roundtrip_fixtures;
    Support.qcheck_case roundtrip_random;
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "CRLF and tabs" `Quick test_crlf_and_tabs;
    Alcotest.test_case "comment after distinct" `Quick test_comment_after_distinct;
    Alcotest.test_case "distinct in either order" `Quick test_distinct_either_order;
    Alcotest.test_case "fully_specified before constants" `Quick
      test_fully_specified_first;
    Alcotest.test_case "constant first seen in distinct" `Quick
      test_constant_first_in_distinct;
    Alcotest.test_case "predicate declared after its fact" `Quick
      test_predicate_declared_later;
    Alcotest.test_case "distinct a a is inconsistent" `Quick
      test_distinct_self_inconsistent;
    Alcotest.test_case "error line after 10,000 distinct lines" `Quick
      test_error_line_after_many_distinct;
    Alcotest.test_case "print bytes" `Quick test_print_bytes;
  ]
