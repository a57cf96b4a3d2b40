(* Tests for the interned evaluation kernel: Irel set algebra against a
   list model, enumeration-order parity with Partition.all_valid,
   Iplan/Ieval against the string evaluators, end-to-end parity with
   the brute-force reference (including stats and positional budget
   caps), and the shared enumeration-cap contracts. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let socrates = Support.socrates_db ()
let personnel = Support.personnel_db ()
let ripper = Support.ripper_db ()

let q s = Parser.query s

(* --- Irel against a sorted-list model ------------------------------- *)

let to_model t =
  Array.to_list (Array.map Array.to_list (Irel.rows t))

let norm rows = List.sort_uniq compare (List.map Array.to_list rows)

let strictly_sorted t =
  let rows = Irel.rows t in
  let ok = ref true in
  for i = 1 to Array.length rows - 1 do
    if Irel.compare_rows rows.(i - 1) rows.(i) >= 0 then ok := false
  done;
  !ok

let model_testable = Alcotest.(list (list int))

let gen_rows =
  QCheck2.Gen.(list_size (0 -- 12) (array_repeat 2 (0 -- 4)))

let irel_matches_list_model =
  QCheck2.Test.make ~count:300 ~name:"Irel ops = sorted-list model"
    ~print:(fun (a, b) ->
      Printf.sprintf "a = %s\nb = %s"
        (String.concat " " (List.map (fun r -> Fmt.str "%a" Fmt.(Dump.list int) (Array.to_list r)) a))
        (String.concat " " (List.map (fun r -> Fmt.str "%a" Fmt.(Dump.list int) (Array.to_list r)) b)))
    QCheck2.Gen.(pair gen_rows gen_rows)
    (fun (rows_a, rows_b) ->
      let a = Irel.of_rows 2 rows_a and b = Irel.of_rows 2 rows_b in
      let ma = norm rows_a and mb = norm rows_b in
      to_model a = ma
      && to_model (Irel.union a b) = List.sort_uniq compare (ma @ mb)
      && to_model (Irel.inter a b) = List.filter (fun r -> List.mem r mb) ma
      && to_model (Irel.diff a b)
         = List.filter (fun r -> not (List.mem r mb)) ma
      && Irel.subset a b = List.for_all (fun r -> List.mem r mb) ma
      && Irel.equal a b = (ma = mb)
      && List.for_all
           (fun r -> Irel.mem (Array.of_list r) a = List.mem r ma)
           (List.sort_uniq compare (ma @ mb @ [ [ 0; 0 ]; [ 4; 4 ] ]))
      && to_model (Irel.filter (fun r -> r.(0) mod 2 = 0) a)
         = List.filter (fun r -> List.nth r 0 mod 2 = 0) ma
      && to_model (Irel.project [| 1; 0 |] a)
         = List.sort_uniq compare (List.map List.rev ma)
      && to_model (Irel.product a b)
         = List.sort_uniq compare
             (List.concat_map (fun ra -> List.map (fun rb -> ra @ rb) mb) ma)
      && strictly_sorted (Irel.union a b)
      && strictly_sorted (Irel.product a b)
      && strictly_sorted (Irel.project [| 1; 0 |] a))

let test_irel_full_and_subsets () =
  let full = Irel.full ~domain:[| 0; 2 |] 3 in
  check_int "full cardinality" 8 (Irel.cardinal full);
  check_bool "full is sorted" true (strictly_sorted full);
  check model_testable "full enumerates in lexicographic order"
    [
      [ 0; 0; 0 ]; [ 0; 0; 2 ]; [ 0; 2; 0 ]; [ 0; 2; 2 ];
      [ 2; 0; 0 ]; [ 2; 0; 2 ]; [ 2; 2; 0 ]; [ 2; 2; 2 ];
    ]
    (to_model full);
  check model_testable "nullary full is the unit relation" [ [] ]
    (to_model (Irel.full ~domain:[||] 0));
  check_bool "empty domain, positive arity" true
    (Irel.is_empty (Irel.full ~domain:[||] 2));
  let two = Irel.of_rows 1 [ [| 3 |]; [| 7 |] ] in
  let subsets = List.of_seq (Irel.subsets two) in
  check_int "2^2 subsets" 4 (List.length subsets);
  check model_testable "subset mask order" []
    (to_model (List.nth subsets 0));
  check model_testable "last subset is the whole relation"
    [ [ 3 ]; [ 7 ] ]
    (to_model (List.nth subsets 3))

(* The caps must trip on exactly the same inputs with exactly the same
   messages as the string-side Relation, since the fuzz oracles compare
   raised exceptions across kernels. *)
let test_irel_cap_parity () =
  let boundary = Irel.full ~domain:(Array.init 1024 Fun.id) 2 in
  check_int "1024^2 = 2^20 sits exactly at the cap" (1024 * 1024)
    (Irel.cardinal boundary);
  (match Irel.full ~domain:(Array.init 1025 Fun.id) 2 with
  | _ -> Alcotest.fail "1025^2 must exceed the cap"
  | exception Invalid_argument msg ->
    check Alcotest.string "cap message matches Relation.full"
      "Relation.full: 1025^2 tuples exceeds the enumeration cap" msg);
  (* 3^45 overflows a naive 63-bit product; the saturating check must
     still raise cleanly rather than wrap around. *)
  (match Irel.full ~domain:[| 0; 1; 2 |] 45 with
  | _ -> Alcotest.fail "3^45 must exceed the cap"
  | exception Invalid_argument _ -> ())

(* --- Symtab: dense codes in sorted-name order ------------------------ *)

let test_symtab_codes () =
  let tab = Symtab.make ripper in
  let constants = Cw_database.constants ripper in
  check_int "one code per constant" (List.length constants) (Symtab.size tab);
  List.iteri
    (fun i c ->
      check_int (Printf.sprintf "code of %s is its sorted index" c) i
        (Symtab.code tab c);
      check Alcotest.string "name round-trips" c (Symtab.name tab i))
    constants;
  check Alcotest.(option int) "unknown constant has no code" None
    (Symtab.code_opt tab "not-a-constant");
  (* Every ordered pair, the diagonal included: the symtab's coding
     reads the database's upper-triangle bit matrix from either side. *)
  List.iter
    (fun c ->
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "distinct %s %s" c d)
            (Cw_database.are_distinct ripper c d)
            (Cw_database.Coding.distinct_from_any (Symtab.coding tab)
               (Symtab.code tab c)
               [ Symtab.code tab d ]))
        constants)
    constants

(* --- enumeration-order parity with Partition.all_valid --------------- *)

(* The positional budget-cap contract requires the interned stream to
   visit renamings in exactly [Partition.all_valid]'s order, for both
   orders. Compare the full sequence of representative maps. *)
let renames_of_partitions db order =
  let constants = Cw_database.constants db in
  Partition.all_valid ~order db
  |> Seq.map (fun p -> List.map (Partition.representative p) constants)
  |> List.of_seq

(* [stream] is one of Iscan's two streams, reduced to its renamings. *)
let renames_of_iscan stream db order =
  let plan = Iscan.prepare db in
  let tab = Iscan.symtab plan in
  let constants = Cw_database.constants db in
  stream order plan
  |> Seq.map (fun r ->
         List.map (fun c -> Symtab.name tab r.(Symtab.code tab c)) constants)
  |> List.of_seq

(* Sessions serve stream positions from [Iscan.renamings], so its
   positions are pinned as well as the structure stream's. *)
let test_stream_order_parity () =
  let streams =
    [
      ( "structure_thunks",
        fun order plan ->
          Seq.map
            (fun thunk -> (thunk ()).Iscan.rename)
            (Iscan.structure_thunks ~order plan) );
      ("renamings", fun order plan -> Iscan.renamings ~order plan);
    ]
  in
  List.iter
    (fun (db, db_name) ->
      List.iter
        (fun (order, order_name) ->
          let expected = renames_of_partitions db order in
          List.iter
            (fun (stream_name, stream) ->
              check
                Alcotest.(list (list string))
                (Printf.sprintf "%s/%s %s order" db_name order_name
                   stream_name)
                expected
                (renames_of_iscan stream db order))
            streams)
        [ (Partition.Fresh_first, "Fresh_first");
          (Partition.Merge_first, "Merge_first") ])
    [ (socrates, "socrates"); (personnel, "personnel"); (ripper, "ripper") ]

(* --- Iplan / Ieval against the string evaluators --------------------- *)

let queries_for db =
  ignore db;
  [
    "(x). exists y. TEACHES(x, y)";
    "(x). ~(exists y. TEACHES(x, y))";
    "(x, y). TEACHES(x, y) \\/ TEACHES(y, x)";
    "(). exists x. TEACHES(x, plato)";
  ]

let test_iplan_matches_algebra () =
  let db = socrates in
  let ph1 = Ph.ph1 db in
  let plan = Iscan.prepare db in
  let tab = Iscan.symtab plan in
  let idb = Lazy.force (Iscan.discrete plan).Iscan.idb in
  List.iter
    (fun text ->
      let query = q text in
      match Compile.prepared ph1 query with
      | None -> Alcotest.fail ("query did not compile: " ^ text)
      | Some algebra ->
        (match Iplan.of_algebra tab algebra with
        | None -> Alcotest.fail ("plan did not intern: " ^ text)
        | Some iplan ->
          check Support.relation_testable
            (Printf.sprintf "Iplan.run = Algebra.run on %s" text)
            (Algebra.run ph1 algebra)
            (Irel.to_relation tab (Iplan.run idb iplan))))
    (queries_for db)

let test_ieval_matches_eval () =
  (* Second-order quantifiers fall outside the algebra, so they reach
     the Ieval fallback — compare it against the string Eval on the
     discrete structure. *)
  let db = socrates in
  let ph1 = Ph.ph1 db in
  let plan = Iscan.prepare db in
  let tab = Iscan.symtab plan in
  let idb = Lazy.force (Iscan.discrete plan).Iscan.idb in
  List.iter
    (fun text ->
      let query = q text in
      check Support.relation_testable
        (Printf.sprintf "Ieval.answer = Eval.answer on %s" text)
        (Eval.answer ph1 query)
        (Irel.to_relation tab (Ieval.answer idb query)))
    ("(x). exists2 Q/1. Q(x) /\\ exists y. TEACHES(x, y)"
    :: queries_for db)

(* --- end-to-end parity with the reference (results and stats) ------- *)

(* A full scan (no early exit) visits every partition; the answer
   scans add the discrete seed, which only the fresh-first stream drops
   from its remainder. *)
let full_scan_structures ~order ~boolean db =
  let n = Seq.length (Fuzz_reference.structures ~order db) in
  match (boolean, order) with
  | true, _ | false, Certain.Fresh_first -> n
  | false, Certain.Merge_first -> n + 1

let test_kernel_parity_exhaustive () =
  let cases =
    [
      (socrates, "(x). exists y. TEACHES(x, y)");
      (socrates, "(x). ~(exists y. TEACHES(x, y))");
      (personnel, "(x). ~(exists y. EMP_DEPT(x, y))");
      (ripper, "(). exists x. MURDERER(x) /\\ POLITICIAN(x)");
      (ripper, "(x). MURDERER(x) -> x != victoria");
    ]
  in
  List.iter
    (fun (db, text) ->
      let query = q text in
      let boolean = Query.is_boolean query in
      List.iter
        (fun enumeration ->
          let reference =
            if boolean then
              `Bool (Fuzz_reference.certain_boolean ~enumeration db query)
            else `Rel (Fuzz_reference.answer ~enumeration db query)
          in
          List.iter
            (fun order ->
              let label what = Printf.sprintf "%s on %s" what text in
              let s =
                match reference with
                | `Bool r ->
                  let v, s = Certain.certain_boolean_stats ~order db query in
                  check_bool (label "verdict") r v;
                  s
                | `Rel r ->
                  let v, s = Certain.answer_stats ~order db query in
                  check Support.relation_testable (label "answer") r v;
                  s
              in
              check_int (label "evaluations = structures")
                s.Certain.structures s.Certain.evaluations;
              check_bool (label "not interrupted") true
                (s.Certain.interrupted = None);
              if not s.Certain.early_exit then
                check_int (label "a full scan visits every structure")
                  (full_scan_structures ~order ~boolean db)
                  s.Certain.structures)
            [ Certain.Fresh_first; Certain.Merge_first ])
        [ Fuzz_reference.Partitions; Fuzz_reference.Mappings ])
    cases

let test_possible_parity () =
  List.iter
    (fun (db, text) ->
      let query = q text in
      check Support.relation_testable text
        (Fuzz_reference.possible_answer db query)
        (Certain.possible_answer db query))
    [
      (socrates, "(x). exists y. TEACHES(x, y)");
      (ripper, "(x). MURDERER(x) /\\ POLITICIAN(x)");
    ]

(* --- positional budget caps ------------------------------------------ *)

(* A structure cap admits a prefix of the enumeration: the capped
   answer is the reference's answer over exactly the structures the
   scan reports, and the cap trips only when the stream ran past it
   undecided. *)
let test_budget_positional_parity () =
  let query = q "(x). ~(exists y. TEACHES(x, y))" in
  let stream = Fuzz_reference.structures socrates in
  let total = Seq.length stream in
  List.iter
    (fun cap ->
      let cancel = Cancel.create ~max_structures:cap () in
      let r, s = Certain.answer_stats ~cancel socrates query in
      let label what = Printf.sprintf "%s under cap %d" what cap in
      check_bool (label "within the cap") true (s.Certain.structures <= cap);
      check Support.relation_testable (label "capped answer")
        (Fuzz_reference.answer_in (Seq.take s.Certain.structures stream)
           socrates query)
        r;
      check_bool (label "trips exactly when the cap binds")
        (total > cap && not s.Certain.early_exit)
        (s.Certain.interrupted <> None))
    [ 1; 2; 3; 5; 8 ]

(* --- fact deltas patch the plan ----------------------------------------- *)

(* No session reads a plan's depth buckets or root relations (sessions
   build structures with [image] and [image_slot]), so a patch that
   broke them would pass every session oracle: compare a patched plan
   with a fresh [prepare], structure by structure, under both orders.
   Distinct closes ride along: they patch the symtab, not the facts. *)

type fact_op =
  | Insert of Cw_database.fact
  | Retract of int  (* index into the current facts *)
  | Distinct of string * string

let show_fact f =
  Printf.sprintf "%s(%s)" f.Cw_database.pred (String.concat ", " f.args)

let print_patch_case (constants, facts, distinct, ops) =
  Printf.sprintf "constants %s; facts %s; distinct %s; ops %s"
    (String.concat " " constants)
    (String.concat " " (List.map show_fact facts))
    (String.concat " " (List.map (fun (c, d) -> c ^ "/" ^ d) distinct))
    (String.concat "; "
       (List.map
          (function
            | Insert f -> "insert " ^ show_fact f
            | Retract i -> Printf.sprintf "retract #%d" i
            | Distinct (a, b) -> Printf.sprintf "distinct %s/%s" a b)
          ops))

(* The nullary [Z] lives in the root relations; [P(c0)], whose largest
   code is 0, in the first depth bucket. *)
let gen_patch_case =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let constants = List.init n (Printf.sprintf "c%d") in
  let c = oneofl constants in
  let fact =
    oneof
      [
        return { Cw_database.pred = "Z"; args = [] };
        map (fun a -> { Cw_database.pred = "P"; args = [ a ] }) c;
        map2 (fun a b -> { Cw_database.pred = "R"; args = [ a; b ] }) c c;
      ]
  in
  let* facts = list_size (int_bound 5) fact in
  let* distinct = list_size (int_bound 3) (pair c c) in
  let* ops =
    list_size (int_range 1 12)
      (oneof
         [
           map (fun f -> Insert f) fact;
           map (fun i -> Retract i) nat;
           map2 (fun a b -> Distinct (a, b)) c c;
         ])
  in
  return
    ( constants,
      { Cw_database.pred = "Z"; args = [] }
      :: { Cw_database.pred = "P"; args = [ "c0" ] }
      :: facts,
      List.filter (fun (a, b) -> a <> b) distinct,
      ops )

let same_structure (a : Iscan.structure) (b : Iscan.structure) =
  let ia = Lazy.force a.idb and ib = Lazy.force b.idb in
  a.rename = b.rename
  && ia.Idb.universe = ib.Idb.universe
  && Array.length ia.Idb.rels = Array.length ib.Idb.rels
  && Array.for_all2 Irel.equal ia.Idb.rels ib.Idb.rels

(* Where [patched] builds a structure other than [fresh] does. *)
let plan_mismatch patched fresh =
  let stream order plan =
    Iscan.structure_thunks ~order plan
    |> Seq.map (fun th -> th ())
    |> List.of_seq
  in
  let same_stream order =
    List.equal same_structure (stream order patched) (stream order fresh)
  in
  [
    ("Fresh_first stream", same_stream Partition.Fresh_first);
    ("Merge_first stream", same_stream Partition.Merge_first);
    ("discrete", same_structure (Iscan.discrete patched) (Iscan.discrete fresh));
    ( "image",
      Seq.for_all
        (fun r -> same_structure (Iscan.image patched r) (Iscan.image fresh r))
        (Iscan.renamings fresh) );
  ]
  |> List.find_map (fun (what, ok) -> if ok then None else Some what)

let fact_patch_matches_prepare =
  QCheck2.Test.make ~count:300 ~name:"fact patch = fresh prepare"
    ~print:print_patch_case gen_patch_case
    (fun (constants, facts, distinct, ops) ->
      let db0 =
        Cw_database.make
          ~vocabulary:
            (Vocabulary.make ~constants
               ~predicates:[ ("P", 1); ("R", 2); ("Z", 0) ])
          ~facts ~distinct
      in
      let plan0 = Iscan.prepare db0 in
      let step (db, plan) = function
        | Insert f -> (Cw_database.add_fact db f, Iscan.add_fact plan f)
        | Retract i -> (
          match Cw_database.facts db with
          | [] -> (db, plan)
          | fs ->
            let f = List.nth fs (i mod List.length fs) in
            (Cw_database.remove_fact db f, Iscan.remove_fact plan f))
        | Distinct (a, b) ->
          if a = b || Cw_database.are_distinct db a b then (db, plan)
          else
            let db = Cw_database.add_distinct db a b in
            (db, Iscan.with_axioms plan db)
      in
      let db, plan = List.fold_left step (db0, plan0) ops in
      match
        ( plan_mismatch plan (Iscan.prepare db),
          plan_mismatch plan0 (Iscan.prepare db0) )
      with
      | Some what, _ ->
        QCheck2.Test.fail_reportf "patched plan: %s differs" what
      | None, Some what ->
        QCheck2.Test.fail_reportf "the original plan changed: %s differs" what
      | None, None -> true)

(* A merge re-codes the constants, so an axiom patch must refuse it. *)
let test_axiom_patch_refuses_recoding () =
  let plan = Iscan.prepare socrates in
  let merged =
    Cw_database.merge_constants socrates ~keep:"plato" ~drop:"mystery"
  in
  match Iscan.with_axioms plan merged with
  | _ -> Alcotest.fail "with_axioms accepted a database with other constants"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Support.qcheck_case irel_matches_list_model;
    Alcotest.test_case "Irel full and subsets" `Quick
      test_irel_full_and_subsets;
    Alcotest.test_case "Irel enumeration-cap parity" `Quick
      test_irel_cap_parity;
    Alcotest.test_case "Symtab dense codes" `Quick test_symtab_codes;
    Alcotest.test_case "partition-stream order parity" `Quick
      test_stream_order_parity;
    Alcotest.test_case "Iplan matches Algebra.run" `Quick
      test_iplan_matches_algebra;
    Alcotest.test_case "Ieval matches Eval.answer" `Quick
      test_ieval_matches_eval;
    Alcotest.test_case "kernel parity: results and stats" `Quick
      test_kernel_parity_exhaustive;
    Alcotest.test_case "kernel parity: possible answers" `Quick
      test_possible_parity;
    Alcotest.test_case "budget caps are kernel-positional" `Quick
      test_budget_positional_parity;
    Support.qcheck_case fact_patch_matches_prepare;
    Alcotest.test_case "axiom patch refuses a re-coded database" `Quick
      test_axiom_patch_refuses_recoding;
  ]
