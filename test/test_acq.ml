(* The optimizer's fused joins: optimized plans (and the optimized
   approximation backend) against the Tarskian evaluator, a speed floor
   over the padded plan, and the Join/Semijoin algebra operators
   against a list model, with a virtual operand that [Algebra.run]
   bounds by the other operand's rows. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Shared database for evaluator tests *)

let vocabulary =
  Vocabulary.make ~constants:[ "a"; "b" ]
    ~predicates:[ ("P", 1); ("R", 2); ("S", 2); ("T", 2) ]

let db =
  Database.make ~vocabulary
    ~domain:[ "a"; "b"; "c"; "d" ]
    ~constants:[ ("a", "a"); ("b", "b") ]
    ~relations:
      [
        ("P", Relation.of_tuples 1 [ [ "a" ]; [ "c" ] ]);
        ( "R",
          Relation.of_tuples 2
            [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ]; [ "a"; "a" ] ] );
        ( "S",
          Relation.of_tuples 2 [ [ "b"; "c" ]; [ "c"; "a" ]; [ "d"; "d" ] ] );
        ("T", Relation.of_tuples 2 [ [ "c"; "a" ]; [ "d"; "b" ] ]);
      ]

let q s = Logicaldb.query s

(* Three shifted successor chains over a domain of [n] elements:
   |R| = |S| = |T| = n, so the fused joins of a path, star or triangle
   CQ are linear in [n] while the padded plan pays n^3. *)
let e i = Printf.sprintf "e%03d" i

let chain_db n =
  let chain shift =
    Relation.of_tuples 2 (List.init n (fun i -> [ e i; e ((i + shift) mod n) ]))
  in
  Database.make
    ~vocabulary:
      (Vocabulary.make ~constants:[]
         ~predicates:[ ("R", 2); ("S", 2); ("T", 2) ])
    ~domain:(List.init n e) ~constants:[]
    ~relations:[ ("R", chain 1); ("S", chain 2); ("T", chain 3) ]

let path_q =
  q "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)"

let star_q =
  q "(h). exists a. exists b. exists c. R(h, a) /\\ S(h, b) /\\ T(h, c)"

let triangle_q = q "(x). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, x)"

(* A CW database of 12 constants: [R] and [S] chains, [S] also holding
   every third pair of [R], and the first four constants unknown (no
   uniqueness axioms among them). *)
let negated_cw =
  let n = 12 in
  let fact p i j = { Cw_database.pred = p; args = [ e i; e (j mod n) ] } in
  Cw_database.make
    ~vocabulary:
      (Vocabulary.make ~constants:(List.init n e)
         ~predicates:[ ("R", 2); ("S", 2) ])
    ~facts:
      (List.init n (fun i -> fact "R" i (i + 1))
      @ List.init n (fun i -> fact "S" i (i + 2))
      @ List.init (n / 3) (fun k -> fact "S" (3 * k) ((3 * k) + 1)))
    ~distinct:
      (List.concat_map
         (fun j -> List.init j (fun i -> (e i, e j)))
         (List.init (n - 4) (fun j -> j + 4)))

(* ------------------------------------------------------------------ *)
(* Optimized plans vs the Tarskian evaluator on fixed queries *)

let expect_optimized ?(db = db) query =
  check Support.relation_testable
    (Pretty.query_to_string query)
    (Eval.answer db query)
    (Algebra.run db (Optimizer.optimize db (Compile.query db query)))

let test_parity_fixed () =
  expect_optimized (q "(x, z). exists y. R(x, y) /\\ S(y, z)");
  expect_optimized
    (q "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)");
  expect_optimized (q "(h). exists x. exists y. R(h, x) /\\ S(h, y) /\\ P(h)");
  expect_optimized (q "(x). R(x, x)");
  expect_optimized (q "(x, y). R(x, y)");
  expect_optimized (q "(). exists x. exists y. R(x, y) /\\ P(x)");
  (* disconnected conjuncts: a cartesian product *)
  expect_optimized (q "(x, y). P(x) /\\ (exists z. S(y, z))");
  (* constants inside atoms *)
  expect_optimized
    (Query.make [ "x" ] (Formula.atom "R" [ Term.var "x"; Term.const "b" ]));
  (* ground guard atom *)
  expect_optimized
    (Query.make [ "x" ]
       (Formula.and_
          (Formula.atom "P" [ Term.var "x" ])
          (Formula.atom "R" [ Term.const "a"; Term.const "b" ])));
  (* boolean query, no variable atoms at all *)
  expect_optimized
    (Query.make [] (Formula.atom "R" [ Term.const "a"; Term.const "b" ]));
  expect_optimized (Query.boolean Formula.True);
  (* the chain workloads, where the padded plan is checked too *)
  List.iter
    (fun n ->
      let db = chain_db n in
      List.iter
        (fun query ->
          check Support.relation_testable
            (Printf.sprintf "padded plan at n = %d: %s" n
               (Pretty.query_to_string query))
            (Eval.answer db query)
            (Algebra.run db (Compile.query db query));
          expect_optimized ~db query)
        [ path_q; star_q; triangle_q ])
    [ 8; 16 ];
  (* a negated atom on the optimized approximation backend, against
     Direct's Tarskian evaluation of the same translated query *)
  let negated = q "(x). exists y. R(x, y) /\\ ~S(x, y)" in
  check Support.relation_testable "optimized backend = Direct"
    (Approx.answer ~backend:Approx.Direct negated_cw negated)
    (Approx.answer ~backend:Approx.Algebra_optimized negated_cw negated)

(* The fused path plan beats the padded plan, whose intermediates grow
   like n^3, at least 5x at n = 64. On a two-core VM they take about
   3 s and 0.1-0.2 ms, so the floor leaves room for noisy runners. *)
let test_fused_speed_floor () =
  let n = 64 in
  let db = chain_db n in
  let padded = Compile.query db path_q in
  let fused = Optimizer.optimize db padded in
  let seconds f =
    let t0 = Obs.now_ns () in
    let r = f () in
    (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9, r)
  in
  let t_padded, padded_answer = seconds (fun () -> Algebra.run db padded) in
  check Support.relation_testable "padded = fused at n = 64" padded_answer
    (Algebra.run db fused);
  let runs = 50 in
  let t_fused, () =
    seconds (fun () ->
        for _ = 1 to runs do
          ignore (Algebra.run db fused)
        done)
  in
  let factor = t_padded /. (t_fused /. float_of_int runs) in
  if factor < 5. then
    Alcotest.failf "fused plan only %.1fx faster than the padded plan" factor

(* A compiled conjunctive plan picks up Join/Semijoin nodes through the
   optimizer. *)
let rec has_join = function
  | Algebra.Join _ | Algebra.Semijoin _ -> true
  | Algebra.Base _ | Algebra.Virtual _ | Algebra.Domain | Algebra.Empty _ ->
    false
  | Algebra.Select (_, e) | Algebra.Project (_, e) -> has_join e
  | Algebra.Product (a, b)
  | Algebra.Union (a, b)
  | Algebra.Inter (a, b)
  | Algebra.Diff (a, b) -> has_join a || has_join b

let test_optimizer_fuses_conjunctions () =
  let query = q "(x). exists y. R(x, y) /\\ P(y)" in
  let plan = Optimizer.optimize db (Compile.query db query) in
  check_bool "optimized plan contains a join" true (has_join plan);
  check Support.relation_testable "fused plan agrees with Eval"
    (Eval.answer db query) (Algebra.run db plan);
  let path = q "(x, z). exists y. R(x, y) /\\ S(y, z)" in
  let plan = Optimizer.optimize db (Compile.query db path) in
  check_bool "path plan contains a join" true (has_join plan);
  check Support.relation_testable "path plan agrees with Eval"
    (Eval.answer db path) (Algebra.run db plan)

(* ------------------------------------------------------------------ *)
(* QCheck: Join/Semijoin vs the list model *)

let gen_join_case =
  let open QCheck2.Gen in
  let elements = [ "a"; "b"; "c" ] in
  let* ka = int_range 1 3 and* kb = int_range 1 3 in
  let gen_tuple k = list_repeat k (oneofl elements) in
  let* ta = list_size (int_bound 8) (gen_tuple ka)
  and* tb = list_size (int_bound 8) (gen_tuple kb) in
  let* pairs =
    list_size (int_bound 2) (pair (int_bound (ka - 1)) (int_bound (kb - 1)))
  in
  return (ka, kb, ta, tb, pairs)

let join_case_db ka kb ta tb =
  let vocabulary =
    Vocabulary.make ~constants:[] ~predicates:[ ("A", ka); ("B", kb) ]
  in
  Database.make ~vocabulary ~domain:[ "a"; "b"; "c" ] ~constants:[]
    ~relations:
      [ ("A", Relation.of_tuples ka ta); ("B", Relation.of_tuples kb tb) ]

let matches pairs u v =
  List.for_all (fun (i, j) -> List.nth u i = List.nth v j) pairs

(* The operands of a list-model case: both stored, or one of them a
   [Virtual] whose hook is membership in that side's generated tuples,
   which [Algebra.run] bounds by the other side's rows whenever the
   pairs fix all of its columns. The list model is the same either
   way. *)
let gen_operand_case =
  QCheck2.Gen.(pair gen_join_case (oneofl [ `Stored; `Right; `Left ]))

let operands side ka kb ta tb =
  let virtuals name =
    match name with
    | "VA" -> Some (fun t -> List.mem t ta)
    | "VB" -> Some (fun t -> List.mem t tb)
    | _ -> None
  in
  let a, b =
    match side with
    | `Stored -> (Algebra.Base "A", Algebra.Base "B")
    | `Right -> (Algebra.Base "A", Algebra.Virtual ("VB", kb))
    | `Left -> (Algebra.Virtual ("VA", ka), Algebra.Base "B")
  in
  (virtuals, a, b)

let join_vs_list_model =
  QCheck2.Test.make ~count:300 ~name:"Join = list model"
    gen_operand_case
    (fun ((ka, kb, ta, tb, pairs), side) ->
      let db = join_case_db ka kb ta tb in
      let virtuals, a, b = operands side ka kb ta tb in
      let expect =
        Relation.of_tuples (ka + kb)
          (List.concat_map
             (fun u ->
               List.filter_map
                 (fun v -> if matches pairs u v then Some (u @ v) else None)
                 tb)
             ta)
      in
      Relation.equal expect
        (Algebra.run ~virtuals db (Algebra.Join (pairs, a, b))))

let semijoin_vs_list_model =
  QCheck2.Test.make ~count:300 ~name:"Semijoin = list model"
    gen_operand_case
    (fun ((ka, kb, ta, tb, pairs), side) ->
      let db = join_case_db ka kb ta tb in
      let virtuals, a, b = operands side ka kb ta tb in
      let expect =
        Relation.of_tuples ka
          (List.filter (fun u -> List.exists (matches pairs u) tb) ta)
      in
      Relation.equal expect
        (Algebra.run ~virtuals db (Algebra.Semijoin (pairs, a, b))))

(* The interned kernel's Join/Semijoin agree with the string kernel
   (on the discrete structure of a CW database, which is where the
   interned evaluator runs). *)
let interned_join_parity =
  QCheck2.Test.make ~count:300 ~name:"interned Join/Semijoin = strings"
    gen_join_case
    (fun (ka, kb, ta, tb, pairs) ->
      let vocabulary =
        Vocabulary.make ~constants:[ "a"; "b"; "c" ]
          ~predicates:[ ("A", ka); ("B", kb) ]
      in
      let cw =
        Cw_database.make ~vocabulary
          ~facts:
            (List.map (fun args -> { Cw_database.pred = "A"; args }) ta
            @ List.map (fun args -> { Cw_database.pred = "B"; args }) tb)
          ~distinct:[]
      in
      let db = Ph.ph1 cw in
      let scan = Iscan.prepare cw in
      let tab = Iscan.symtab scan in
      let idb = Lazy.force (Iscan.discrete scan).Iscan.idb in
      List.for_all
        (fun expr ->
          match Iplan.of_algebra tab expr with
          | None -> false
          | Some plan ->
            Relation.equal (Algebra.run db expr)
              (Irel.to_relation tab (Iplan.run idb plan)))
        [
          Algebra.Join (pairs, Algebra.Base "A", Algebra.Base "B");
          Algebra.Semijoin (pairs, Algebra.Base "A", Algebra.Base "B");
        ])

let suite =
  [
    Alcotest.test_case "optimized plan = Eval on fixed queries" `Quick
      test_parity_fixed;
    Alcotest.test_case "optimizer fuses conjunctions to joins" `Quick
      test_optimizer_fuses_conjunctions;
    Alcotest.test_case "fused path plan beats the padded plan 5x at n = 64"
      `Slow test_fused_speed_floor;
    Support.qcheck_case join_vs_list_model;
    Support.qcheck_case semijoin_vs_list_model;
    Support.qcheck_case interned_join_parity;
  ]
