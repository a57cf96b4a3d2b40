(* Tests for the flat-code kernel (Icode): compiled-program indices
   stay in bounds for the symtab they were compiled against,
   compile-then-exec agrees with the interpreters (Iplan.run / Ieval)
   on generated plans and generated (db, query) instances, the
   membership probe on both answer forms agrees with
   materialize-then-mem, the engine agrees with the brute-force
   reference (on the fixtures and on the E1-medium workload), and the
   arity-specialized row comparators agree with Irel.compare_rows. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let socrates = Support.socrates_db ()
let ripper = Support.ripper_db ()

let q s = Parser.query s

(* --- arity-specialized comparators vs the generic order -------------- *)

let sign c = compare c 0

let gen_row k = QCheck2.Gen.(array_repeat k (0 -- 6))

let comparators_agree =
  QCheck2.Test.make ~count:500
    ~name:"compare_rows1/2/3 = Irel.compare_rows"
    ~print:(fun ((a1, b1), ((a2, b2), (a3, b3))) ->
      Fmt.str "%a %a | %a %a | %a %a"
        Fmt.(Dump.array int) a1 Fmt.(Dump.array int) b1
        Fmt.(Dump.array int) a2 Fmt.(Dump.array int) b2
        Fmt.(Dump.array int) a3 Fmt.(Dump.array int) b3)
    QCheck2.Gen.(
      pair
        (pair (gen_row 1) (gen_row 1))
        (pair (pair (gen_row 2) (gen_row 2)) (pair (gen_row 3) (gen_row 3))))
    (fun ((a1, b1), ((a2, b2), (a3, b3))) ->
      sign (Icode.compare_rows1 a1 b1) = sign (Irel.compare_rows a1 b1)
      && sign (Icode.compare_rows2 a2 b2) = sign (Irel.compare_rows a2 b2)
      && sign (Icode.compare_rows3 a3 b3) = sign (Irel.compare_rows a3 b3))

let mem_row_agrees =
  QCheck2.Test.make ~count:300 ~name:"mem_row = Irel.mem"
    QCheck2.Gen.(
      pair (list_size (0 -- 10) (gen_row 2)) (gen_row 2))
    (fun (rows, probe) ->
      let rel = Irel.of_rows 2 rows in
      Icode.mem_row probe rel = Irel.mem probe rel)

(* --- a generator of well-formed interned plans ----------------------- *)

(* Plans are generated against the socrates symtab: one binary base
   relation, a handful of constant codes. [gen_plan k] produces a plan
   of output arity [k]; set operations always pair equal arities, so
   every generated plan is one [Iplan.run] accepts. *)

let plan_ctx =
  let plan = Iscan.prepare socrates in
  let tab = Iscan.symtab plan in
  (tab, Lazy.force (Iscan.discrete plan).Iscan.idb, plan)

let gen_plan =
  let tab, _, _ = plan_ctx in
  let n = Symtab.size tab in
  let open QCheck2.Gen in
  let gen_leaf k =
    let leaves =
      (if k = 1 then [ pure Iplan.Domain ] else [])
      @ (if k = Symtab.rel_arity tab 0 then [ pure (Iplan.Base 0) ] else [])
      @ [ pure (Iplan.Empty k) ]
    in
    oneof leaves
  in
  let gen_sel k =
    if k = 0 then
      map2
        (fun c d -> Iplan.Consts_eq (c, d))
        (0 -- (n - 1)) (0 -- (n - 1))
    else
      oneof
        [
          map2 (fun i j -> Iplan.Cols_eq (i mod k, j mod k)) (0 -- 7) (0 -- 7);
          map2 (fun i j -> Iplan.Cols_neq (i mod k, j mod k)) (0 -- 7) (0 -- 7);
          map2
            (fun i c -> Iplan.Col_eq_const (i mod k, c))
            (0 -- 7) (0 -- (n - 1));
          map2
            (fun i c -> Iplan.Col_neq_const (i mod k, c))
            (0 -- 7) (0 -- (n - 1));
          map2 (fun c d -> Iplan.Consts_neq (c, d)) (0 -- (n - 1)) (0 -- (n - 1));
        ]
  in
  let rec gen k depth =
    if depth = 0 then gen_leaf k
    else
      let sub = gen k (depth - 1) in
      let cases =
        [
          sub;
          map2 (fun sel p -> Iplan.Select (sel, p)) (gen_sel k) sub;
          (* project from a wider subplan down to arity k *)
          (let m = min 3 (k + 1) in
           map2
             (fun cols p -> Iplan.Project (cols, p))
             (array_repeat k (0 -- (m - 1)))
             (gen m (depth - 1)));
          map2 (fun a b -> Iplan.Union (a, b)) sub sub;
          map2 (fun a b -> Iplan.Inter (a, b)) sub sub;
          map2 (fun a b -> Iplan.Diff (a, b)) sub sub;
        ]
        @
        if k >= 1 then
          [
            (* product splitting k into 1 + (k-1) *)
            map2
              (fun a b -> Iplan.Product (a, b))
              (gen 1 (depth - 1))
              (gen (k - 1) (depth - 1));
          ]
        else []
      in
      oneof cases
  in
  let* k = 0 -- 3 in
  gen k 3

let rec plan_to_string = function
  | Iplan.Base s -> Printf.sprintf "Base %d" s
  | Iplan.Domain -> "Domain"
  | Iplan.Empty k -> Printf.sprintf "Empty %d" k
  | Iplan.Select (_, p) -> Printf.sprintf "Select(_, %s)" (plan_to_string p)
  | Iplan.Project (cols, p) ->
    Printf.sprintf "Project(%s, %s)"
      (String.concat "," (List.map string_of_int (Array.to_list cols)))
      (plan_to_string p)
  | Iplan.Product (a, b) ->
    Printf.sprintf "Product(%s, %s)" (plan_to_string a) (plan_to_string b)
  | Iplan.Join (_, a, b) ->
    Printf.sprintf "Join(%s, %s)" (plan_to_string a) (plan_to_string b)
  | Iplan.Semijoin (_, a, b) ->
    Printf.sprintf "Semijoin(%s, %s)" (plan_to_string a) (plan_to_string b)
  | Iplan.Union (a, b) ->
    Printf.sprintf "Union(%s, %s)" (plan_to_string a) (plan_to_string b)
  | Iplan.Inter (a, b) ->
    Printf.sprintf "Inter(%s, %s)" (plan_to_string a) (plan_to_string b)
  | Iplan.Diff (a, b) ->
    Printf.sprintf "Diff(%s, %s)" (plan_to_string a) (plan_to_string b)

(* Every compiled instruction's resolved indices must be meaningful for
   the symtab the program was compiled against. *)
let instr_in_bounds tab stack_cap instr =
  let n = Symtab.size tab in
  let pow_ok d = d >= 1 in
  ignore stack_cap;
  match instr with
  | Icode.Load { slot; arity } ->
    slot >= 0 && slot < Symtab.rel_count tab && arity = Symtab.rel_arity tab slot
  | Icode.Load_domain -> true
  | Icode.Load_empty { arity } -> arity >= 0
  | Icode.Sel_cols { div_i; div_j; _ } -> pow_ok div_i && pow_ok div_j
  | Icode.Sel_col_const { div; code; _ } -> pow_ok div && code >= 0 && code < n
  | Icode.Sel_consts { code_c; code_d; _ } ->
    code_c >= 0 && code_c < n && code_d >= 0 && code_d < n
  | Icode.Proj { divs; arity } -> arity >= 0 && Array.for_all pow_ok divs
  | Icode.Prod { mult; arity } -> mult >= 1 && arity >= 0
  | Icode.Union | Icode.Inter | Icode.Diff -> true

let compiled_plan_in_bounds_and_agrees =
  let tab, idb, _ = plan_ctx in
  QCheck2.Test.make ~count:500 ~name:"compile_plan: bounds + exec = Iplan.run"
    ~print:plan_to_string gen_plan
    (fun plan ->
      let prog = Icode.compile_plan tab plan in
      let bounds_ok =
        match Icode.instrs prog with
        | None -> true (* interpreter fallback carries no indices *)
        | Some code ->
          Array.for_all (instr_in_bounds tab (Icode.max_stack prog)) code
          && Icode.max_stack prog >= 1
      in
      bounds_ok
      && Irel.equal
           (Icode.rows ~radix:(Symtab.size tab) ~arity:(Icode.out_arity prog)
              (Icode.exec idb prog))
           (Iplan.run idb plan))

let exec_member_agrees =
  (* The membership probe on a per-structure answer must agree with
     materialize-then-mem on every structure of the scan and every
     candidate row — including rows that rename onto each other — for
     both forms of the answer: the packed program's keys and the
     interpreter's rows. *)
  let tab, _, plan = plan_ctx in
  QCheck2.Test.make ~count:200 ~name:"exec_member = mem after rename"
    ~print:plan_to_string gen_plan
    (fun iplan ->
      let prog = Icode.compile_plan tab iplan in
      let k = Icode.out_arity prog in
      let radix = Symtab.size tab in
      let candidates =
        Irel.rows (Irel.full ~domain:(Array.init (Symtab.size tab) Fun.id) k)
      in
      Iscan.structure_thunks plan
      |> Seq.for_all (fun thunk ->
             let s = thunk () in
             let idb = Lazy.force s.Iscan.idb in
             let ia = Iplan.run idb iplan in
             List.for_all
               (fun answer ->
                 Irel.equal (Icode.rows ~radix ~arity:k answer) ia
                 && Array.for_all
                      (fun row ->
                        Icode.mem ~radix answer ~rename:s.Iscan.rename row
                        = Irel.mem
                            (Array.map (fun c -> s.Iscan.rename.(c)) row)
                            ia)
                      candidates)
               [ Icode.exec idb prog; Icode.Rows ia ]))

(* --- compiled formulas against Ieval on generated instances ---------- *)

(* Reuse the fuzzer's (db, query) generator: for each instance, the
   compiled evaluators must agree with Ieval on every structure of the
   partition stream — answers, member verdicts and sentence verdicts,
   including which Eval_error (if any) escapes. *)

let eval_outcome f =
  match f () with
  | v -> Result.Ok v
  | exception Eval.Eval_error msg -> Error msg

let compiled_formulas_match_ieval =
  QCheck2.Test.make ~count:60 ~name:"compiled formulas = Ieval on instances"
    ~print:(fun seed -> Printf.sprintf "instance seed %d" seed)
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let i = Fuzz_gen.instance ~seed 0 in
      let db = i.Fuzz_gen.db and query = i.Fuzz_gen.query in
      let plan = Iscan.prepare db in
      let tab = Iscan.symtab plan in
      let ca = Icode.compile_answer tab query in
      let cm = Icode.compile_member tab query in
      let body = Query.body query in
      let cs =
        if Query.is_boolean query then Some (Icode.compile_sentence tab body)
        else None
      in
      Iscan.structure_thunks plan
      |> Seq.for_all (fun thunk ->
             let s = thunk () in
             let idb = Lazy.force s.Iscan.idb in
             let answers_agree =
               match
                 ( eval_outcome (fun () -> Icode.run_answer idb ca),
                   eval_outcome (fun () -> Ieval.answer idb query) )
               with
               | Result.Ok a, Result.Ok b -> Irel.equal a b
               | Error a, Error b -> String.equal a b
               | _ -> false
             in
             let members_agree =
               let k = Query.arity query in
               let universe = Idb.universe idb in
               k > 2 (* keep the probe grid small *)
               || Irel.rows (Irel.full ~domain:universe k)
                  |> Array.for_all (fun row ->
                         match
                           ( eval_outcome (fun () ->
                                 Icode.run_member idb cm row),
                             eval_outcome (fun () -> Ieval.member idb query row)
                           )
                         with
                         | Result.Ok a, Result.Ok b -> Bool.equal a b
                         | Error a, Error b -> String.equal a b
                         | _ -> false)
             in
             let sentences_agree =
               match cs with
               | None -> true
               | Some cs -> (
                 match
                   ( eval_outcome (fun () -> Icode.run_sentence idb cs),
                     eval_outcome (fun () -> Ieval.satisfies idb body) )
                 with
                 | Result.Ok a, Result.Ok b -> Bool.equal a b
                 | Error a, Error b -> String.equal a b
                 | _ -> false)
             in
             answers_agree && members_agree && sentences_agree))

(* --- register/slot bounds of compiled formulas ----------------------- *)

let test_check_bounds () =
  List.iter
    (fun (db, text) ->
      let query = q text in
      let plan = Iscan.prepare db in
      let tab = Iscan.symtab plan in
      let depth_bound =
        (* binder depth can never exceed the formula size; the compiled
           register file must stay within it *)
        String.length text
      in
      List.iter
        (fun c ->
          check_bool
            (Printf.sprintf "registers bounded on %s" text)
            true
            (Icode.check_regs c >= 0 && Icode.check_regs c <= depth_bound);
          check_bool
            (Printf.sprintf "SO registers bounded on %s" text)
            true
            (Icode.check_sos c >= 0 && Icode.check_sos c <= depth_bound);
          List.iter
            (fun slot ->
              check_bool
                (Printf.sprintf "slot %d in range on %s" slot text)
                true
                (slot >= 0 && slot < Symtab.rel_count tab))
            (Icode.check_slots c))
        [
          Icode.compile_answer tab query;
          Icode.compile_member tab query;
          Icode.compile_sentence tab (Query.body query)
          (* free-variable errors are deferred to run time, so
             compiling an open body as a sentence is fine here *);
        ])
    [
      (socrates, "(x). exists y. TEACHES(x, y)");
      (socrates, "(x). exists2 Q/1. Q(x) /\\ exists y. TEACHES(x, y)");
      (ripper, "(x). MURDERER(x) /\\ ~POLITICIAN(x)");
      (ripper, "(). forall x. MURDERER(x) -> x != victoria");
    ]

(* --- engine-level spot checks ---------------------------------------- *)

let test_compiled_engine_parity () =
  let e1_medium =
    Vardi_experiments.Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7
  in
  List.iter
    (fun (db, query) ->
      let text = Pretty.query_to_string query in
      if Query.is_boolean query then
        check_bool text
          (Fuzz_reference.certain_boolean db query)
          (Certain.certain_boolean db query)
      else
        check Support.relation_testable text
          (Fuzz_reference.answer db query)
          (Certain.answer db query))
    [
      (socrates, q "(x). exists y. TEACHES(x, y)");
      (socrates, q "(x). ~(exists y. TEACHES(x, y))");
      (ripper, q "(). exists x. MURDERER(x) /\\ POLITICIAN(x)");
      (ripper, q "(x). MURDERER(x) -> x != victoria");
      (socrates, q "(x). exists2 Q/1. Q(x) /\\ exists y. TEACHES(x, y)");
      (* E1-medium: 16 constants, 2 of them unknown. The scan refutes
         all 5 tuples of the mixed query's seed, and keeps 5 of the
         second query's 7. *)
      (e1_medium, Vardi_experiments.Workloads.mixed_query);
      (e1_medium, q "(x). ~(exists y. R(x, y))");
    ]

let test_compiled_possible_parity () =
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

let test_compiled_error_parity () =
  (* Compile-time-detectable errors must surface at run time with the
     interpreter's message, and only when evaluation reaches them. *)
  let plan = Iscan.prepare socrates in
  let tab = Iscan.symtab plan in
  let idb = Lazy.force (Iscan.discrete plan).Iscan.idb in
  let trip f = match f () with _ -> None | exception Eval.Eval_error m -> Some m in
  let cases =
    [
      ("(). exists x. NOPRED(x)", "unknown predicate NOPRED");
      ("(). exists x. TEACHES(x)", "predicate TEACHES used with arity 1, declared 2");
      ("(). TEACHES(socrates, nobody)", "unknown constant nobody");
    ]
  in
  List.iter
    (fun (text, expected) ->
      let query = q text in
      let cs = Icode.compile_sentence tab (Query.body query) in
      check
        Alcotest.(option string)
        text (Some expected)
        (trip (fun () -> Icode.run_sentence idb cs));
      check
        Alcotest.(option string)
        (text ^ " (ieval)")
        (trip (fun () -> Ieval.satisfies idb (Query.body query)))
        (trip (fun () -> Icode.run_sentence idb cs)))
    cases;
  (* Short-circuiting hides the error exactly as in the interpreter. *)
  let hidden = q "(). true \\/ NOPRED(socrates)" in
  let cs = Icode.compile_sentence tab (Query.body hidden) in
  check_bool "short-circuit hides the bad atom" true
    (Icode.run_sentence idb cs);
  let member_arity = Icode.compile_member tab (q "(x). TEACHES(x, x)") in
  check
    Alcotest.(option string)
    "member arity check"
    (Some "Eval.member: tuple arity differs from the query head")
    (trip (fun () -> Icode.run_member idb member_arity [| 0; 1 |]))

(* The direct scan, a prepared query and a session-prepared query run
   the same scan: identical stats. *)
let test_compiled_stats_parity () =
  let query = q "(x). ~(exists y. TEACHES(x, y))" in
  let sig_of (s : Certain.stats) =
    ((s.structures, s.evaluations), (s.early_exit, s.pruned_candidates))
  in
  let direct = sig_of (snd (Certain.answer_stats socrates query)) in
  List.iter
    (fun (what, p) ->
      check
        Alcotest.(pair (pair int int) (pair bool int))
        ("stats agree: " ^ what) direct
        (sig_of (snd (Certain.prepared_answer_stats p))))
    [
      ("prepared", Certain.prepare socrates query);
      ("session", Incr_session.prepare (Incr_session.create socrates) query);
    ]

(* Preparing an answer plan that does not compile to packed code — the
   optimizer fuses a join into it — is counted once; a plan that packs
   is not. *)
let test_interp_fallback_counted () =
  let fallbacks text =
    let buf = Obs.buffer () in
    Obs.with_sink (Obs.buffer_sink buf) (fun () ->
        ignore (Certain.prepare socrates (q text)));
    Option.value ~default:0
      (List.assoc_opt "certain.interp_fallback"
         (Obs.counter_totals (Obs.events buf)))
  in
  check_int "packed: (x). ~TEACHES(x, x)" 0 (fallbacks "(x). ~TEACHES(x, x)");
  check_int "join: (x). exists y, z. TEACHES(x, y) /\\ TEACHES(y, z)" 1
    (fallbacks "(x). exists y, z. TEACHES(x, y) /\\ TEACHES(y, z)")

let suite =
  [
    Support.qcheck_case comparators_agree;
    Support.qcheck_case mem_row_agrees;
    Support.qcheck_case compiled_plan_in_bounds_and_agrees;
    Support.qcheck_case exec_member_agrees;
    Support.qcheck_case compiled_formulas_match_ieval;
    Alcotest.test_case "compiled check bounds" `Quick test_check_bounds;
    Alcotest.test_case "engine parity (certain)" `Quick
      test_compiled_engine_parity;
    Alcotest.test_case "engine parity (possible)" `Quick
      test_compiled_possible_parity;
    Alcotest.test_case "error-message parity" `Quick
      test_compiled_error_parity;
    Alcotest.test_case "stats parity" `Quick test_compiled_stats_parity;
    Alcotest.test_case "interpreter fallback is counted" `Quick
      test_interp_fallback_counted;
  ]
