(* The resilience layer: budget validation, qualified degradation
   under each policy, determinism of capped scans across runs and
   structure orders, deadline trips, and seeded fault injection. *)

open Logicaldb

let relation = Support.relation_testable

(* Eight constants, four of them unseparated: enough kernel partitions
   that a small structure cap always trips before the scan finishes. *)
let big_db () =
  database
    ~predicates:[ ("P", 1); ("R", 2) ]
    ~constants:[ "a"; "b"; "c"; "d"; "u1"; "u2"; "u3"; "u4" ]
    ~facts:
      [
        ("P", [ "a" ]);
        ("P", [ "u1" ]);
        ("R", [ "a"; "b" ]);
        ("R", [ "b"; "c" ]);
        ("R", [ "u2"; "d" ]);
      ]
    ~distinct:[ ("a", "b"); ("a", "c"); ("b", "c"); ("c", "d") ]
    ()

(* [(x). P(x)] has the non-empty certain answer {a, u1} on [big_db]:
   the survivor set never empties, so a capped scan never decides
   early — it always runs into the cap. *)
let certain_query () = query "(x). P(x)"

(* [(x). ~P(x)] has an empty certain answer but many initial
   survivors: pruning makes progress structure by structure, which is
   what the Partial upper bound should reflect. *)
let pruning_query () = query "(x). ~P(x)"

(* --- budgets -------------------------------------------------------- *)

let test_budget_validation () =
  Alcotest.check_raises "zero timeout"
    (Invalid_argument "Budget.make: timeout must be finite and positive")
    (fun () -> ignore (Budget.make ~timeout:0. ()));
  Alcotest.check_raises "infinite timeout"
    (Invalid_argument "Budget.make: timeout must be finite and positive")
    (fun () -> ignore (Budget.make ~timeout:Float.infinity ()));
  Alcotest.check_raises "zero structure cap"
    (Invalid_argument "Budget.make: max_structures must be positive")
    (fun () -> ignore (Budget.make ~max_structures:0 ()));
  Alcotest.check_raises "negative evaluation cap"
    (Invalid_argument "Budget.make: max_evaluations must be positive")
    (fun () -> ignore (Budget.make ~max_evaluations:(-3) ()));
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool)
    "limited" false
    (Budget.is_unlimited (Budget.make ~max_structures:5 ()));
  Alcotest.(check string)
    "rendering" "timeout=2s structures<=500"
    (Budget.to_string (Budget.make ~timeout:2. ~max_structures:500 ()))

let test_unlimited_is_exact () =
  let db = big_db () and q = certain_query () in
  let exact = Certain.answer db q in
  let result, stats = Resilient.answer_stats db q in
  (match result with
  | Resilient.Exact r -> Alcotest.check relation "equals the engine" exact r
  | _ -> Alcotest.fail "unlimited budget did not return Exact");
  (match stats.Resilient.source with
  | Resilient.Exact_scan -> ()
  | s -> Alcotest.failf "source %s, expected exact scan" (Resilient.source_to_string s));
  Alcotest.(check bool) "no trip recorded" true (stats.Resilient.tripped = None);
  Alcotest.(check bool)
    "no failure recorded" true
    (stats.Resilient.scan_failure = None)

(* --- degradation per policy ----------------------------------------- *)

let tight = Budget.make ~max_structures:1 ()

let test_policy_fail () =
  let db = big_db () and q = certain_query () in
  let result, stats = Resilient.answer_stats ~policy:Resilient.Fail ~budget:tight db q in
  (match result with
  | Resilient.Exhausted -> ()
  | _ -> Alcotest.fail "Fail policy did not return Exhausted");
  (match stats.Resilient.tripped with
  | Some Cancel.Structures -> ()
  | Some r -> Alcotest.failf "tripped %s, expected structure cap" (Cancel.reason_to_string r)
  | None -> Alcotest.fail "no trip recorded");
  (match stats.Resilient.source with
  | Resilient.No_answer -> ()
  | s -> Alcotest.failf "source %s, expected no answer" (Resilient.source_to_string s))

let test_policy_partial_is_upper_bound () =
  let db = big_db () and q = pruning_query () in
  let exact = Certain.answer db q in
  let result, stats =
    Resilient.answer_stats ~policy:Resilient.Partial ~budget:tight db q
  in
  (match result with
  | Resilient.Upper_bound r ->
    Alcotest.(check bool) "exact within survivors" true (Relation.subset exact r)
  | _ -> Alcotest.fail "Partial policy did not return Upper_bound");
  Alcotest.(check bool) "trip recorded" true (stats.Resilient.tripped <> None);
  Alcotest.(check bool) "scan stats kept" true (stats.Resilient.scan <> None)

let test_policy_approx_is_lower_bound () =
  let db = big_db () and q = certain_query () in
  let exact = Certain.answer db q in
  let result, stats =
    Resilient.answer_stats ~policy:Resilient.Approx ~budget:tight db q
  in
  (match result with
  | Resilient.Lower_bound r ->
    Alcotest.(check bool) "Theorem 11" true (Relation.subset r exact)
  | _ -> Alcotest.fail "Approx policy did not return Lower_bound");
  match stats.Resilient.source with
  | Resilient.Approx_fallback -> ()
  | s -> Alcotest.failf "source %s, expected fallback" (Resilient.source_to_string s)

let test_evaluation_cap_reason () =
  let db = big_db () and q = certain_query () in
  let _, stats =
    Resilient.answer_stats ~policy:Resilient.Fail
      ~budget:(Budget.make ~max_evaluations:1 ())
      db q
  in
  match stats.Resilient.tripped with
  | Some Cancel.Evaluations -> ()
  | Some r -> Alcotest.failf "tripped %s, expected evaluation cap" (Cancel.reason_to_string r)
  | None -> Alcotest.fail "no trip recorded"

let test_boolean_policies () =
  let db = big_db () in
  let q = query "(). P(a)" in
  (* Certainly true: the scan finds no countermodel, so a tight cap
     always trips before the verdict is earned. *)
  (match Resilient.boolean ~policy:Resilient.Fail ~budget:tight db q with
  | Resilient.Exhausted -> ()
  | _ -> Alcotest.fail "Fail did not exhaust");
  (match Resilient.boolean ~policy:Resilient.Approx ~budget:tight db q with
  | Resilient.Lower_bound v ->
    (* sound: an affirmative lower bound entails certainty *)
    if v then
      Alcotest.(check bool) "lower bound is sound" true (Certain.certain_boolean db q)
  | _ -> Alcotest.fail "Approx did not return Lower_bound");
  Alcotest.check_raises "answer variables rejected"
    (Invalid_argument "Resilient.boolean: the query has answer variables")
    (fun () -> ignore (Resilient.boolean db (certain_query ())))

let test_timeout_trips_deadline () =
  let db = big_db () and q = certain_query () in
  let exact = Certain.answer db q in
  let result, stats =
    Resilient.answer_stats ~policy:Resilient.Approx
      ~budget:(Budget.make ~timeout:1e-6 ())
      db q
  in
  (match result with
  | Resilient.Lower_bound r ->
    Alcotest.(check bool) "still sound" true (Relation.subset r exact)
  | Resilient.Exact r ->
    (* a machine fast enough to finish inside a microsecond is allowed *)
    Alcotest.check relation "exact then" exact r
  | _ -> Alcotest.fail "unexpected qualified result under a deadline");
  match (result, stats.Resilient.tripped) with
  | Resilient.Lower_bound _, Some Cancel.Deadline -> ()
  | Resilient.Lower_bound _, trip ->
    Alcotest.failf "degraded with trip %s, expected deadline"
      (match trip with
      | Some r -> Cancel.reason_to_string r
      | None -> "(none)")
  | _ -> ()

(* --- determinism of capped scans ------------------------------------ *)

(* Same budget: the positional structure-cap truncation must yield the
   identical qualified result and structures stat on every run and
   (for the order-independent Approx fallback) whatever the structure
   order. *)

let capped = Budget.make ~max_structures:3 ()

let run_approx ~order db q =
  Resilient.answer_stats ~policy:Resilient.Approx ~budget:capped ~order db q

let test_approx_determinism_across_schedules () =
  let db = big_db () and q = certain_query () in
  let configs =
    [
      Certain.Fresh_first;
      Certain.Fresh_first;
      Certain.Merge_first;
      Certain.Merge_first;
    ]
  in
  let outcomes = List.map (fun order -> run_approx ~order db q) configs in
  let structures (_, stats) =
    match stats.Resilient.scan with
    | Some scan -> scan.Certain.structures
    | None -> Alcotest.fail "scan stats missing"
  in
  let value (result, _) =
    match result with
    | Resilient.Lower_bound r -> r
    | _ -> Alcotest.fail "capped Approx scan did not degrade"
  in
  match outcomes with
  | first :: rest ->
    List.iteri
      (fun i other ->
        Alcotest.check relation
          (Printf.sprintf "qualified value, config %d" (i + 1))
          (value first) (value other);
        Alcotest.(check int)
          (Printf.sprintf "structures stat, config %d" (i + 1))
          (structures first) (structures other))
      rest
  | [] -> assert false

(* The Partial upper bound is the survivor set of exactly the admitted
   prefix: the reference's answer over the first [structures] structures
   of the enumeration, the same on every run. *)
let test_partial_determinism () =
  let db = big_db () and q = pruning_query () in
  let run () =
    Resilient.answer_stats ~policy:Resilient.Partial ~budget:capped db q
  in
  let r1, s1 = run () and r2, s2 = run () in
  let structures =
    match (s1.Resilient.scan, s2.Resilient.scan) with
    | Some a, Some b ->
      Alcotest.(check int) "same structures stat" a.Certain.structures
        b.Certain.structures;
      a.Certain.structures
    | _ -> Alcotest.fail "scan stats missing"
  in
  match (r1, r2) with
  | Resilient.Upper_bound a, Resilient.Upper_bound b ->
    Alcotest.check relation "same survivor set" a b;
    Alcotest.check relation "survivors of the admitted prefix"
      (Fuzz_reference.answer_in
         (Seq.take structures (Fuzz_reference.structures db))
         db q)
      a
  | _ -> Alcotest.fail "capped Partial scan did not degrade"

(* --- fault injection ------------------------------------------------ *)

let test_fault_degrades_not_crashes () =
  let db = big_db () and q = certain_query () in
  let exact = Certain.answer db q in
  (* rate 1.0: the very first cancellation probe raises inside the
     scan. Approx must absorb it into the fallback... *)
  let result, stats =
    Faults.with_faults ~seed:11 ~rate:1.0 (fun () ->
        Resilient.answer_stats ~policy:Resilient.Approx db q)
  in
  (match result with
  | Resilient.Lower_bound r ->
    Alcotest.(check bool) "fallback still sound" true (Relation.subset r exact)
  | _ -> Alcotest.fail "injected fault did not degrade to the fallback");
  Alcotest.(check bool)
    "failure recorded honestly" true
    (stats.Resilient.scan_failure <> None);
  (* ... while Fail honors its propagation contract. *)
  match
    Faults.with_faults ~seed:11 ~rate:1.0 (fun () ->
        Resilient.answer ~policy:Resilient.Fail db q)
  with
  | _ -> Alcotest.fail "Fail policy swallowed an injected fault"
  | exception Faults.Injected "scan.worker" -> ()

let test_fault_determinism () =
  let db = big_db () and q = certain_query () in
  let run () =
    Faults.with_faults ~seed:4242 ~rate:0.3 (fun () ->
        Resilient.answer_stats ~policy:Resilient.Approx db q)
  in
  let r1, s1 = run () and r2, s2 = run () in
  (match (r1, r2) with
  | Resilient.Lower_bound a, Resilient.Lower_bound b
  | Resilient.Exact a, Resilient.Exact b ->
    Alcotest.check relation "same value" a b
  | _ -> Alcotest.fail "same seed, different qualified constructors");
  Alcotest.(check (option string))
    "same recorded failure" s1.Resilient.scan_failure s2.Resilient.scan_failure

let test_fault_point_corpus_read () =
  let path = Filename.temp_file "resilience" ".fuzz" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let case =
        { Fuzz_corpus.oracle = None; query = certain_query (); db = big_db () }
      in
      Fuzz_corpus.save path case;
      (match
         Faults.with_faults ~seed:1 ~rate:1.0 (fun () -> Fuzz_corpus.load path)
       with
      | _ -> Alcotest.fail "armed corpus read did not fault"
      | exception Faults.Injected "corpus.read" -> ());
      Alcotest.(check bool) "plan restored" false (Faults.armed ());
      let roundtripped = Fuzz_corpus.load path in
      Alcotest.check Support.query_testable "disarmed read works" case.query
        roundtripped.Fuzz_corpus.query)

(* [Engine.now_ns] is the monotonic [Obs.now_ns] clock, so recorded
   scan durations can never be negative — unlike the wall-clock time it
   replaced, which could step backwards under clock adjustment. *)
let test_wall_ns_monotonic () =
  let db = big_db () and q = certain_query () in
  let _, stats = Certain.answer_stats db q in
  Alcotest.(check bool) "raw scan wall_ns >= 0" true
    (Int64.compare stats.Certain.wall_ns 0L >= 0);
  let _, rstats =
    Resilient.answer_stats ~policy:Resilient.Partial ~budget:tight db q
  in
  match rstats.Resilient.scan with
  | Some scan ->
    Alcotest.(check bool) "budgeted scan wall_ns >= 0" true
      (Int64.compare scan.Certain.wall_ns 0L >= 0)
  | None -> Alcotest.fail "scan stats missing"

(* The engine must degrade as the reference dictates, directly and
   through a prepared query alike: an exact result is the reference's
   answer, a partial scan's upper bound is the reference's answer over
   exactly the structures the scan reports, and the fallback's lower
   bound lies within the reference's answer. The direct and prepared
   paths must agree on the qualified value, the provenance and the scan
   counters (wall-clock excluded). *)
let test_degrades_as_reference () =
  let db = big_db () in
  let stream = Fuzz_reference.structures db in
  let provenance (s : Resilient.stats) =
    ( Resilient.source_to_string s.Resilient.source,
      Option.map Cancel.reason_to_string s.Resilient.tripped,
      Option.map
        (fun c -> (c.Certain.structures, c.Certain.evaluations))
        s.Resilient.scan )
  in
  let value = function
    | Resilient.Exact x | Resilient.Lower_bound x | Resilient.Upper_bound x ->
      Some x
    | Resilient.Exhausted -> None
  in
  List.iter
    (fun q ->
      let exact = Fuzz_reference.answer db q in
      List.iter
        (fun policy ->
          let r, s = Resilient.answer_stats ~policy ~budget:tight db q in
          let r', s' =
            Resilient.prepared_answer_stats ~policy ~budget:tight
              (Certain.prepare db q)
          in
          Alcotest.(check bool)
            "direct and prepared: same provenance and counters" true
            (provenance s = provenance s');
          Alcotest.(check (option relation))
            "direct and prepared: same value" (value r) (value r');
          match (r, s.Resilient.scan) with
          | Resilient.Exact x, _ ->
            Alcotest.check relation "exact = reference" exact x
          | Resilient.Upper_bound x, Some scan ->
            Alcotest.check relation "upper bound = reference over the prefix"
              (Fuzz_reference.answer_in
                 (Seq.take scan.Certain.structures stream)
                 db q)
              x
          | Resilient.Lower_bound x, _ ->
            Alcotest.(check bool)
              "lower bound within the reference" true (Relation.subset x exact)
          | Resilient.Exhausted, _ -> ()
          | Resilient.Upper_bound _, None ->
            Alcotest.fail "upper bound without scan stats")
        [ Resilient.Fail; Resilient.Partial; Resilient.Approx ])
    [ certain_query (); pruning_query () ]

(* The acceptance oracle: the resilient-* invariants hold over a
   seeded instance stream with fault injection enabled (the full >= 1k
   run is CI's fault-smoke job; this keeps a fast regression here). *)
let test_fuzz_oracle_with_faults () =
  let outcome =
    Fuzz.run
      ~config:
        {
          Fuzz.default with
          count = 60;
          typed = false;
          shrink = false;
          faults = true;
        }
      ()
  in
  if not (Fuzz.clean outcome) then
    Alcotest.failf "resilience fuzz violations:@.%a" Fuzz.pp_outcome outcome

let suite =
  [
    Alcotest.test_case "budget validation and rendering" `Quick
      test_budget_validation;
    Alcotest.test_case "unlimited budget is exact" `Quick test_unlimited_is_exact;
    Alcotest.test_case "Fail policy exhausts on the structure cap" `Quick
      test_policy_fail;
    Alcotest.test_case "Partial policy returns an upper bound" `Quick
      test_policy_partial_is_upper_bound;
    Alcotest.test_case "Approx policy returns a sound lower bound" `Quick
      test_policy_approx_is_lower_bound;
    Alcotest.test_case "evaluation cap reports its own reason" `Quick
      test_evaluation_cap_reason;
    Alcotest.test_case "Boolean queries degrade the same way" `Quick
      test_boolean_policies;
    Alcotest.test_case "timeout trips the deadline" `Quick
      test_timeout_trips_deadline;
    Alcotest.test_case "capped Approx scan is deterministic across schedules"
      `Quick test_approx_determinism_across_schedules;
    Alcotest.test_case "capped Partial scan is deterministic" `Quick
      test_partial_determinism;
    Alcotest.test_case "injected worker fault degrades, never crashes" `Quick
      test_fault_degrades_not_crashes;
    Alcotest.test_case "fault injection is deterministic per seed" `Quick
      test_fault_determinism;
    Alcotest.test_case "corpus read is an injectable fault point" `Quick
      test_fault_point_corpus_read;
    Alcotest.test_case "scan durations come from the monotonic clock" `Quick
      test_wall_ns_monotonic;
    Alcotest.test_case "degrades as the reference dictates" `Quick
      test_degrades_as_reference;
    Alcotest.test_case "fuzz oracles hold under fault injection" `Quick
      test_fuzz_oracle_with_faults;
  ]
