(* Unit and regression tests for Incr_session: mutation semantics and
   parity with the fresh engine, epoch accounting, and — deterministically —
   the memo-hit counters that make incremental evaluation incremental.
   The counter tests use measured deltas against the session's own
   stats, so they pin behaviour (every structure memoized, independent
   deltas keep hitting, merges reset) without hardcoding the partition
   count of the fixture. *)

open Logicaldb
module Session = Incr_session

let fact pred args = { Cw_database.pred; args }

(* Two predicates, three constants, no uniqueness axioms: every
   constant pair is unknown, so the partition stream has several
   structures and the P/R slots can be invalidated independently. *)
let base_db () =
  database
    ~predicates:[ ("P", 1); ("R", 2) ]
    ~constants:[ "a"; "b"; "c" ]
    ~facts:[ ("P", [ "a" ]); ("R", [ "a"; "b" ]) ]
    ()

let q_r = query "(x). exists y. R(x, y)"
let q_p = query "(x). ~P(x)"
let q_pr = query "(x). P(x) \\/ (exists y. R(x, y))"

let tuples rel = Relation.tuples rel |> List.sort compare

let session_answer s q =
  let rel, _ = Certain.prepared_answer_stats (Session.prepare s q) in
  tuples rel

let check_parity msg s =
  List.iter
    (fun q ->
      Alcotest.(check (list (list string)))
        (msg ^ ": " ^ Pretty.query_to_string q)
        (tuples (Certain.answer (Session.db s) q))
        (session_answer s q))
    [ q_r; q_p ]

(* --- parity across every mutation kind ----------------------------- *)

let test_mutation_parity () =
  let s = Session.create (base_db ()) in
  check_parity "fresh session" s;
  Session.insert s (fact "R" [ "b"; "c" ]);
  check_parity "after insert" s;
  Session.insert s (fact "P" [ "b" ]);
  check_parity "after second insert" s;
  Session.retract s (fact "R" [ "a"; "b" ]);
  check_parity "after retract" s;
  Session.close_unknown s "a" "b" ~to_:`Distinct;
  check_parity "after close to distinct" s;
  Session.close_unknown s "a" "c" ~to_:`Equal;
  check_parity "after close to equal" s;
  (* the merge kept "a" and dropped "c" *)
  Alcotest.(check (list string))
    "merge dropped the second constant" [ "a"; "b" ]
    (Cw_database.constants (Session.db s));
  (* boolean path parity on the mutated database *)
  let bq = query "(). exists x. P(x)" in
  let got, _ = Certain.prepared_certain_boolean_stats (Session.prepare s bq) in
  Alcotest.(check bool)
    "boolean parity on mutated db"
    (Certain.certain_boolean (Session.db s) bq)
    got

(* --- epoch accounting ---------------------------------------------- *)

let test_epochs () =
  let s = Session.create (base_db ()) in
  let delta () = Session.delta_epoch s in
  Alcotest.(check int) "starts at zero" 0 (delta ());
  Session.insert s (fact "P" [ "b" ]);
  Alcotest.(check int) "insert bumps" 1 (delta ());
  Session.insert s (fact "P" [ "b" ]);
  Alcotest.(check int) "re-inserting a present fact is a no-op" 1 (delta ());
  Session.retract s (fact "P" [ "b" ]);
  Alcotest.(check int) "retract bumps" 2 (delta ());
  (match Session.retract s (fact "P" [ "b" ]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "retracting an absent fact must raise");
  Alcotest.(check int) "failed retract does not bump" 2 (delta ());
  (match Session.insert s (fact "NOPE" [ "a" ]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "inserting outside the vocabulary must raise");
  Session.close_unknown s "a" "b" ~to_:`Distinct;
  Alcotest.(check int) "close to distinct bumps" 3 (delta ());
  Session.close_unknown s "a" "b" ~to_:`Distinct;
  Alcotest.(check int) "re-closing a distinct pair is a no-op" 3 (delta ());
  (match Session.close_unknown s "a" "b" ~to_:`Equal with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merging a distinct pair must raise");
  Session.close_unknown s "a" "c" ~to_:`Equal;
  let st = Session.stats s in
  Alcotest.(check int) "merge bumps the delta epoch" 4 st.s_delta_epoch;
  Alcotest.(check int) "merge bumps the tab epoch" 1 st.s_tab_epoch

(* --- the memo-hit regression ---------------------------------------- *)

(* The contract, in counters: a first evaluation misses once per
   structure examined; re-running the same query answers every
   structure from the memo; a delta on a predicate the query never
   reads leaves the memo warm; a delta on a read predicate invalidates
   it wholesale. *)
let test_memo_hits () =
  let s = Session.create (base_db ()) in
  let answer q = fst (Certain.prepared_answer_stats (Session.prepare s q)) in
  let eval q = ignore (answer q) in
  let counters () =
    let st = Session.stats s in
    (st.s_memo_hits, st.s_memo_misses)
  in
  eval q_r;
  let h1, m1 = counters () in
  Alcotest.(check int) "no hits on a cold session" 0 h1;
  Alcotest.(check bool) "first run computes every structure" true (m1 > 1);
  let memoized = answer q_r in
  let h2, m2 = counters () in
  Alcotest.(check int) "re-run answers every structure from the memo" m1 h2;
  Alcotest.(check int) "re-run computes nothing" m1 m2;
  Alcotest.(check (list (list string)))
    "the memoized answer is the reference's"
    (tuples (Fuzz_reference.answer (Session.db s) q_r))
    (tuples memoized);
  (* a delta on P cannot disturb a query that only reads R *)
  Session.insert s (fact "P" [ "c" ]);
  eval q_r;
  let h3, m3 = counters () in
  Alcotest.(check int) "independent delta keeps the memo warm" (2 * m1) h3;
  Alcotest.(check int) "independent delta recomputes nothing" m1 m3;
  (* a delta on R invalidates the whole memo for q_r *)
  Session.insert s (fact "R" [ "b"; "c" ]);
  eval q_r;
  let h4, m4 = counters () in
  Alcotest.(check int) "dependent delta yields no hits" h3 h4;
  Alcotest.(check bool) "dependent delta recomputes" true (m4 > m3);
  (* The slot cache is finer than the memo. After a delta on R, a query
     reading both P and R misses the memo on every structure and builds
     each from the cache: its P slot is reused, its R slot rebuilt. *)
  eval q_pr;
  Session.insert s (fact "R" [ "c"; "a" ]);
  let st5 = Session.stats s in
  eval q_pr;
  let st6 = Session.stats s in
  let missed = st6.s_memo_misses - st5.s_memo_misses in
  Alcotest.(check bool) "the R delta misses the memo" true (missed > 1);
  Alcotest.(check int) "every structure reused its P slot" missed
    (st6.s_slot_reuses - st5.s_slot_reuses);
  Alcotest.(check int) "every structure rebuilt its R slot" missed
    (st6.s_slot_rebuilds - st5.s_slot_rebuilds)

(* Memo first: a warm re-scan answers every structure from the memo and
   never asks the structure cache for a quotient, so no slot is reused
   or rebuilt. *)
let test_memo_hit_builds_nothing () =
  let s = Session.create (base_db ()) in
  let scan () = Certain.prepared_answer_stats (Session.prepare s q_pr) in
  ignore (scan ());
  let buf = Obs.buffer () in
  let rel, st = Obs.with_sink (Obs.buffer_sink buf) scan in
  let count name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.counter_totals (Obs.events buf)))
  in
  Alcotest.(check int) "every structure hit the memo" st.Certain.structures
    (count "incr.memo_hit");
  Alcotest.(check int) "no slot reused" 0 (count "incr.slot_reuse");
  Alcotest.(check int) "no slot rebuilt" 0 (count "incr.slot_rebuild");
  Alcotest.(check (list (list string)))
    "the memoized answer is the reference's"
    (tuples (Fuzz_reference.answer (Session.db s) q_pr))
    (tuples rel)

(* A query prepared before a dependent delta keeps answering at its own
   view after a fresh prepare has claimed the memo for the new one. It
   reads nothing of the memo (no hit, so no newer result) and writes
   nothing into it (the fresh scan that follows it misses every
   structure and still answers at the new view), alone and while the
   fresh query scans on another domain. *)
let test_stale_prepared () =
  let s = Session.create (base_db ()) in
  let scan p = Certain.prepared_answer_stats p in
  let reference db = tuples (Fuzz_reference.answer db q_r) in
  let old_reference = reference (Session.db s) in
  ignore (scan (Session.prepare s q_r));
  let stale = Session.prepare s q_r in
  Session.insert s (fact "R" [ "b"; "c" ]);
  let new_reference = reference (Session.db s) in
  Alcotest.(check bool) "the delta moves the answer" false
    (old_reference = new_reference);
  let fresh = Session.prepare s q_r in
  let counted f =
    let before = Session.stats s in
    let r = f () in
    let after = Session.stats s in
    (r, after.s_memo_hits - before.s_memo_hits,
     after.s_memo_misses - before.s_memo_misses)
  in
  let check_scan label reference ~hits p =
    let (rel, st), h, m = counted (fun () -> scan p) in
    Alcotest.(check (list (list string))) (label ^ ": answer") reference
      (tuples rel);
    Alcotest.(check (pair int int)) (label ^ ": memo hits and misses")
      (if hits then (st.Certain.structures, 0) else (0, st.Certain.structures))
      (h, m)
  in
  check_scan "stale, before the fresh scan" old_reference ~hits:false stale;
  check_scan "fresh, after the stale scan" new_reference ~hits:false fresh;
  check_scan "stale, after the fresh scan" old_reference ~hits:false stale;
  check_scan "fresh, warm" new_reference ~hits:true fresh;
  for round = 1 to 10 do
    let label what = Printf.sprintf "round %d, %s" round what in
    let other = Domain.spawn (fun () -> scan stale) in
    let fresh_rel, _ = scan fresh in
    let stale_rel, _ = Domain.join other in
    Alcotest.(check (list (list string))) (label "stale") old_reference
      (tuples stale_rel);
    Alcotest.(check (list (list string))) (label "fresh") new_reference
      (tuples fresh_rel)
  done

(* Closing a pair to distinct prunes the partition stream but keeps
   both the structure cache and the memo valid for the survivors. *)
let test_distinct_keeps_memos () =
  let s = Session.create (base_db ()) in
  let eval q = ignore (Certain.prepared_answer_stats (Session.prepare s q)) in
  eval q_r;
  let st1 = Session.stats s in
  Session.close_unknown s "a" "b" ~to_:`Distinct;
  eval q_r;
  let st2 = Session.stats s in
  Alcotest.(check int)
    "no recomputation after closing to distinct" st1.s_memo_misses
    st2.s_memo_misses;
  let hits = st2.s_memo_hits - st1.s_memo_hits in
  Alcotest.(check bool) "surviving structures hit the memo" true (hits > 0);
  Alcotest.(check bool)
    "the stream shrank (fewer structures than were first computed)" true
    (hits < st1.s_memo_misses)

(* A merge re-codes the constants and is the one mutation that resets
   the structure cache and every memo. *)
let test_merge_resets () =
  let s = Session.create (base_db ()) in
  let eval q = ignore (Certain.prepared_answer_stats (Session.prepare s q)) in
  eval q_p;
  Session.close_unknown s "a" "c" ~to_:`Equal;
  let st1 = Session.stats s in
  Alcotest.(check int) "merge empties the structure cache" 0
    st1.s_structures_cached;
  eval q_p;
  let st2 = Session.stats s in
  Alcotest.(check int) "no stale hits across a merge" st1.s_memo_hits
    st2.s_memo_hits;
  Alcotest.(check bool) "post-merge run recomputes" true
    (st2.s_memo_misses > st1.s_memo_misses)

(* --- prepared queries capture one immutable view --------------------- *)

let test_prepared_snapshot () =
  let s = Session.create (base_db ()) in
  let before = Session.db s in
  let p = Session.prepare s q_r in
  Session.insert s (fact "R" [ "c"; "c" ]);
  let old_rel, _ = Certain.prepared_answer_stats p in
  Alcotest.(check (list (list string)))
    "a prepared query still sees its view after a mutation"
    (tuples (Certain.answer before q_r))
    (tuples old_rel);
  Alcotest.(check (list (list string)))
    "while a fresh prepare sees the delta"
    (tuples (Certain.answer (Session.db s) q_r))
    (session_answer s q_r)

(* --- a renaming stream longer than the cache ---------------------------- *)

(* Three constants and no uniqueness axioms give five partitions, more
   than a two-entry cache holds. The first scan of each order records
   that once; later scans, across a fact delta too (it keeps the
   symtab), stream the renamings without forcing [capacity + 1] of them
   first. Streaming must move nothing: answers equal the reference's,
   and every structure cap trips where it trips a fresh prepared
   query. *)
let test_overlong_stream () =
  let s = Session.create ~cache_capacity:2 (base_db ()) in
  let toggle = fact "R" [ "b"; "c" ] in
  let uncached f =
    let buf = Obs.buffer () in
    Obs.with_sink (Obs.buffer_sink buf) f;
    Option.value ~default:0
      (List.assoc_opt "incr.renamings_uncached"
         (Obs.counter_totals (Obs.events buf)))
  in
  let trips order p =
    List.map
      (fun cap ->
        let cancel = Cancel.create ~max_structures:cap () in
        let r, st = Certain.prepared_answer_stats ~order ~cancel p in
        (tuples r, st.Certain.structures, st.Certain.interrupted <> None))
      [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (order, name) ->
      let recorded =
        uncached (fun () ->
            for scan = 1 to 3 do
              if scan = 2 then
                if Cw_database.mem_fact (Session.db s) toggle then
                  Session.retract s toggle
                else Session.insert s toggle;
              let db = Session.db s in
              let label what =
                Printf.sprintf "%s, scan %d: %s" name scan what
              in
              Alcotest.(check (list (list string)))
                (label "answer")
                (tuples (Fuzz_reference.answer db q_r))
                (tuples
                   (fst
                      (Certain.prepared_answer_stats ~order
                         (Session.prepare s q_r))));
              Alcotest.(check (list (triple (list (list string)) int bool)))
                (label "structure caps trip as a fresh scan's")
                (trips order (Certain.prepare db q_r))
                (trips order (Session.prepare s q_r))
            done)
      in
      Alcotest.(check int)
        (name ^ ": the uncached stream is recorded once")
        1 recorded)
    [
      (Certain.Fresh_first, "Fresh_first");
      (Certain.Merge_first, "Merge_first");
    ]

let suite =
  [
    Alcotest.test_case "mutations keep parity with the fresh engine" `Quick
      test_mutation_parity;
    Alcotest.test_case "epoch accounting across mutations" `Quick test_epochs;
    Alcotest.test_case "memo hit/miss regression" `Quick test_memo_hits;
    Alcotest.test_case "close-to-distinct keeps caches warm" `Quick
      test_distinct_keeps_memos;
    Alcotest.test_case "merge resets caches" `Quick test_merge_resets;
    Alcotest.test_case "prepared queries snapshot their view" `Quick
      test_prepared_snapshot;
    Alcotest.test_case "over-long stream streams once per view" `Quick
      test_overlong_stream;
    Alcotest.test_case "a memo hit builds no structure" `Quick
      test_memo_hit_builds_nothing;
    Alcotest.test_case "a stale prepared query neither reads nor pins the memo"
      `Quick test_stale_prepared;
  ]
