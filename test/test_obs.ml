(* The observability layer: span nesting, counter aggregation, ring
   buffer semantics, sink plumbing, JSON-lines output — and the
   regression tying the engine's stats record to the trace
   counters. *)

open Logicaldb

(* Collect the events emitted while [f] runs. *)
let collect ?capacity f =
  let buf = Obs.buffer ?capacity () in
  let result = Obs.with_sink (Obs.buffer_sink buf) f in
  (result, Obs.events buf, buf)

let span_opens evs =
  List.filter_map
    (function
      | Obs.Span_open { id; parent; name; _ } -> Some (name, id, parent)
      | _ -> None)
    evs

let span_closes evs =
  List.filter_map
    (function
      | Obs.Span_close { name; elapsed_ns; _ } -> Some (name, elapsed_ns)
      | _ -> None)
    evs

(* --- spans ---------------------------------------------------------- *)

let test_span_nesting () =
  let result, evs, _ =
    collect (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "first" (fun () -> ())
            |> fun () -> Obs.span "second" (fun () -> 41 + 1)))
  in
  Alcotest.(check int) "span passes the result through" 42 result;
  (match span_opens evs with
  | [ ("outer", outer_id, None); ("first", _, p1); ("second", _, p2) ] ->
    Alcotest.(check (option int)) "first nests under outer" (Some outer_id) p1;
    Alcotest.(check (option int)) "second nests under outer" (Some outer_id) p2
  | opens ->
    Alcotest.failf "unexpected span_open sequence (%d events)"
      (List.length opens));
  Alcotest.(check (list string))
    "closes in stack order"
    [ "first"; "second"; "outer" ]
    (List.map fst (span_closes evs));
  List.iter
    (fun (name, elapsed) ->
      if Int64.compare elapsed 0L < 0 then
        Alcotest.failf "span %s has negative elapsed time" name)
    (span_closes evs)

let test_span_forest () =
  let _, evs, _ =
    collect (fun () ->
        Obs.span "root" (fun () ->
            Obs.span "child" (fun () -> Obs.count "inner" 7)))
  in
  match Obs.spans evs with
  | [ { Obs.tree_name = "root"; tree_children = [ child ]; _ } ] ->
    Alcotest.(check string) "child name" "child" child.Obs.tree_name;
    Alcotest.(check (list (pair string int)))
      "counter attributed to the innermost span"
      [ ("inner", 7) ]
      child.Obs.tree_counts
  | _ -> Alcotest.fail "expected a single root with one child"

let test_span_exception_safety () =
  let exception Boom in
  let raised = ref false in
  let _, evs, _ =
    collect (fun () ->
        (try Obs.span "doomed" (fun () -> raise Boom)
         with Boom -> raised := true);
        (* The stack must have been popped: a fresh span is a root. *)
        Obs.span "after" (fun () -> ()))
  in
  Alcotest.(check bool) "exception propagated" true !raised;
  Alcotest.(check (list string))
    "doomed still closed"
    [ "doomed"; "after" ]
    (List.map fst (span_closes evs));
  match span_opens evs with
  | [ _; ("after", _, parent) ] ->
    Alcotest.(check (option int)) "stack popped on exception" None parent
  | _ -> Alcotest.fail "expected exactly two spans"

let test_disabled_is_noop () =
  (* No sink installed: both calls must be inert passthroughs. *)
  Alcotest.(check bool) "no ambient sink" false (Obs.enabled ());
  let r = Obs.span "ignored" (fun () -> Obs.count "ignored" 1; "ok") in
  Alcotest.(check string) "span passthrough" "ok" r

(* --- counters ------------------------------------------------------- *)

let test_counter_aggregation () =
  let _, evs, _ =
    collect (fun () ->
        Obs.count "a" 1;
        Obs.count "b" 10;
        Obs.count "a" 2;
        Obs.count "b" (-3))
  in
  Alcotest.(check (list (pair string int)))
    "totals sum per name, sorted"
    [ ("a", 3); ("b", 7) ]
    (Obs.counter_totals evs);
  match Obs.counters_by_domain evs with
  | [ ("a", [ (_, 3) ]); ("b", [ (_, 7) ]) ] -> ()
  | _ -> Alcotest.fail "per-domain breakdown should have one domain per name"

let test_ring_capacity () =
  let _, evs, buf =
    collect ~capacity:4 (fun () ->
        for i = 1 to 10 do
          Obs.count "tick" i
        done)
  in
  Alcotest.(check int) "keeps only the capacity" 4 (List.length evs);
  Alcotest.(check int) "drop count" 6 (Obs.dropped buf);
  Alcotest.(check (list (pair string int)))
    "keeps the newest events"
    [ ("tick", 7 + 8 + 9 + 10) ]
    (Obs.counter_totals evs);
  Obs.reset buf;
  Alcotest.(check int) "reset empties" 0 (List.length (Obs.events buf));
  Alcotest.(check int) "reset clears drops" 0 (Obs.dropped buf)

let test_tee () =
  let b1 = Obs.buffer () and b2 = Obs.buffer () in
  Obs.with_sink
    (Obs.tee [ Obs.buffer_sink b1; Obs.buffer_sink b2 ])
    (fun () -> Obs.span "s" (fun () -> Obs.count "c" 5));
  Alcotest.(check int) "both sinks see all events" (List.length (Obs.events b1))
    (List.length (Obs.events b2));
  Alcotest.(check (list (pair string int)))
    "same counters" (Obs.counter_totals (Obs.events b1))
    (Obs.counter_totals (Obs.events b2))

(* --- JSON lines ----------------------------------------------------- *)

(* A tiny recursive-descent JSON parser — just enough to assert that
   every line the jsonl sink writes is well-formed JSON. Returns unit;
   raises Failure on malformed input. *)
let check_json (s : string) : unit =
  let pos = ref 0 in
  let n = String.length s in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = failwith (Printf.sprintf "%s at %d in %s" msg !pos s) in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let seen = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let parse_word w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail ("expected " ^ w)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some 't' -> parse_word "true"
    | Some 'f' -> parse_word "false"
    | Some 'n' -> parse_word "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_jsonl_parseable () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.with_sink (Obs.jsonl_sink oc) (fun () ->
          Obs.span "outer \"quoted\\name\"" (fun () ->
              Obs.count "structures" 3;
              Obs.span "inner" (fun () -> ())));
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "five events, five lines" 5 (List.length lines);
      List.iter check_json lines;
      (* Every line is an object naming its event type. *)
      List.iter
        (fun line ->
          if not (String.length line > 9 && String.sub line 0 9 = {|{"type":"|})
          then Alcotest.failf "line lacks a type field: %s" line)
        lines)

let test_json_escaping () =
  let json = Obs.event_to_json
      (Obs.Count { name = "weird \"name\"\n\t\\"; span = None; domain = 0; value = 1 })
  in
  check_json json

(* --- the stats/trace regression ------------------------------------ *)

(* A database with many kernel partitions: 8 constants, 4 of them
   unseparated. *)
let regression_db () =
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

(* Every entry point runs exactly one [certain.scan] span, directly
   under its own span, and the counters the trace carries — all from
   the calling domain — equal the stats record the call returns. *)
let test_stats_match_trace_counters () =
  let db = regression_db () in
  let open_query = query "(x). ~P(x)" in
  let sentence = query "(). exists x. R(x, x)" in
  let check_entry entry run =
    let stats, evs, buf = collect run in
    let label what = Printf.sprintf "%s: %s" entry what in
    Alcotest.(check int) (label "no events dropped") 0 (Obs.dropped buf);
    let by_domain = Obs.counters_by_domain evs in
    List.iter
      (fun (name, per) ->
        Alcotest.(check int)
          (label (name ^ " comes from one domain"))
          1 (List.length per))
      by_domain;
    let total name =
      match List.assoc_opt name by_domain with
      | None -> 0
      | Some per -> List.fold_left (fun acc (_, v) -> acc + v) 0 per
    in
    Alcotest.(check int) (label "stats.structures = certain.structures")
      stats.Certain.structures (total "certain.structures");
    Alcotest.(check int) (label "stats.evaluations = certain.evaluations")
      stats.Certain.evaluations (total "certain.evaluations");
    Alcotest.(check int) (label "stats.pruned_candidates = certain.pruned")
      stats.Certain.pruned_candidates (total "certain.pruned");
    Alcotest.(check int) (label "stats.early_exit = certain.early_exit")
      (if stats.Certain.early_exit then 1 else 0)
      (total "certain.early_exit");
    let opens = span_opens evs in
    let entry_ids =
      List.filter_map
        (fun (name, id, _) -> if name = entry then Some id else None)
        opens
    in
    match
      ( entry_ids,
        List.filter (fun (name, _, _) -> name = "certain.scan") opens )
    with
    | [ entry_id ], [ (_, _, parent) ] ->
      Alcotest.(check (option int))
        (label "the scan nests under the entry point") (Some entry_id) parent
    | entries, scans ->
      Alcotest.failf "%s: %d entry and %d certain.scan spans, want one each"
        entry (List.length entries) (List.length scans)
  in
  check_entry "certain.answer" (fun () ->
      snd (Certain.answer_stats db open_query));
  check_entry "certain.possible_answer" (fun () ->
      snd (Certain.possible_answer_stats db open_query));
  check_entry "certain.member" (fun () ->
      snd (Certain.certain_member_stats db open_query [ "u2" ]));
  check_entry "certain.boolean" (fun () ->
      snd (Certain.certain_boolean_stats db sentence));
  check_entry "certain.possible_boolean" (fun () ->
      snd (Certain.possible_boolean_stats db sentence));
  let prepared = Certain.prepare db open_query in
  check_entry "certain.answer" (fun () ->
      snd (Certain.prepared_answer_stats prepared))

let test_tracing_does_not_change_answers () =
  let db = regression_db () in
  let q = query "(x). exists y. R(x, y)" in
  let bare = Certain.answer db q in
  let traced, _, _ = collect (fun () -> Certain.answer db q) in
  Alcotest.(check bool) "same answer" true (Relation.equal bare traced)

(* --- sink hardening ------------------------------------------------- *)

(* A sink that raises on its [after]-th event must be caught, counted
   once and disabled in place, leaving the engine's answer unchanged —
   whichever event it fails on: the entry point's, the seed's or the
   scan's. *)
let test_raising_sink_is_contained () =
  let db = regression_db () in
  let q = query "(x). exists y. R(x, y)" in
  let bare = Certain.answer db q in
  let _, evs, _ = collect (fun () -> Certain.answer db q) in
  List.iter
    (fun after ->
      let label what = Printf.sprintf "%s (raising on event %d)" what after in
      let errors_before = Obs.sink_errors () in
      let result, disabled_mid_run =
        Obs.with_sink
          (Faults.raising_sink ~after ())
          (fun () ->
            let r = Certain.answer db q in
            (r, not (Obs.enabled ())))
      in
      Alcotest.(check bool) (label "same answer under a raising sink") true
        (Relation.equal bare result);
      Alcotest.(check bool) (label "failed sink was disabled in place") true
        disabled_mid_run;
      Alcotest.(check int) (label "the error was counted once")
        (errors_before + 1) (Obs.sink_errors ()))
    (List.init (List.length evs) Fun.id)

let test_raising_flush_is_contained () =
  (* after:max_int — emit stays healthy, only the uninstall flush
     raises; with_sink must still return normally. *)
  let errors_before = Obs.sink_errors () in
  let result =
    Obs.with_sink
      (Faults.raising_sink ~after:max_int ())
      (fun () -> Obs.span "quiet" (fun () -> 7))
  in
  Alcotest.(check int) "result survives a raising flush" 7 result;
  Alcotest.(check bool) "flush error counted" true
    (Obs.sink_errors () > errors_before)

let suite =
  [
    Alcotest.test_case "span nesting and close order" `Quick test_span_nesting;
    Alcotest.test_case "span forest reconstruction" `Quick test_span_forest;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "disabled layer is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "ring buffer capacity and reset" `Quick test_ring_capacity;
    Alcotest.test_case "tee duplicates the stream" `Quick test_tee;
    Alcotest.test_case "jsonl output is parseable" `Quick test_jsonl_parseable;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "stats equal per-domain trace counters" `Quick
      test_stats_match_trace_counters;
    Alcotest.test_case "tracing does not change answers" `Quick
      test_tracing_does_not_change_answers;
    Alcotest.test_case "raising sink on any scan event is contained" `Quick
      test_raising_sink_is_contained;
    Alcotest.test_case "raising flush is contained" `Quick
      test_raising_flush_is_contained;
  ]
