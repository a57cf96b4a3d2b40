module Formula = Vardi_logic.Formula
module Query = Vardi_logic.Query
module Parser = Vardi_logic.Parser
module Pretty = Vardi_logic.Pretty
module Vocabulary = Vardi_logic.Vocabulary
module Relation = Vardi_relational.Relation
module Eval = Vardi_relational.Eval
module Ph = Vardi_cwdb.Ph
module Cw_database = Vardi_cwdb.Cw_database
module Query_check = Vardi_cwdb.Query_check
module Certain = Vardi_certain.Engine
module Session = Vardi_incr.Session
module Cancel = Vardi_certain.Cancel
module Approx = Vardi_approx.Evaluate
module Translate = Vardi_approx.Translate
module Disagree = Vardi_approx.Disagree
module Naive_tables = Vardi_approx.Naive_tables
module Ty_database = Vardi_typed.Ty_database
module Ty_query = Vardi_typed.Ty_query
module Ty_parser = Vardi_typed.Ty_parser
module Ldb_format = Vardi_format.Ldb_format
module Tldb_format = Vardi_format.Tldb_format
module Obs = Vardi_obs.Obs
module Resilient = Vardi_resilience.Resilient
module Budget = Vardi_resilience.Budget
module Faults = Vardi_resilience.Faults
module Wal = Vardi_durable.Wal
module Recovery = Vardi_durable.Recovery
module Store = Vardi_durable.Store

type violation = {
  oracle : string;
  detail : string;
}

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.oracle v.detail

let oracle_ids =
  [
    "exact-reference";
    "exact-merge-first";
    "kernel-parity";
    "approx-backend-algebra";
    "approx-backend-optimized";
    "approx-explicit-ph2";
    "approx-sound";
    "approx-complete";
    "naive-tables-positive";
    "certain-subset-possible";
    "possible-duality";
    "member-consistency";
    "resilient-qualified";
    "resilient-stats-honest";
    "resilient-fault-safety";
    "query-roundtrip";
    "ldb-roundtrip";
    "ldb-parse-parity";
    "typed-approx-sound";
    "typed-query-roundtrip";
    "tldb-roundtrip";
    "incremental-parity";
    "crash-recovery";
  ]

(* Enumeration budgets: the generated databases are tiny, but a caller
   may fuzz bigger shapes; skip the reference's mapping enumeration and
   the member sweep (never the engine itself) when their search space
   explodes. *)
let naive_mapping_budget = 5_000
let member_budget = 1_000

let pow_up_to cap base exponent =
  let rec go acc n = if n = 0 || acc > cap then acc else go (acc * base) (n - 1) in
  if base = 0 then if exponent = 0 then 1 else 0 else go 1 exponent

type ctx = {
  mutable violations : violation list;
  mutable checks : int;
}

let add ctx oracle detail =
  Obs.count "fuzz.violations" 1;
  ctx.violations <- { oracle; detail } :: ctx.violations

(* Run one engine call under an oracle's name: an exception from a
   well-formed instance is itself a violation (crash oracle).
   Sys.Break is an async interrupt, not a crash — it must propagate or
   Ctrl-C could not stop a fuzz campaign. *)
let guard ctx oracle f =
  ctx.checks <- ctx.checks + 1;
  match f () with
  | value -> Some value
  | exception Sys.Break -> raise Sys.Break
  | exception e ->
    add ctx oracle (Printf.sprintf "raised %s" (Printexc.to_string e));
    None

let rel = Fmt.to_to_string Relation.pp

let expect_equal_rel ctx oracle ~reference ~label f =
  match guard ctx oracle f with
  | None -> ()
  | Some actual ->
    if not (Relation.equal reference actual) then
      add ctx oracle
        (Printf.sprintf "%s disagrees: reference %s, got %s" label
           (rel reference) (rel actual))

let expect_equal_bool ctx oracle ~reference ~label f =
  match guard ctx oracle f with
  | None -> ()
  | Some actual ->
    if actual <> reference then
      add ctx oracle
        (Printf.sprintf "%s disagrees: reference %b, got %b" label reference
           actual)

(* --- shared round-trip oracles --- *)

let check_query_roundtrip ctx q =
  match
    guard ctx "query-roundtrip" (fun () ->
        Parser.query (Pretty.query_to_string q))
  with
  | None -> ()
  | Some q' ->
    if not (Query.equal q q') then
      add ctx "query-roundtrip"
        (Printf.sprintf "printed %S, reparsed as %S"
           (Pretty.query_to_string q)
           (Pretty.query_to_string q'))

let check_ldb_roundtrip ctx db =
  match
    guard ctx "ldb-roundtrip" (fun () -> Ldb_format.parse (Ldb_format.print db))
  with
  | None -> ()
  | Some db' ->
    if not (Cw_database.equal db db') then
      add ctx "ldb-roundtrip"
        (Printf.sprintf "printed form reparses differently:\n%s"
           (Ldb_format.print db))

(* The printed database as a hand-edited file might hold it: words
   spaced with tabs and runs of blanks, indented lines, trailing
   comments, comment and blank lines, repeated lines, the lines
   shuffled, CRLF endings and no final newline. None of it changes the
   database the text describes. *)
let reformat state text =
  let pick a = a.(Random.State.int state (Array.length a)) in
  let chance n = Random.State.int state n = 0 in
  let respace line =
    String.split_on_char ' ' line
    |> List.map (fun w -> w ^ pick [| " "; "  "; "\t"; " \t" |])
    |> String.concat "" |> String.trim
  in
  let edit line =
    let line = if chance 3 then respace line else line in
    let line = if chance 4 then pick [| " "; "\t"; "\t " |] ^ line else line in
    if chance 4 then line ^ pick [| " # note"; "#"; "\t# x # y"; " \t" |]
    else line
  in
  let lines =
    List.concat_map
      (fun line ->
        (if chance 6 then [ pick [| ""; "   "; "# comment"; "\t# c" |] ] else [])
        @ (if chance 6 then [ edit line; edit line ] else [ edit line ]))
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
  in
  let lines = Array.of_list lines in
  if chance 2 then
    for i = Array.length lines - 1 downto 1 do
      let j = Random.State.int state (i + 1) in
      let t = lines.(i) in
      lines.(i) <- lines.(j);
      lines.(j) <- t
    done;
  let crlf = Random.State.int state 3 in
  let buffer = Buffer.create (String.length text + 64) in
  Array.iteri
    (fun i line ->
      Buffer.add_string buffer line;
      if i < Array.length lines - 1 || not (chance 3) then
        Buffer.add_string buffer
          (if crlf = 0 || (crlf = 1 && chance 2) then "\r\n" else "\n"))
    lines;
  Buffer.contents buffer

(* The one-pass parser agrees with the reference parser on a reformatted
   printing of [db], and both read back [db]. *)
let check_ldb_parse_parity ctx db =
  let oracle = "ldb-parse-parity" in
  let text = Ldb_format.print db in
  let state = Random.State.make [| Hashtbl.hash text; 0x1DB |] in
  let noisy = reformat state text in
  match guard ctx oracle (fun () -> Noise.ldb_parse_parity noisy) with
  | None -> ()
  | Some (Error detail) -> add ctx oracle (Printf.sprintf "%s on %S" detail noisy)
  | Some (Ok (Some db')) when Cw_database.equal db db' -> ()
  | Some (Ok _) ->
    add ctx oracle
      (Printf.sprintf "%S does not read back the database it reformats" noisy)

(* --- the differential engine oracles --- *)

(* The approximation's reference: Q-hat evaluated by [Eval] over the
   paper-literal Ph2(LB), whose NE relation is materialized, with only
   the alpha$P hooks. Every backend runs on the in-place NE, so the
   backend oracles alone cannot catch a wrong NE. *)
let explicit_ph2 db q =
  (Ph.ph2 db, Disagree.virtuals db, Translate.query Translate.Semantic q)

let check_explicit_ph2 ctx ~equal ~show ~approx f =
  match guard ctx "approx-explicit-ph2" f with
  | None -> ()
  | Some reference ->
    if not (equal reference approx) then
      add ctx "approx-explicit-ph2"
        (Printf.sprintf
           "Q-hat over the explicit Ph2 gives %s, the approximation %s"
           (show reference) (show approx))

let check_boolean ctx db q =
  match
    guard ctx "exact-reference" (fun () ->
        Certain.certain_boolean ~order:Certain.Fresh_first db q)
  with
  | None -> ()
  | Some exact ->
    expect_equal_bool ctx "exact-merge-first" ~reference:exact
      ~label:"Merge_first order" (fun () ->
        Certain.certain_boolean ~order:Certain.Merge_first db q);
    (match
       guard ctx "approx-sound" (fun () -> Approx.boolean db q)
     with
    | None -> ()
    | Some approx ->
      if approx && not exact then
        add ctx "approx-sound"
          (Printf.sprintf "approximation affirms a non-certain sentence");
      (match Approx.completeness db q with
      | Approx.Sound_only -> ()
      | Approx.Complete_fully_specified | Approx.Complete_positive ->
        if approx <> exact then
          add ctx "approx-complete"
            (Printf.sprintf
               "completeness theorem applies but approx %b <> exact %b" approx
               exact));
      expect_equal_bool ctx "approx-backend-algebra" ~reference:approx
        ~label:"Algebra backend" (fun () ->
          Approx.boolean ~backend:Approx.Algebra db q);
      expect_equal_bool ctx "approx-backend-optimized" ~reference:approx
        ~label:"optimized Algebra backend" (fun () ->
          Approx.boolean ~backend:Approx.Algebra_optimized db q);
      check_explicit_ph2 ctx ~equal:Bool.equal ~show:string_of_bool ~approx
        (fun () ->
          let ph2, alpha, hat = explicit_ph2 db q in
          Eval.satisfies ~virtuals:alpha ph2 (Query.body hat)));
    if Query.is_positive q then
      expect_equal_bool ctx "naive-tables-positive" ~reference:exact
        ~label:"naive tables on a positive query" (fun () ->
          Naive_tables.boolean db q);
    (match
       guard ctx "possible-duality" (fun () -> Certain.possible_boolean db q)
     with
    | None -> ()
    | Some possible ->
      if exact && not possible then
        add ctx "certain-subset-possible"
          "certainly true but not even possibly true";
      expect_equal_bool ctx "possible-duality" ~reference:possible
        ~label:"possible = ~certain(~phi)" (fun () ->
          not
            (Certain.certain_boolean db
               (Query.boolean (Formula.Not (Query.body q))))))

let check_relational ctx db q =
  match
    guard ctx "exact-reference" (fun () ->
        Certain.answer ~order:Certain.Fresh_first db q)
  with
  | None -> ()
  | Some exact ->
    expect_equal_rel ctx "exact-merge-first" ~reference:exact
      ~label:"Merge_first order" (fun () ->
        Certain.answer ~order:Certain.Merge_first db q);
    (match
       guard ctx "approx-sound" (fun () -> Approx.answer db q)
     with
    | None -> ()
    | Some approx ->
      if not (Relation.subset approx exact) then
        add ctx "approx-sound"
          (Printf.sprintf "Theorem 11 violated: approx %s not within exact %s"
             (rel approx) (rel exact));
      (match Approx.completeness db q with
      | Approx.Sound_only -> ()
      | Approx.Complete_fully_specified | Approx.Complete_positive ->
        if not (Relation.equal approx exact) then
          add ctx "approx-complete"
            (Printf.sprintf
               "completeness theorem applies but approx %s <> exact %s"
               (rel approx) (rel exact)));
      expect_equal_rel ctx "approx-backend-algebra" ~reference:approx
        ~label:"Algebra backend" (fun () ->
          Approx.answer ~backend:Approx.Algebra db q);
      expect_equal_rel ctx "approx-backend-optimized" ~reference:approx
        ~label:"optimized Algebra backend" (fun () ->
          Approx.answer ~backend:Approx.Algebra_optimized db q);
      check_explicit_ph2 ctx ~equal:Relation.equal ~show:rel ~approx
        (fun () ->
          let ph2, alpha, hat = explicit_ph2 db q in
          Eval.answer ~virtuals:alpha ph2 hat));
    if Query.is_positive q then
      expect_equal_rel ctx "naive-tables-positive" ~reference:exact
        ~label:"naive tables on a positive query" (fun () ->
          Naive_tables.answer db q);
    (match
       guard ctx "certain-subset-possible" (fun () ->
           Certain.possible_answer db q)
     with
    | None -> ()
    | Some possible ->
      if not (Relation.subset exact possible) then
        add ctx "certain-subset-possible"
          (Printf.sprintf "certain %s not within possible %s" (rel exact)
             (rel possible)));
    let k = Query.arity q in
    let constants = Cw_database.constants db in
    if pow_up_to member_budget (List.length constants) k <= member_budget then
      let rec tuples k =
        if k = 0 then [ [] ]
        else
          List.concat_map
            (fun tl -> List.map (fun c -> c :: tl) constants)
            (tuples (k - 1))
      in
      List.iter
        (fun tuple ->
          expect_equal_bool ctx "member-consistency"
            ~reference:(Relation.mem tuple exact)
            ~label:
              (Printf.sprintf "certain_member on (%s)"
                 (String.concat ", " tuple))
            (fun () -> Certain.certain_member db q tuple))
        (tuples k)

(* --- the kernel-parity oracle ---

   The engine's one scan path (interned structures, compiled flat code,
   packed per-structure answers) must be observationally identical to
   the brute-force string evaluator in [Reference]: same answers on
   every entry point, under both structure orders, against both of the
   reference's enumerations — kernel partitions always, and Theorem 1's
   literal mapping enumeration while it fits [naive_mapping_budget].
   The reference shares no code with the scan, and its mapping
   enumeration not even the partition tree. The oracle keeps its
   historical id so committed corpus cases replay. *)

let check_kernel_parity ctx db q =
  let oracle = "kernel-parity" in
  let n = List.length (Cw_database.constants db) in
  let enumerations =
    (Reference.Partitions, "partitions")
    ::
    (if pow_up_to naive_mapping_budget n n <= naive_mapping_budget then
       [ (Reference.Mappings, "mappings") ]
     else [])
  in
  let boolean = Query.is_boolean q in
  let show = function `Bool b -> string_of_bool b | `Rel r -> rel r in
  let same expected actual =
    match (expected, actual) with
    | `Bool a, `Bool b -> Bool.equal a b
    | `Rel a, `Rel b -> Relation.equal a b
    | `Bool _, `Rel _ | `Rel _, `Bool _ -> false
  in
  List.iter
    (fun (what, reference, engine) ->
      let references =
        List.filter_map
          (fun (enumeration, enum_name) ->
            Option.map
              (fun r -> (enum_name, r))
              (guard ctx oracle (fun () -> reference enumeration)))
          enumerations
      in
      List.iter
        (fun (order, ord_name) ->
          match guard ctx oracle (fun () -> engine order) with
          | None -> ()
          | Some actual ->
            List.iter
              (fun (enum_name, expected) ->
                if not (same expected actual) then
                  add ctx oracle
                    (Printf.sprintf
                       "%s under %s disagrees: %s reference %s, got %s" what
                       ord_name enum_name (show expected) (show actual)))
              references)
        [
          (Certain.Fresh_first, "Fresh_first");
          (Certain.Merge_first, "Merge_first");
        ])
    [
      ( (if boolean then "certain_boolean" else "answer"),
        (fun enumeration ->
          if boolean then `Bool (Reference.certain_boolean ~enumeration db q)
          else `Rel (Reference.answer ~enumeration db q)),
        fun order ->
          if boolean then `Bool (Certain.certain_boolean ~order db q)
          else `Rel (Certain.answer ~order db q) );
      ( (if boolean then "possible_boolean" else "possible_answer"),
        (fun enumeration ->
          if boolean then `Bool (Reference.possible_boolean ~enumeration db q)
          else `Rel (Reference.possible_answer ~enumeration db q)),
        fun order ->
          if boolean then `Bool (Certain.possible_boolean ~order db q)
          else `Rel (Certain.possible_answer ~order db q) );
    ]

(* --- resilience oracles ---

   [resilient-qualified] is the qualified-answer lattice, checked
   differentially: whatever the policy and however tight the budget,
   [Lower_bound a ⊆ Q(LB) ⊆ Upper_bound a] and [Exact a = Q(LB)],
   against an exact answer computed by the raw engine outside any
   budget. [resilient-stats-honest] pins the provenance contract: the
   stats never claim more than the result delivers. With a fault seed,
   [resilient-fault-safety] re-checks both under an armed fault plan
   and additionally proves no injected exception leaks through a
   degrading policy nor through a hardened Obs sink. *)

let qualified_bounds ctx ~policy_name ~exact ~subset ~equal ~show result =
  let claim fmt = Printf.ksprintf (add ctx "resilient-qualified") fmt in
  match result with
  | Resilient.Exact v ->
    if not (equal v exact) then
      claim "[%s] Exact %s but the exact answer is %s" policy_name (show v)
        (show exact)
  | Resilient.Lower_bound v ->
    if not (subset v exact) then
      claim "[%s] Lower_bound %s not within exact %s" policy_name (show v)
        (show exact)
  | Resilient.Upper_bound v ->
    if not (subset exact v) then
      claim "[%s] Upper_bound %s does not contain exact %s" policy_name
        (show v) (show exact)
  | Resilient.Exhausted ->
    if policy_name <> "Fail" then
      claim "[%s] Exhausted outside the Fail policy" policy_name

let stats_honest ctx ~policy_name result (stats : Resilient.stats) =
  let expect cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then
          add ctx "resilient-stats-honest"
            (Printf.sprintf "[%s] %s" policy_name msg))
      fmt
  in
  let source_matches =
    match (result, stats.Resilient.source) with
    | Resilient.Exact _, Resilient.Exact_scan
    | Resilient.Upper_bound _, Resilient.Partial_scan
    | Resilient.Lower_bound _, Resilient.Approx_fallback
    | Resilient.Exhausted, Resilient.No_answer ->
      true
    | _ -> false
  in
  expect source_matches "source %S does not match the result constructor"
    (Resilient.source_to_string stats.Resilient.source);
  match result with
  | Resilient.Exact _ ->
    expect
      (stats.Resilient.tripped = None && stats.Resilient.scan_failure = None)
      "Exact result but a degradation cause is recorded";
    expect (stats.Resilient.scan <> None) "Exact result without scan stats"
  | Resilient.Exhausted | Resilient.Upper_bound _ ->
    expect (stats.Resilient.tripped <> None)
      "degraded result without a tripped budget dimension"
  | Resilient.Lower_bound _ ->
    expect
      (stats.Resilient.tripped <> None || stats.Resilient.scan_failure <> None)
      "fallback taken without a recorded cause"

let policies =
  [
    (Resilient.Fail, "Fail");
    (Resilient.Partial, "Partial");
    (Resilient.Approx, "Approx");
  ]

(* One structure is never enough for the generated instances unless the
   scan decides on the seed structure itself, so this budget makes the
   degradation paths fire on most instances while still exercising the
   decided-within-budget corner on the rest. *)
let trip_budget = Budget.make ~max_structures:1 ()

let check_resilient_bool ctx db q =
  match
    guard ctx "resilient-qualified" (fun () -> Certain.certain_boolean db q)
  with
  | None -> ()
  | Some exact ->
    let subset a b = (not a) || b in
    let check_one ~policy_name run =
      match guard ctx "resilient-qualified" run with
      | None -> ()
      | Some (result, stats) ->
        qualified_bounds ctx ~policy_name ~exact ~subset ~equal:Bool.equal
          ~show:string_of_bool result;
        stats_honest ctx ~policy_name result stats
    in
    check_one ~policy_name:"Fail" (fun () ->
        match Resilient.boolean_stats db q with
        | (Resilient.Exact _, _) as r -> r
        | other, stats ->
          add ctx "resilient-qualified"
            (Fmt.str "unlimited budget degraded to %a"
               (Resilient.pp_qualified Fmt.bool) other);
          (other, stats));
    List.iter
      (fun (policy, policy_name) ->
        check_one ~policy_name (fun () ->
            Resilient.boolean_stats ~policy ~budget:trip_budget db q))
      policies

let check_resilient_rel ctx db q =
  match guard ctx "resilient-qualified" (fun () -> Certain.answer db q) with
  | None -> ()
  | Some exact ->
    let check_one ~policy_name run =
      match guard ctx "resilient-qualified" run with
      | None -> ()
      | Some (result, stats) ->
        qualified_bounds ctx ~policy_name ~exact ~subset:Relation.subset
          ~equal:Relation.equal ~show:rel result;
        stats_honest ctx ~policy_name result stats
    in
    check_one ~policy_name:"Fail" (fun () ->
        match Resilient.answer_stats db q with
        | (Resilient.Exact _, _) as r -> r
        | other, stats ->
          add ctx "resilient-qualified"
            (Fmt.str "unlimited budget degraded to %a"
               (Resilient.pp_qualified Relation.pp) other);
          (other, stats));
    List.iter
      (fun (policy, policy_name) ->
        check_one ~policy_name (fun () ->
            Resilient.answer_stats ~policy ~budget:trip_budget db q))
      policies

let check_fault_safety ctx ~seed db q =
  let boolean = Query.is_boolean q in
  (* Degrading policies must contain an armed fault plan: whatever the
     injection kills, no exception escapes and the bound still holds.
     The raw engine computes the exact reference without a token, so no
     fault point sits on its path even while the plan is armed. *)
  List.iter
    (fun (policy, policy_name) ->
      match
        guard ctx "resilient-fault-safety" (fun () ->
            Faults.with_faults ~seed ~rate:0.2 (fun () ->
                if boolean then (
                  let result, stats =
                    Resilient.boolean_stats ~policy ~budget:trip_budget db q
                  in
                  let exact = Certain.certain_boolean db q in
                  qualified_bounds ctx ~policy_name ~exact
                    ~subset:(fun a b -> (not a) || b)
                    ~equal:Bool.equal ~show:string_of_bool result;
                  stats_honest ctx ~policy_name result stats)
                else
                  let result, stats =
                    Resilient.answer_stats ~policy ~budget:trip_budget db q
                  in
                  let exact = Certain.answer db q in
                  qualified_bounds ctx ~policy_name ~exact
                    ~subset:Relation.subset ~equal:Relation.equal ~show:rel
                    result;
                  stats_honest ctx ~policy_name result stats))
      with
      | Some () | None -> ())
    [ (Resilient.Partial, "Partial"); (Resilient.Approx, "Approx") ];
  (* A raising Obs sink must be caught, counted and disabled without
     perturbing the engine's verdict — skipped when the caller already
     has a real sink installed (we must not clobber their trace). *)
  if not (Obs.enabled ()) then begin
    let errors_before = Obs.sink_errors () in
    (match
       guard ctx "resilient-fault-safety" (fun () ->
           let reference =
             if boolean then `Bool (Certain.certain_boolean db q)
             else `Rel (Certain.answer db q)
           in
           let under_sink =
             Obs.with_sink
               (Faults.raising_sink ())
               (fun () ->
                 if boolean then `Bool (Certain.certain_boolean db q)
                 else `Rel (Certain.answer db q))
           in
           (reference, under_sink))
     with
    | None -> ()
    | Some (reference, under_sink) ->
      let agrees =
        match (reference, under_sink) with
        | `Bool a, `Bool b -> Bool.equal a b
        | `Rel a, `Rel b -> Relation.equal a b
        | _ -> false
      in
      if not agrees then
        add ctx "resilient-fault-safety"
          "a raising Obs sink changed the engine's verdict";
      if Obs.sink_errors () <= errors_before then
        add ctx "resilient-fault-safety"
          "a raising Obs sink was never caught or counted";
      if Obs.enabled () then
        add ctx "resilient-fault-safety"
          "a raising Obs sink was left installed")
  end

(* A resilient call's observable outcome as one comparable line: the
   qualified constructor and value, the [source]/[tripped]/
   [scan_failure] provenance and the scan counters. Wall-clock is
   excluded. *)

let resilient_summary ~show (result, (stats : Resilient.stats)) =
  let reason = function
    | None -> "-"
    | Some r -> Cancel.reason_to_string r
  in
  let qualified =
    match result with
    | Resilient.Exact v -> "Exact " ^ show v
    | Resilient.Lower_bound v -> "Lower_bound " ^ show v
    | Resilient.Upper_bound v -> "Upper_bound " ^ show v
    | Resilient.Exhausted -> "Exhausted"
  in
  let scan =
    match stats.Resilient.scan with
    | None -> "none"
    | Some s ->
      Printf.sprintf "{structures=%d evaluations=%d early_exit=%b tripped=%s}"
        s.Certain.structures s.Certain.evaluations s.Certain.early_exit
        (reason s.Certain.interrupted)
  in
  Printf.sprintf "%s source=%s tripped=%s failure=%s scan=%s" qualified
    (Resilient.source_to_string stats.Resilient.source)
    (reason stats.Resilient.tripped)
    (Option.value stats.Resilient.scan_failure ~default:"-")
    scan

(* --- the incremental-parity oracle ---

   An [Incr_session] with a random mutation sequence applied must stay
   observationally identical to from-scratch evaluation on the mutated
   database: the same answers as [Reference] under both structure
   orders, and — the positional contract — the same resilient summaries
   as a freshly prepared query under a tripping budget (same qualified
   constructor, same provenance, same scan counters; a memo hit must
   occupy exactly the stream position a fresh evaluation would). After
   each mutation, the query prepared at the previous step is scanned
   again, once the new view's prepares have claimed the memo, and must
   still give the previous database's reference answer. The mutation
   sequence is derived deterministically from the instance, so a
   violation replays from the driver's seed alone. *)

let check_incremental_parity ctx db q =
  let oracle = "incremental-parity" in
  let seed = Hashtbl.hash (Ldb_format.print db, Pretty.query_to_string q) in
  let state = Random.State.make [| seed; 0x1 |] in
  (* The cache capacity comes from the seed, not from [state], so a
     seed's mutation script does not depend on it. With room for 1 or 3
     entries, a stream of more renamings than that takes the session's
     streaming path and its structure cache and memo tables fill; 4096
     is the default, which no generated database reaches. *)
  let cache_capacity = [| 1; 3; 4096 |].(seed mod 3) in
  match guard ctx oracle (fun () -> Session.create ~cache_capacity db) with
  | None -> ()
  | Some session ->
    let boolean = Query.is_boolean q in
    let pick l = List.nth l (Random.State.int state (List.length l)) in
    let preds = Vocabulary.predicates (Cw_database.vocabulary db) in
    (* One random mutation; [false] when the drawn mutation does not
       apply (empty database, merge that would invalidate the query or
       hit a uniqueness axiom, ...) — the step is simply skipped. *)
    let mutate () =
      let current = Session.db session in
      let constants = Cw_database.constants current in
      match Random.State.int state 4 with
      | 0 when preds <> [] ->
        let p, k = pick preds in
        let fact =
          { Cw_database.pred = p; args = List.init k (fun _ -> pick constants) }
        in
        Session.insert session fact;
        true
      | 1 -> (
        match Cw_database.facts current with
        | [] -> false
        | facts ->
          Session.retract session (pick facts);
          true)
      | 2 when List.length constants >= 2 ->
        let c = pick constants and d = pick constants in
        if String.equal c d then false
        else begin
          Session.close_unknown session c d ~to_:`Distinct;
          true
        end
      | 3 when List.length constants >= 2 ->
        let keep = pick constants and drop = pick constants in
        if String.equal keep drop || Cw_database.are_distinct current keep drop
        then false
        else begin
          (* A merge drops a constant the query may mention; probe the
             merged database first and skip the step if the query would
             no longer validate. *)
          match
            Query_check.validate
              (Cw_database.merge_constants current ~keep ~drop)
              q
          with
          | () ->
            Session.close_unknown session keep drop ~to_:`Equal;
            true
          | exception Invalid_argument _ -> false
        end
      | _ -> false
    in
    let orders =
      [
        (Certain.Fresh_first, "Fresh_first");
        (Certain.Merge_first, "Merge_first");
      ]
    in
    (* [prepared]'s answer under [order] against [reference]. *)
    let expect_answer ~label ~order reference prepared =
      match reference with
      | None -> ()
      | Some (`Bool reference) ->
        expect_equal_bool ctx oracle ~reference ~label (fun () ->
            fst (Certain.prepared_certain_boolean_stats ~order (prepared ())))
      | Some (`Rel reference) ->
        expect_equal_rel ctx oracle ~reference ~label (fun () ->
            fst (Certain.prepared_answer_stats ~order (prepared ())))
    in
    (* Checks the session at [step] and returns what a later step needs
       to re-scan it: the reference answer and a query prepared now. *)
    let compare_at step =
      let current = Session.db session in
      let reference =
        guard ctx oracle (fun () ->
            if boolean then `Bool (Reference.certain_boolean current q)
            else `Rel (Reference.answer current q))
      in
      List.iter
        (fun (order, ord_name) ->
          let label what =
            Printf.sprintf "step %d, %s under %s" step what ord_name
          in
          expect_answer ~label:(label "session answer") ~order reference
            (fun () -> Session.prepare session q);
          (* Budgets: fresh-prepared and session-prepared must trip at
             the same stream position with the same provenance. *)
          List.iter
            (fun (policy, policy_name) ->
              let summarize prepared () =
                if boolean then
                  resilient_summary ~show:string_of_bool
                    (Resilient.prepared_boolean_stats ~policy ~order
                       ~budget:trip_budget prepared)
                else
                  resilient_summary ~show:rel
                    (Resilient.prepared_answer_stats ~policy ~order
                       ~budget:trip_budget prepared)
              in
              match
                ( guard ctx oracle (summarize (Certain.prepare current q)),
                  guard ctx oracle (summarize (Session.prepare session q)) )
              with
              | Some fresh_summary, Some incr_summary ->
                if not (String.equal fresh_summary incr_summary) then
                  add ctx oracle
                    (Printf.sprintf
                       "%s: budget behavior diverges:\n\
                       \  fresh:       %s\n\
                       \  incremental: %s"
                       (label ("policy " ^ policy_name))
                       fresh_summary incr_summary)
              | _ -> ())
            [ (Resilient.Fail, "Fail"); (Resilient.Partial, "Partial") ])
        orders;
      (reference, guard ctx oracle (fun () -> Session.prepare session q))
    in
    (* A query prepared at the previous step, scanned after this step's
       mutation and the new prepares, still answers at the previous
       database: the memo its session claimed for the new view must not
       leak into it, nor it into the memo. *)
    let rescan_previous step (before, (reference, prepared)) =
      Option.iter
        (fun prepared ->
          List.iter
            (fun (order, ord_name) ->
              expect_answer ~order reference
                ~label:
                  (Printf.sprintf "step %d, step %d's prepared query under %s"
                     step before ord_name)
                (fun () -> prepared))
            orders)
        prepared
    in
    let previous = ref (0, compare_at 0) in
    for step = 1 to 3 do
      match guard ctx oracle (fun () -> mutate ()) with
      | Some true ->
        let now = compare_at step in
        rescan_previous step !previous;
        previous := (step, now)
      | Some false | None -> ()
    done

(* --- crash-recovery -------------------------------------------------

   Durability oracle for the write-ahead log (Theorem 1 state as the
   recoverable object): run a random mutation script against a
   [Durable_store] with fault injection armed, "kill" the process at
   whatever fault point fires ([Store.abandon] — the file descriptor is
   dropped without flushing or checkpointing), then recover the
   directory and demand the recovered session equals a fresh session
   that applied exactly the durable prefix of the script.

   Which prefix is durable is determined by the crash point, and that
   determinism is the contract under test:

   - ["wal.append"] / ["wal.append.short"]: the record was not (fully)
     written, so the in-flight mutation must NOT survive — recovery
     sees the acknowledged prefix only (truncating the torn tail in the
     short-write case).
   - ["wal.fsync"] / ["snapshot.write"] / ["snapshot.write.short"]: the
     record was fully written before the crash, so the in-flight
     mutation MUST survive even though the client never saw an ack
     (fsync crash) or the checkpoint was interrupted (snapshot crash —
     the stale tmp file is swept, the previous snapshot + log win).

   Answers and delta epochs must agree, not just the databases: a
   recovered session that answers through stale caches or restarts its
   epoch would pass a database-only check. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let check_crash_recovery ctx ~seed db q =
  let oracle = "crash-recovery" in
  let state = Random.State.make [| seed; 0xC4A5 |] in
  let dir = Filename.temp_file "ldb-crashrec" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  match
    guard ctx oracle (fun () ->
        Store.create ~dir ~sync:Wal.Always ~snapshot_every:4 db)
  with
  | None -> ()
  | Some store ->
    let pick l = List.nth l (Random.State.int state (List.length l)) in
    let preds = Vocabulary.predicates (Cw_database.vocabulary db) in
    (* Draw the next mutation, valid against [current] (the store
       probes validity itself and would raise [Invalid_argument] on an
       invalid one — the generator only proposes applicable steps, the
       same vocabulary walk as [check_incremental_parity]). *)
    let gen current =
      let constants = Cw_database.constants current in
      match Random.State.int state 4 with
      | 0 when preds <> [] ->
        let p, k = pick preds in
        Some
          (Session.Insert
             {
               Cw_database.pred = p;
               args = List.init k (fun _ -> pick constants);
             })
      | 1 -> (
        match Cw_database.facts current with
        | [] -> None
        | facts -> Some (Session.Retract (pick facts)))
      | 2 when List.length constants >= 2 ->
        let c = pick constants and d = pick constants in
        if String.equal c d then None
        else Some (Session.Close { left = c; right = d; equal = false })
      | 3 when List.length constants >= 2 ->
        let keep = pick constants and drop = pick constants in
        if String.equal keep drop || Cw_database.are_distinct current keep drop
        then None
        else (
          match
            Query_check.validate
              (Cw_database.merge_constants current ~keep ~drop)
              q
          with
          | () -> Some (Session.Close { left = keep; right = drop; equal = true })
          | exception Invalid_argument _ -> None)
      | _ -> None
    in
    let script_len = 8 + Random.State.int state 8 in
    (* Mutations whose commit returned normally (acknowledged), newest
       first; [crashed] records the fault point and the in-flight
       mutation when injection fired mid-commit. *)
    let acked = ref [] in
    let crashed = ref None in
    (match
       guard ctx oracle (fun () ->
           Faults.with_faults ~seed ~rate:0.1 (fun () ->
               let step = ref 0 in
               while !step < script_len && !crashed = None do
                 incr step;
                 let current = Session.db (Store.session store) in
                 match gen current with
                 | None -> ()
                 | Some m -> (
                   match Store.commit store m with
                   | `Applied _ | `Noop -> acked := m :: !acked
                   | exception Faults.Injected point ->
                     crashed := Some (point, m))
               done))
     with
    | None -> ()
    | Some () ->
      Store.abandon store;
      let durable =
        match !crashed with
        | None -> List.rev !acked
        | Some (("wal.fsync" | "snapshot.write" | "snapshot.write.short"), m)
          ->
          List.rev (m :: !acked)
        | Some (_, _) ->
          (* "wal.append" / "wal.append.short": nothing (fully) hit the
             log for the in-flight mutation. *)
          List.rev !acked
      in
      let where =
        match !crashed with
        | None -> Printf.sprintf "clean kill after %d commits" (List.length !acked)
        | Some (point, _) ->
          Printf.sprintf "crash at %s after %d commits" point
            (List.length !acked)
      in
      (match
         guard ctx oracle (fun () ->
             let reference = Session.create db in
             List.iter (fun m -> ignore (Session.apply reference m)) durable;
             let report = Recovery.recover dir in
             (reference, report))
       with
      | None -> ()
      | Some (reference, report) ->
        let edb = Session.db reference in
        let rdb = Session.db report.Recovery.r_session in
        ctx.checks <- ctx.checks + 1;
        if not (Cw_database.equal rdb edb) then
          add ctx oracle
            (Printf.sprintf
               "%s: recovered database differs from the durable prefix:\n\
               \  expected: %s\n\
               \  recovered: %s"
               where (Ldb_format.print edb) (Ldb_format.print rdb));
        ctx.checks <- ctx.checks + 1;
        let edelta = Session.delta_epoch reference
        and rdelta = Session.delta_epoch report.Recovery.r_session in
        if rdelta <> edelta then
          add ctx oracle
            (Printf.sprintf
               "%s: recovered delta epoch %d, expected %d (the epoch must \
                count replayed mutations or compiled-plan reuse breaks)"
               where rdelta edelta);
        (* The recovered session must answer live, not just hold the
           right facts. *)
        (if Query.is_boolean q then
           expect_equal_bool ctx oracle
             ~reference:(Certain.certain_boolean edb q)
             ~label:(where ^ ", recovered session answer") (fun () ->
               fst
                 (Certain.prepared_certain_boolean_stats
                    (Session.prepare report.Recovery.r_session q)))
         else
           expect_equal_rel ctx oracle ~reference:(Certain.answer edb q)
             ~label:(where ^ ", recovered session answer") (fun () ->
               fst
                 (Certain.prepared_answer_stats
                    (Session.prepare report.Recovery.r_session q))));
        (* Recovery is idempotent: a second, read-only pass over the
           (now truncated) directory lands on the same state. *)
        (match guard ctx oracle (fun () -> Recovery.verify dir) with
        | None -> ()
        | Some again ->
          ctx.checks <- ctx.checks + 1;
          if not (Cw_database.equal (Session.db again.Recovery.r_session) edb)
          then
            add ctx oracle
              (Printf.sprintf "%s: second recovery pass diverged" where))))

let check ?faults_seed db q =
  let ctx = { violations = []; checks = 0 } in
  Obs.span "fuzz.oracle" (fun () ->
      check_query_roundtrip ctx q;
      check_ldb_roundtrip ctx db;
      check_ldb_parse_parity ctx db;
      if Query.is_boolean q then check_boolean ctx db q
      else check_relational ctx db q;
      check_kernel_parity ctx db q;
      if Query.is_boolean q then check_resilient_bool ctx db q
      else check_resilient_rel ctx db q;
      (match faults_seed with
      | Some seed ->
        check_fault_safety ctx ~seed db q;
        check_crash_recovery ctx ~seed db q
      | None -> ());
      check_incremental_parity ctx db q;
      Obs.count "fuzz.checks" ctx.checks);
  List.rev ctx.violations

(* --- typed oracles --- *)

let ty_query_to_string = Fmt.to_to_string Ty_parser.pp_query

let check_typed tdb tq =
  let ctx = { violations = []; checks = 0 } in
  Obs.span "fuzz.oracle_typed" (fun () ->
      (match
         guard ctx "typed-query-roundtrip" (fun () ->
             Ty_parser.query (ty_query_to_string tq))
       with
      | None -> ()
      | Some tq' ->
        if
          not
            (String.equal (ty_query_to_string tq) (ty_query_to_string tq'))
        then
          add ctx "typed-query-roundtrip"
            (Printf.sprintf "printed %S, reparsed as %S"
               (ty_query_to_string tq) (ty_query_to_string tq')));
      (match
         guard ctx "tldb-roundtrip" (fun () ->
             Tldb_format.parse (Tldb_format.print tdb))
       with
      | None -> ()
      | Some tdb' ->
        if
          not
            (Cw_database.equal (Ty_database.to_cw tdb)
               (Ty_database.to_cw tdb'))
        then
          add ctx "tldb-roundtrip"
            (Printf.sprintf "printed form describes a different database:\n%s"
               (Tldb_format.print tdb)));
      (match
         ( guard ctx "typed-approx-sound" (fun () ->
               Ty_query.approx_answer tdb tq),
           guard ctx "typed-approx-sound" (fun () ->
               Ty_query.certain_answer tdb tq) )
       with
      | Some approx, Some exact ->
        if not (Relation.subset approx exact) then
          add ctx "typed-approx-sound"
            (Printf.sprintf
               "Theorem 11 violated through the typed elaboration: approx %s \
                not within exact %s"
               (rel approx) (rel exact))
      | _ -> ());
      Obs.count "fuzz.checks" ctx.checks);
  List.rev ctx.violations
