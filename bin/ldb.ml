(* ldb — command-line front end for CW logical databases.

   ldb info      DB.ldb                      inspect a database
   ldb axioms    DB.ldb                      print the full theory
   ldb query     DB.ldb "(x). P(x)"          evaluate a query
   ldb compile   DB.ldb "(x). ~P(x)"         show Q-hat and the algebra plan
   ldb worlds    DB.ldb                      enumerate possible-world shapes
   ldb mutate    DB.ldb --insert "P(a)"      apply mutations to a database file
   ldb fuzz      --seed 42 --count 10000     differential fuzzing with oracles

   Exit codes (documented in README.md, tested in test/test_cli.ml):
     0    success — affirmative verdict / non-empty answer / clean fuzz run
     1    refuted or empty — false verdict, empty relation, oracle violations
     2    usage, file, parse or type errors
     124  budget exhausted under --on-budget fail
     130  interrupted (SIGINT) *)

open Cmdliner
module Cterm = Cmdliner.Term
open Logicaldb

(* --- shared arguments and helpers --- *)

let db_arg =
  let doc = "Database file in .ldb format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DB" ~doc)

let query_arg =
  let doc = "Query, e.g. \"(x, y). exists z. R(x, z) /\\\\ R(z, y)\"." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)

let handle f =
  try f () with
  | Ldb_format.Syntax_error (line, msg) ->
    Fmt.epr "syntax error at line %d: %s@." line msg;
    exit 2
  | Parser.Parse_error (pos, msg) ->
    Fmt.epr "query syntax error at offset %d: %s@." pos msg;
    exit 2
  | Lexer.Lex_error (pos, msg) ->
    Fmt.epr "query lexical error at offset %d: %s@." pos msg;
    exit 2
  | Invalid_argument msg ->
    Fmt.epr "error: %s@." msg;
    exit 2
  | Eval.Eval_error msg ->
    Fmt.epr "evaluation error: %s@." msg;
    exit 2
  | Compile.Unsupported msg ->
    Fmt.epr "error: the algebra backends take first-order queries only (%s)@."
      msg;
    exit 2
  | Fuzz_corpus.Corpus_error msg ->
    Fmt.epr "corpus error: %s@." msg;
    exit 2
  | Recovery.Corrupt msg ->
    Fmt.epr "unrecoverable: %s@." msg;
    exit 2
  | Wal.Corrupt { offset; reason } ->
    Fmt.epr "unrecoverable: WAL corrupt at byte %d: %s@." offset reason;
    exit 2
  | Snapshot.Corrupt msg ->
    Fmt.epr "unrecoverable: %s@." msg;
    exit 2
  | Sys_error msg ->
    Fmt.epr "error: %s@." msg;
    exit 2

(* .tldb files hold typed databases; everything else is untyped. *)
type loaded =
  | Untyped of Cw_database.t
  | Typed of Ty_database.t

let load_any path =
  if Filename.check_suffix path ".tldb" then Typed (Tldb_format.load path)
  else Untyped (Ldb_format.load path)

(* Generic commands work on the untyped elaboration. *)
let load path =
  match load_any path with
  | Untyped db -> db
  | Typed tdb -> Ty_database.to_cw tdb

(* --- info --- *)

let info_cmd =
  let run path =
    handle (fun () ->
        let db = load path in
        let constants = Cw_database.constants db in
        Fmt.pr "constants (%d): %s@." (List.length constants)
          (String.concat ", " constants);
        Fmt.pr "predicates: %s@."
          (String.concat ", "
             (List.map
                (fun (p, k) -> Printf.sprintf "%s/%d" p k)
                (Vocabulary.predicates (Cw_database.vocabulary db))));
        Fmt.pr "facts: %d@." (Cw_database.fact_count db);
        Fmt.pr "uniqueness axioms: %d@."
          (List.length (Cw_database.distinct_pairs db));
        Fmt.pr "fully specified: %b@." (Cw_database.is_fully_specified db);
        Fmt.pr "unknown values: %s@."
          (match Cw_database.unknown_values db with
          | [] -> "(none)"
          | us -> String.concat ", " us);
        let cap = 1_000_000 in
        let count = Partition.count_valid_up_to cap db in
        Fmt.pr "possible-world shapes (kernel partitions): %s@."
          (if count >= cap then Printf.sprintf ">= %d" cap
           else string_of_int count))
  in
  let doc = "Show a database's vocabulary, axioms and unknowns." in
  Cmd.v (Cmd.info "info" ~doc) Cterm.(const run $ db_arg)

(* --- axioms --- *)

let axioms_cmd =
  let run path =
    handle (fun () ->
        let db = load path in
        List.iter
          (fun f -> Fmt.pr "%a@." Pretty.pp_formula f)
          (Axioms.theory db))
  in
  let doc =
    "Print the five-component theory (facts, uniqueness, domain closure, \
     completions)."
  in
  Cmd.v (Cmd.info "axioms" ~doc) Cterm.(const run $ db_arg)

(* --- query --- *)

type engine =
  | Exact
  | Approximate
  | Possible

let engine_arg =
  let doc =
    "Evaluation engine: $(b,exact) (Theorem 1 certain answers), \
     $(b,approx) (Section 5 sound approximation), or $(b,possible) \
     (dual modality)."
  in
  Arg.(
    value
    & opt (enum [ ("exact", Exact); ("approx", Approximate); ("possible", Possible) ]) Exact
    & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

(* Deprecated: there is one evaluation kernel. The flag still parses
   the three historical names (and rejects anything else with exit 2)
   so existing scripts keep working; the value selects nothing. *)
let kernel_arg =
  let doc =
    "Deprecated and ignored: the exact and possible engines have a single \
     evaluation kernel. $(b,interned), $(b,compiled) and $(b,strings) are \
     still accepted; any other name is an error."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("interned", Certain.Interned);
             ("compiled", Certain.Compiled);
             ("strings", Certain.Strings);
           ])
        Certain.Compiled
    & info [ "kernel" ] ~docv:"KERNEL" ~doc)

let backend_arg =
  let doc =
    "Approximation back end, for answers and sentences alike: \
     $(b,direct) (Tarskian evaluator), $(b,algebra) (compiled relational \
     algebra) or $(b,optimized) (the compiled plan after the optimizer's \
     rewrites, which fuse conjunctions into equi-joins; a negated atom or \
     inequality that a join binds is evaluated only over the bound \
     tuples). The algebra back ends take first-order queries only."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("direct", Approx.Direct);
             ("algebra", Approx.Algebra);
             ("optimized", Approx.Algebra_optimized);
           ])
        Approx.Direct
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let explain_arg =
  let doc =
    "Before evaluating, print the query plan: for $(b,-e approx), the \
     plan of the selected $(b,--backend) (the Tarskian evaluator, the \
     compiled algebra expression, or the optimized one); for the exact \
     and possible engines, the prepared algebra plan run per structure."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let stats_arg =
  let doc =
    "Print structure/evaluation counters, pruning and wall time after the \
     answer."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let timeout_arg =
  let doc = "Budget: wall-clock limit for the exact scan, in seconds." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let max_structures_arg =
  let doc = "Budget: maximum structures the exact scan may examine." in
  Arg.(value & opt (some int) None & info [ "max-structures" ] ~docv:"N" ~doc)

let max_evaluations_arg =
  let doc = "Budget: maximum query evaluations the exact scan may perform." in
  Arg.(value & opt (some int) None & info [ "max-evaluations" ] ~docv:"N" ~doc)

let policy_arg =
  let doc =
    "What to do when the budget trips: $(b,fail) (report exhaustion, exit \
     124), $(b,partial) (print the interrupted scan's unrefuted survivors — \
     an upper bound), or $(b,approx) (fall back to the Section 5 sound \
     approximation — a lower bound)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("fail", Resilient.Fail);
             ("partial", Resilient.Partial);
             ("approx", Resilient.Approx);
           ])
        Resilient.Fail
    & info [ "on-budget" ] ~docv:"POLICY" ~doc)

let trace_arg =
  let doc =
    "Trace the evaluation through the observability layer. Plain $(b,--trace) \
     prints a nested span tree (per-phase timings, per-domain counters) after \
     the answer; $(b,--trace=json:FILE) appends one JSON object per event to \
     FILE instead (JSON-lines)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "console") (some string) None
    & info [ "trace" ] ~docv:"console|json:FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the aggregated counter table (totals and per-domain breakdown) \
     after the answer."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let print_stats stats =
  Fmt.pr
    "structures: %d  evaluations: %d  early exit: %b  pruned candidates: %d  \
     wall: %.1f ms@."
    stats.Certain.structures stats.Certain.evaluations
    stats.Certain.early_exit stats.Certain.pruned_candidates
    (Int64.to_float stats.Certain.wall_ns /. 1e6)

(* Run [f] with whatever sinks --trace / --metrics ask for, then render
   the buffered output. The console trace already includes the counter
   table, so --metrics adds its own buffer only when the trace is
   absent or going to a JSON file.

   Teardown must survive every exit path. [exit] inside [f] (the error
   helpers, a non-zero status) bypasses Fun.protect, and Stdlib.exit
   flushes only the std channels — a --trace=json:FILE channel would
   silently lose its buffered tail. So the single idempotent [finish]
   (uninstall-and-flush the sink, then close the file) is both the
   Fun.protect finalizer and an at_exit handler; whichever fires first
   wins, and an exception after a partial trace write still leaves a
   complete, closed JSON-lines file. *)
let with_observability ~trace ~metrics f =
  let sinks = ref [] in
  let finishers = ref [] in
  (match trace with
  | None -> ()
  | Some "console" ->
    sinks := Obs.console_sink Fmt.stdout :: !sinks
  | Some spec when String.length spec > 5 && String.sub spec 0 5 = "json:" ->
    let path = String.sub spec 5 (String.length spec - 5) in
    let oc = open_out path in
    sinks := Obs.jsonl_sink oc :: !sinks;
    finishers :=
      (fun () ->
        close_out_noerr oc;
        Fmt.pr "(trace written to %s)@." path)
      :: !finishers
  | Some spec ->
    Fmt.epr "error: --trace expects no value or json:FILE, got %S@." spec;
    exit 2);
  if metrics && trace <> Some "console" then begin
    let buf = Obs.buffer () in
    sinks := Obs.buffer_sink buf :: !sinks;
    finishers :=
      (fun () -> Obs.pp_counters Fmt.stdout (Obs.events buf)) :: !finishers
  end;
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      (* Uninstall flushes the sink (and so the trace channel) before
         the close below; with no sink installed it is a no-op. *)
      Obs.uninstall ();
      List.iter (fun g -> g ()) (List.rev !finishers)
    end
  in
  at_exit finish;
  (match !sinks with
  | [] -> ()
  | [ sink ] -> Obs.install sink
  | sinks -> Obs.install (Obs.tee sinks));
  Fun.protect ~finally:finish f

let print_relation answer =
  Relation.iter
    (fun tuple -> Fmt.pr "%s@." (String.concat ", " tuple))
    answer;
  Fmt.pr "(%d tuples)@." (Relation.cardinal answer)

(* Exit-status side of the taxonomy: a false verdict or an empty answer
   is "refuted" (1), anything affirmative is 0. *)
let boolean_status v = if v then 0 else 1
let relation_status r = if Relation.cardinal r = 0 then 1 else 0

(* Typed query evaluation for .tldb databases: typed syntax, typed
   typechecking, then the untyped engines through the elaboration. *)
let run_typed_query tdb query_text engine =
  let q =
    try Ty_parser.query query_text
    with Ty_parser.Parse_error (pos, msg) ->
      Fmt.epr "typed query syntax error at offset %d: %s@." pos msg;
      exit 2
  in
  (try Ty_query.typecheck (Ty_database.vocabulary tdb) q
   with Ty_formula.Type_error msg ->
     Fmt.epr "type error: %s@." msg;
     exit 2);
  if q.Ty_query.head = [] then begin
    let verdict =
      match engine with
      | Exact -> Ty_query.certain_boolean tdb q
      | Approximate -> Ty_query.approx_boolean tdb q
      | Possible ->
        not
          (Ty_query.certain_boolean tdb
             (Ty_query.boolean (Ty_formula.Not q.Ty_query.body)))
    in
    Fmt.pr "%b@." verdict;
    boolean_status verdict
  end
  else begin
    let answer =
      match engine with
      | Exact -> Ty_query.certain_answer tdb q
      | Approximate -> Ty_query.approx_answer tdb q
      | Possible -> Ty_query.possible_answer tdb q
    in
    print_relation answer;
    relation_status answer
  end

(* The resilient path: evaluate under a limited budget and render the
   qualified result with its provenance. *)
let print_qualified_note = function
  | Resilient.Exact _ -> ()
  | Resilient.Lower_bound _ ->
    Fmt.pr "(lower bound: Theorem-11 sound approximation)@."
  | Resilient.Upper_bound _ ->
    Fmt.pr "(upper bound: unrefuted survivors of the interrupted scan)@."
  | Resilient.Exhausted -> ()

let run_resilient db q ~policy ~stats ~budget =
  let exhausted () =
    Fmt.epr "budget exhausted (%s)@." (Budget.to_string budget);
    124
  in
  if Query.is_boolean q then begin
    let result, rstats =
      Resilient.boolean_stats ~policy ~budget db q
    in
    let status =
      match result with
      | Resilient.Exhausted -> exhausted ()
      | Resilient.Exact v | Resilient.Lower_bound v | Resilient.Upper_bound v
        ->
        Fmt.pr "%b@." v;
        print_qualified_note result;
        boolean_status v
    in
    if stats then Fmt.pr "%a@." Resilient.pp_stats rstats;
    status
  end
  else begin
    let result, rstats =
      Resilient.answer_stats ~policy ~budget db q
    in
    let status =
      match result with
      | Resilient.Exhausted -> exhausted ()
      | Resilient.Exact r | Resilient.Lower_bound r | Resilient.Upper_bound r
        ->
        print_relation r;
        print_qualified_note result;
        relation_status r
    in
    if stats then Fmt.pr "%a@." Resilient.pp_stats rstats;
    status
  end

(* --explain: show how the query will be evaluated before running it.
   For the approx engine it is the selected backend's plan over the
   storage the Semantic-mode hat runs on (Ph1 plus the NE and alpha$P
   hooks), from the function evaluation runs; for the exact/possible
   engines it is the reusable prepared plan, executed against every
   image structure. *)
let print_plan db q engine backend =
  (match engine with
  | Approximate -> (
    match (backend, Approx.plan ~backend db q) with
    | _, None -> Fmt.pr "plan: Tarskian evaluator (direct backend)@."
    | Approx.Algebra_optimized, Some plan ->
      Fmt.pr "plan: optimized relational algebra@.  %a@." Algebra.pp plan
    | _, Some plan ->
      Fmt.pr "plan: compiled relational algebra@.  %a@." Algebra.pp plan)
  | Exact | Possible -> (
    match Compile.prepared (Ph.ph1 db) q with
    | Some plan ->
      Fmt.pr "plan: optimized algebra, run per structure@.  %a@." Algebra.pp
        plan
    | None ->
      Fmt.pr "plan: outside the relational algebra — Tarskian evaluator@."));
  Fmt.pr "@."

let query_cmd =
  let run path query_text engine (_ : Certain.kernel) backend
      explain stats trace metrics timeout max_structures
      max_evaluations policy =
    let status = ref 0 in
    handle (fun () ->
        let budget =
          Budget.make ?timeout ?max_structures ?max_evaluations ()
        in
        with_observability ~trace ~metrics (fun () ->
        match load_any path with
        | Typed tdb ->
          if explain then begin
            Fmt.epr "error: --explain applies to untyped .ldb databases@.";
            exit 2
          end;
          if not (Budget.is_unlimited budget) then begin
            Fmt.epr
              "error: budget options (--timeout, --max-structures, \
               --max-evaluations) apply to untyped .ldb databases@.";
            exit 2
          end;
          status := run_typed_query tdb query_text engine
        | Untyped db ->
        let q = Parser.query query_text in
        if explain then begin
          Query_check.validate db q;
          print_plan db q engine backend
        end;
        if not (Budget.is_unlimited budget) then begin
          if engine <> Exact then begin
            Fmt.epr
              "error: budget options require --engine exact (the approx and \
               possible engines take no budget)@.";
            exit 2
          end;
          status := run_resilient db q ~policy ~stats ~budget
        end
        else begin
        if Query.is_boolean q then begin
          let verdict, counters =
            match engine with
            | Exact ->
              let v, s = Certain.certain_boolean_stats db q in
              (v, Some s)
            | Approximate -> (Approx.boolean ~backend db q, None)
            | Possible ->
              let v, s = Certain.possible_boolean_stats db q in
              (v, Some s)
          in
          Fmt.pr "%b@." verdict;
          status := boolean_status verdict;
          if stats then Option.iter print_stats counters
        end
        else begin
          let answer, counters =
            match engine with
            | Exact ->
              let r, s = Certain.answer_stats db q in
              (r, Some s)
            | Approximate -> (Approx.answer ~backend db q, None)
            | Possible ->
              let r, s = Certain.possible_answer_stats db q in
              (r, Some s)
          in
          print_relation answer;
          status := relation_status answer;
          if stats then Option.iter print_stats counters
        end;
        if engine = Approximate then
          match Approx.completeness db q with
          | Approx.Complete_fully_specified ->
            Fmt.pr "(exact: database fully specified — Theorem 12)@."
          | Approx.Complete_positive ->
            Fmt.pr "(exact: positive query — Theorem 13)@."
          | Approx.Sound_only ->
            Fmt.pr "(sound but possibly incomplete — Theorem 11)@."
        end));
    if !status <> 0 then exit !status
  in
  let doc =
    "Evaluate a query over a logical database, optionally under an \
     evaluation budget (--timeout / --max-structures / --max-evaluations) \
     with a degradation policy (--on-budget)."
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Cterm.(
      const run $ db_arg $ query_arg $ engine_arg $ kernel_arg $ backend_arg
      $ explain_arg $ stats_arg $ trace_arg $ metrics_arg $ timeout_arg
      $ max_structures_arg $ max_evaluations_arg $ policy_arg)

(* --- compile --- *)

let compile_cmd =
  let run path query_text =
    handle (fun () ->
        let db = load path in
        let q = Parser.query query_text in
        Query_check.validate db q;
        let hat_sem = Translate.query Translate.Semantic q in
        let hat_syn = Translate.query Translate.Syntactic q in
        Fmt.pr "Q           = %a@." Pretty.pp_query q;
        Fmt.pr "Q^ semantic = %a@." Pretty.pp_query hat_sem;
        Fmt.pr "Q^ syntactic formula size: %d (semantic: %d)@."
          (Formula.size (Query.body hat_syn))
          (Formula.size (Query.body hat_sem));
        let storage, _ = Approx.storage db in
        let plan = Compile.query storage hat_sem in
        let optimized = Optimizer.optimize storage plan in
        Fmt.pr "algebra plan (%d nodes):@.%a@." (Algebra.size plan) Algebra.pp
          plan;
        Fmt.pr "optimized plan (%d nodes):@.%a@." (Algebra.size optimized)
          Algebra.pp optimized)
  in
  let doc =
    "Show the Section 5 translation Q-hat and its relational-algebra plan."
  in
  Cmd.v (Cmd.info "compile" ~doc) Cterm.(const run $ db_arg $ query_arg)

(* --- worlds --- *)

let worlds_cmd =
  let limit_arg =
    let doc = "Print at most $(docv) worlds." in
    Arg.(value & opt int 20 & info [ "limit"; "n" ] ~docv:"N" ~doc)
  in
  let run path limit =
    handle (fun () ->
        let db = load path in
        Seq.iter
          (fun p -> Fmt.pr "%a@." Partition.pp p)
          (Seq.take limit (Partition.all_valid db));
        let total = Partition.count_valid_up_to 1_000_000 db in
        if total > limit then Fmt.pr "... (%d shapes in total)@." total)
  in
  let doc =
    "Enumerate the kernel partitions — the shapes of the database's possible \
     worlds (Theorem 1)."
  in
  Cmd.v (Cmd.info "worlds" ~doc) Cterm.(const run $ db_arg $ limit_arg)

(* --- explain --- *)

let explain_cmd =
  let run path query_text =
    handle (fun () ->
        let db = load path in
        let q = Parser.query query_text in
        if Query.is_boolean q then
          Fmt.pr "%a@." Explain.pp_verdict
            (Explain.boolean ~order:Partition.Merge_first db q)
        else begin
          (* Explain each constant tuple of the (small) candidate
             space. *)
          let constants = Cw_database.constants db in
          if Query.arity q <> 1 then
            Fmt.epr "explain handles Boolean and unary queries@."
          else
            List.iter
              (fun c ->
                Fmt.pr "%-12s %a@." c Explain.pp_verdict
                  (Explain.member ~order:Partition.Merge_first db q [ c ]))
              constants
        end)
  in
  let doc =
    "Explain certain-answer verdicts: print a possible-world shape \
     (constant merging) refuting each non-certain answer."
  in
  Cmd.v (Cmd.info "explain" ~doc) Cterm.(const run $ db_arg $ query_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let seed_arg =
    let doc = "Random seed; the same seed yields the identical instance stream." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let count_arg =
    let doc = "Number of differential instances to run." in
    Arg.(value & opt int 1000 & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let max_depth_arg =
    let doc = "Maximum connective nesting of generated query bodies." in
    Arg.(value & opt int 3 & info [ "max-depth" ] ~docv:"D" ~doc)
  in
  let unknown_density_arg =
    let doc =
      "Probability that a constant pair lacks a uniqueness axiom (0 = fully \
       specified databases, 1 = every identity open)."
    in
    Arg.(value & opt float 0.5 & info [ "unknown-density" ] ~docv:"P" ~doc)
  in
  let noise_arg =
    let doc =
      "Additionally feed $(docv) byte-level noise inputs to every parser \
       entry point, reporting undocumented exceptions."
    in
    Arg.(value & opt int 0 & info [ "noise" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Instead of generating instances, replay corpus case(s): $(docv) is a \
       .fuzz file or a directory of them."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH" ~doc)
  in
  let corpus_dir_arg =
    let doc = "Write each (shrunk) failing case as a .fuzz file under $(docv)." in
    Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report failures as generated, without minimization." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let no_typed_arg =
    let doc = "Skip the typed-lane instances." in
    Arg.(value & flag & info [ "no-typed" ] ~doc)
  in
  let faults_arg =
    let doc =
      "Arm seeded fault injection per instance (scan kills, raising \
       observability sinks) and run the resilience-safety oracle: no \
       injected exception may escape a degrading policy, and the \
       qualified-answer bounds must hold under fire."
    in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let run seed count max_depth unknown_density noise replay corpus_dir
      no_shrink no_typed faults trace metrics =
    handle (fun () ->
        with_observability ~trace ~metrics (fun () ->
            match replay with
            | Some path ->
              let cases =
                if Sys.is_directory path then Fuzz_corpus.load_dir path
                else [ (path, Fuzz_corpus.load path) ]
              in
              if cases = [] then begin
                Fmt.epr "no .fuzz cases under %s@." path;
                exit 2
              end;
              let violations = Fuzz.replay cases in
              if violations = [] then
                Fmt.pr "replayed %d case(s), no oracle violations@."
                  (List.length cases)
              else begin
                List.iter
                  (fun (label, v) ->
                    Fmt.pr "%s: %a@." label Fuzz_oracle.pp_violation v)
                  violations;
                exit 1
              end
            | None ->
              let config =
                {
                  Fuzz.seed;
                  count;
                  noise;
                  typed = not no_typed;
                  shrink = not no_shrink;
                  faults;
                  corpus_dir;
                  gen =
                    {
                      Fuzz_gen.default with
                      unknown_density;
                      profile =
                        {
                          Generate.default_profile with
                          depth = max_depth;
                        };
                    };
                  progress =
                    (if count >= 2000 then
                       Some
                         (fun i ->
                           if i > 0 && i mod 1000 = 0 then
                             Fmt.epr "... %d/%d@." i count)
                     else None);
                }
              in
              let outcome = Fuzz.run ~config () in
              Fmt.pr "%a@." Fuzz.pp_outcome outcome;
              if not (Fuzz.clean outcome) then exit 1))
  in
  let doc =
    "Differential fuzzing of the engines with theorem-level oracles: random \
     (LB, Q) instances run through the exact engine (both orderings, \
     against a brute-force reference), the Section 5 approximation (all \
     back ends), and the naive-tables baseline, checking Theorem 11 \
     soundness, Theorem 12/13 completeness, modal duality and parse/print \
     round-trips. Failures are greedily shrunk. Exit status 1 on any \
     violation."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Cterm.(
      const run $ seed_arg $ count_arg $ max_depth_arg $ unknown_density_arg
      $ noise_arg $ replay_arg $ corpus_dir_arg $ no_shrink_arg $ no_typed_arg
      $ faults_arg $ trace_arg $ metrics_arg)

(* --- repl --- *)

let repl_cmd =
  let run path =
    handle (fun () ->
        let db = ref (load path) in
        let engine = ref Exact in
        let engine_name () =
          match !engine with
          | Exact -> "exact"
          | Approximate -> "approx"
          | Possible -> "possible"
        in
        let help () =
          print_string
            "commands:\n\
            \  (x, y). FORMULA   evaluate a query (empty head = Boolean)\n\
            \  :engine exact|approx|possible\n\
            \  :info             database summary\n\
            \  :axioms           print the theory\n\
            \  :assert P(c, d)   add an atomic fact axiom\n\
            \  :distinct c d     add a uniqueness axiom\n\
            \  :help  :quit\n"
        in
        let evaluate line =
          let q = Parser.query line in
          if Query.is_boolean q then
            let verdict =
              match !engine with
              | Exact -> Certain.certain_boolean !db q
              | Approximate -> Approx.boolean !db q
              | Possible -> Certain.possible_boolean !db q
            in
            Fmt.pr "%b@." verdict
          else begin
            let answer =
              match !engine with
              | Exact -> Certain.answer !db q
              | Approximate -> Approx.answer !db q
              | Possible -> Certain.possible_answer !db q
            in
            Relation.iter
              (fun tuple -> Fmt.pr "%s@." (String.concat ", " tuple))
              answer;
            Fmt.pr "(%d tuples)@." (Relation.cardinal answer)
          end
        in
        let command line =
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ ":quit" ] | [ ":q" ] -> raise Exit
          | [ ":help" ] -> help ()
          | [ ":info" ] ->
            Fmt.pr "%a@." Cw_database.pp !db;
            Fmt.pr "fully specified: %b@." (Cw_database.is_fully_specified !db)
          | [ ":axioms" ] ->
            List.iter
              (fun f -> Fmt.pr "%a@." Pretty.pp_formula f)
              (Axioms.theory !db)
          | [ ":engine"; e ] -> (
            match e with
            | "exact" -> engine := Exact
            | "approx" -> engine := Approximate
            | "possible" -> engine := Possible
            | _ -> Fmt.pr "unknown engine %s@." e)
          | ":assert" :: rest ->
            let text = String.concat " " rest in
            (match Parser.formula text with
            | Formula.Atom (p, ts) when List.for_all Term.is_const ts ->
              let args =
                List.filter_map
                  (function Term.Const c -> Some c | Term.Var _ -> None)
                  ts
              in
              db := Cw_database.add_fact !db { Cw_database.pred = p; args };
              Fmt.pr "ok@."
            | _ -> Fmt.pr "only ground atoms can be asserted@.")
          | [ ":distinct"; c; d ] ->
            db := Cw_database.add_distinct !db c d;
            Fmt.pr "ok@."
          | _ -> Fmt.pr "unknown command (:help for help)@."
        in
        Fmt.pr "logical database REPL — engine %s; :help for commands@."
          (engine_name ());
        try
          while true do
            Fmt.pr "ldb> %!";
            let line = try input_line stdin with End_of_file -> raise Exit in
            let line = String.trim line in
            if String.equal line "" then ()
            else if line.[0] = ':' then
              try command line with
              | Invalid_argument msg -> Fmt.pr "error: %s@." msg
              | Parser.Parse_error (_, msg) | Lexer.Lex_error (_, msg) ->
                Fmt.pr "syntax error: %s@." msg
            else
              try evaluate line with
              | Invalid_argument msg -> Fmt.pr "error: %s@." msg
              | Parser.Parse_error (_, msg) | Lexer.Lex_error (_, msg) ->
                Fmt.pr "syntax error: %s@." msg
              | Eval.Eval_error msg -> Fmt.pr "evaluation error: %s@." msg
          done
        with Exit -> Fmt.pr "bye@.")
  in
  let doc = "Interactive query session over a logical database." in
  Cmd.v (Cmd.info "repl" ~doc) Cterm.(const run $ db_arg)

(* --- mutate --- *)

let mutate_cmd =
  let insert_arg =
    let doc = "Add the atomic fact axiom $(docv), e.g. \"P(a, b)\"; repeatable." in
    Arg.(value & opt_all string [] & info [ "insert"; "i" ] ~docv:"FACT" ~doc)
  in
  let retract_arg =
    let doc = "Remove the atomic fact axiom $(docv); repeatable. Retracting \
               an absent fact is an error." in
    Arg.(value & opt_all string [] & info [ "retract"; "r" ] ~docv:"FACT" ~doc)
  in
  let distinct_arg =
    let doc =
      "Close the unknown pair $(docv) to distinct (add the uniqueness axiom); \
       repeatable. Example: --distinct a,b"
    in
    Arg.(
      value
      & opt_all (pair ~sep:',' string string) []
      & info [ "distinct" ] ~docv:"C,D" ~doc)
  in
  let merge_arg =
    let doc =
      "Close the unknown pair $(docv) to equal: DROP merges into KEEP; \
       repeatable. Example: --merge a,b keeps a. Errors if the pair carries \
       a uniqueness axiom."
    in
    Arg.(
      value
      & opt_all (pair ~sep:',' string string) []
      & info [ "merge" ] ~docv:"KEEP,DROP" ~doc)
  in
  let output_arg =
    let doc = "Write the mutated database to $(docv) (default: in place)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"PATH" ~doc)
  in
  let parse_ground_fact text =
    match Parser.formula text with
    | Formula.Atom (p, ts) when List.for_all Term.is_const ts ->
      {
        Cw_database.pred = p;
        args =
          List.filter_map
            (function Term.Const c -> Some c | Term.Var _ -> None)
            ts;
      }
    | _ ->
      Fmt.epr "error: %S is not a ground atom (expected e.g. \"P(a, b)\")@."
        text;
      exit 2
  in
  let query_arg =
    let doc =
      "After applying the mutations, evaluate $(docv) (certain answer) \
       against the resident session and print the result — exercising the \
       same incremental prepare path a server would."
    in
    Arg.(
      value & opt (some string) None & info [ "query"; "q" ] ~docv:"QUERY" ~doc)
  in
  let run path inserts retracts distincts merges output query_text
      (_ : Certain.kernel) =
    handle (fun () ->
        let session = Incr_session.create (load path) in
        (* Group order is fixed (inserts, retracts, distinct, merge) —
           flags of different kinds do not interleave. *)
        List.iter
          (fun t -> Incr_session.insert session (parse_ground_fact t))
          inserts;
        List.iter
          (fun t -> Incr_session.retract session (parse_ground_fact t))
          retracts;
        List.iter
          (fun (c, d) -> Incr_session.close_unknown session c d ~to_:`Distinct)
          distincts;
        List.iter
          (fun (keep, drop) ->
            Incr_session.close_unknown session keep drop ~to_:`Equal)
          merges;
        let out = Option.value output ~default:path in
        if Filename.check_suffix out ".tldb" then begin
          Fmt.epr
            "error: mutate writes the untyped .ldb format (got %S)@." out;
          exit 2
        end;
        Ldb_format.save out (Incr_session.db session);
        Fmt.pr "%s: delta %d, %d facts@." out
          (Incr_session.delta_epoch session)
          (Cw_database.fact_count (Incr_session.db session));
        match query_text with
        | None -> ()
        | Some text ->
          let q = Parser.query text in
          let prepared = Incr_session.prepare session q in
          if Query.is_boolean q then
            let verdict, _ = Certain.prepared_certain_boolean_stats prepared in
            Fmt.pr "%b@." verdict
          else
            let answer, _ = Certain.prepared_answer_stats prepared in
            print_relation answer)
  in
  let doc =
    "Apply mutations to a database file: $(b,--insert)/$(b,--retract) atomic \
     fact axioms, $(b,--distinct) to close an unknown pair to distinct, \
     $(b,--merge) to close it to equal. The same operations are available \
     on a resident server via the insert/retract/close_unknown wire ops \
     (see docs/PROTOCOL.md); this one-shot form is their file-to-file \
     counterpart."
  in
  Cmd.v
    (Cmd.info "mutate" ~doc)
    Cterm.(
      const run $ db_arg $ insert_arg $ retract_arg $ distinct_arg $ merge_arg
      $ output_arg $ query_arg $ kernel_arg)

(* --- serve --- *)

let serve_cmd =
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(
      required
      & opt (some string) None
      & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains in the shared evaluation pool." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Waiting requests admitted before new ones are rejected with the \
       $(b,busy) code (admission control)."
    in
    Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let preload_arg =
    let doc =
      "Load $(docv) at startup and keep it resident; repeatable. Example: \
       --db g=graph.ldb"
    in
    Arg.(value & opt_all string [] & info [ "db" ] ~docv:"NAME=PATH" ~doc)
  in
  let debug_sleep_arg =
    let doc =
      "Accept the $(b,sleep) debug op (tests use it to hold workers busy and \
       observe backpressure deterministically)."
    in
    Arg.(value & flag & info [ "debug-sleep" ] ~doc)
  in
  let data_dir_arg =
    let doc =
      "Run durable: every loaded database gets a write-ahead log and \
       periodic snapshots in a subdirectory of $(docv), each acknowledged \
       mutation is logged before its ok response, and startup recovers \
       whatever the directory holds before accepting clients."
    in
    Arg.(
      value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  let sync_arg =
    let doc =
      "WAL fsync policy (with --data-dir): $(b,always) fsyncs before every \
       ack, $(b,batch) coalesces fsyncs in a background thread (bounded \
       delay), $(b,never) leaves it to the OS."
    in
    Arg.(value & opt string "always" & info [ "sync" ] ~docv:"MODE" ~doc)
  in
  let snapshot_every_arg =
    let doc =
      "Checkpoint (fresh snapshot, truncated log) every $(docv) logged \
       mutations; 0 disables auto-checkpointing (with --data-dir)."
    in
    Arg.(value & opt int 64 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let parse_preload spec =
    match String.index_opt spec '=' with
    | Some i when i > 0 && i < String.length spec - 1 ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | _ ->
      Fmt.epr "error: --db expects NAME=PATH, got %S@." spec;
      exit 2
  in
  let run socket workers queue preload debug_sleep data_dir sync
      snapshot_every trace metrics =
    handle (fun () ->
        let preload = List.map parse_preload preload in
        let sync =
          match Wal.sync_of_string sync with
          | Some s -> s
          | None ->
            Fmt.epr "error: --sync expects always|batch|never, got %S@." sync;
            exit 2
        in
        let durability =
          Option.map
            (fun data_dir -> { Serve.data_dir; sync; snapshot_every })
            data_dir
        in
        with_observability ~trace ~metrics (fun () ->
            Serve.run
              {
                Serve.socket_path = socket;
                workers;
                queue_capacity = queue;
                debug_sleep;
                preload;
                durability;
              };
            Fmt.pr "serve: clean shutdown@."))
  in
  let doc =
    "Run a resident query server on a Unix-domain socket: line-delimited \
     JSON requests (op: load/query/boolean/insert/retract/close_unknown/\
     stats/close/shutdown). Each loaded database is an incremental session: \
     mutations invalidate only what they touch, so a query after a small \
     delta reuses the cached quotient structures and per-structure results. \
     In-flight queries multiplex over a fixed pool of worker domains with a \
     bounded queue (full queue => $(b,busy)); per-request budgets \
     (timeout_ms, max_structures, max_evaluations) map budget exhaustion to \
     the $(b,exhausted) code. With $(b,--data-dir) the server is durable: \
     acknowledged mutations survive kill -9 via a per-database write-ahead \
     log with snapshot compaction, replayed on the next startup. SIGTERM \
     drains gracefully (queued requests answered, stores checkpointed, \
     exit 0). The full wire protocol is specified in docs/PROTOCOL.md."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Cterm.(
      const run $ socket_arg $ workers_arg $ queue_arg $ preload_arg
      $ debug_sleep_arg $ data_dir_arg $ sync_arg $ snapshot_every_arg
      $ trace_arg $ metrics_arg)

(* --- recover --- *)

let recover_cmd =
  let dir_arg =
    let doc = "Data directory ($(b,ldb serve --data-dir)'s)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let db_name_arg =
    let doc = "Recover only the named database (default: all found)." in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"NAME" ~doc)
  in
  let verify_arg =
    let doc =
      "Read-only: run the full recovery checks without truncating torn \
       tails or compacting."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run dir db_name verify =
    handle (fun () ->
        let names =
          match db_name with
          | Some n -> [ n ]
          | None -> Recovery.list ~data_dir:dir
        in
        if names = [] then begin
          Fmt.epr "error: no database directories under %s@." dir;
          exit 2
        end;
        List.iter
          (fun name ->
            let db_dir = Recovery.db_dir ~data_dir:dir ~name in
            let report =
              if verify then Recovery.verify db_dir
              else Recovery.recover db_dir
            in
            (* Compaction: fold the replayed tail into a fresh snapshot
               so the next serve startup is replay-free. *)
            if (not verify) && report.Recovery.r_replayed > 0 then begin
              let store, _ = Durable_store.open_ ~dir:db_dir () in
              Durable_store.checkpoint store;
              Durable_store.close store
            end;
            Fmt.pr
              "%s: %s seq %d (snapshot %d, replayed %d, skipped %d%s)@."
              name
              (if verify then "ok at" else "recovered to")
              report.Recovery.r_seq report.Recovery.r_snapshot_seq
              report.Recovery.r_replayed report.Recovery.r_skipped
              (if report.Recovery.r_torn_bytes > 0 then
                 Printf.sprintf ", torn tail %d bytes"
                   report.Recovery.r_torn_bytes
               else ""))
          names)
  in
  let doc =
    "Recover (or, with $(b,--verify), just check) the databases in a serve \
     data directory: load each snapshot, validate the write-ahead log, \
     truncate any torn tail, replay the acknowledged records, and compact \
     into a fresh snapshot. Exits 2 with a clear message on unrecoverable \
     mid-log corruption — acknowledged history is never silently dropped."
  in
  Cmd.v (Cmd.info "recover" ~doc) Cterm.(const run $ dir_arg $ db_name_arg $ verify_arg)

let main =
  let doc = "query closed-world logical databases (Vardi, PODS 1985)" in
  Cmd.group
    (Cmd.info "ldb" ~version:"1.0.0" ~doc)
    [
      info_cmd;
      axioms_cmd;
      query_cmd;
      compile_cmd;
      worlds_cmd;
      explain_cmd;
      fuzz_cmd;
      repl_cmd;
      mutate_cmd;
      serve_cmd;
      recover_cmd;
    ]

(* Evaluate without cmdliner's exception catcher so the exit-code
   taxonomy stays ours: cmdliner's default "internal error" code is
   124, which would collide with budget exhaustion. Ctrl-C raises
   Sys.Break (catch_break), which flushes any installed sink before
   exiting 130; other escaped exceptions exit 125. *)
let () =
  Sys.catch_break true;
  match Cmd.eval_value ~catch:false main with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term | `Exn) -> exit 2
  | exception Sys.Break ->
    Obs.uninstall ();
    Fmt.epr "interrupted@.";
    exit 130
  | exception e ->
    Obs.uninstall ();
    Fmt.epr "fatal: %s@." (Printexc.to_string e);
    exit 125
