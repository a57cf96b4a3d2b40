module Certain = Vardi_certain.Engine
module Cancel = Vardi_certain.Cancel
module Approximation = Vardi_approx.Evaluate
module Query = Vardi_logic.Query
module Obs = Vardi_obs.Obs

type policy =
  | Fail
  | Partial
  | Approx

type 'a qualified =
  | Exact of 'a
  | Lower_bound of 'a
  | Upper_bound of 'a
  | Exhausted

type source =
  | Exact_scan
  | Partial_scan
  | Approx_fallback
  | No_answer

type stats = {
  source : source;
  tripped : Cancel.reason option;
  scan_failure : string option;
  scan : Certain.stats option;
  wall_ns : int64;
}

(* The common shape of answer/boolean: run the exact scan under the
   armed budget, then qualify. [scan] runs the engine; [fallback]
   computes the Theorem-11 approximation (the sound Lower_bound).
   Exceptions from the scan are degradation events, never crashes —
   except under Fail, whose contract is to propagate. Input validation
   runs before anything else so Invalid_argument is never swallowed. *)
let evaluate ~span ~policy ~budget ~scan ~fallback =
  Obs.span span (fun () ->
      let started = Obs.now_ns () in
      let finish source tripped scan_failure scan_stats result =
        ( result,
          {
            source;
            tripped;
            scan_failure;
            scan = scan_stats;
            wall_ns = Int64.sub (Obs.now_ns ()) started;
          } )
      in
      let approx_fallback ~tripped ~scan_failure ~scan_stats =
        Obs.count "resilience.fallback" 1;
        finish Approx_fallback tripped scan_failure scan_stats
          (Lower_bound (fallback ()))
      in
      let token = Budget.start ~probe:Faults.probe budget in
      match scan token with
      | result, (scan_stats : Certain.stats) -> (
        match scan_stats.Certain.interrupted with
        | None -> finish Exact_scan None None (Some scan_stats) (Exact result)
        | Some reason -> (
          Obs.count "resilience.budget_trip" 1;
          match policy with
          | Fail ->
            finish No_answer (Some reason) None (Some scan_stats) Exhausted
          | Partial ->
            finish Partial_scan (Some reason) None (Some scan_stats)
              (Upper_bound result)
          | Approx ->
            approx_fallback ~tripped:(Some reason) ~scan_failure:None
              ~scan_stats:(Some scan_stats)))
      | exception Sys.Break ->
        (* an async interrupt is not a degradation event *)
        raise Sys.Break
      | exception e ->
        Obs.count "resilience.scan_failure" 1;
        (match policy with
        | Fail -> raise e
        | Partial | Approx ->
          approx_fallback ~tripped:None
            ~scan_failure:(Some (Printexc.to_string e)) ~scan_stats:None))

let answer_stats ?(policy = Fail) ?order ?(budget = Budget.unlimited) lb q =
  Vardi_cwdb.Query_check.validate lb q;
  evaluate ~span:"resilience.answer" ~policy ~budget
    ~scan:(fun cancel -> Certain.answer_stats ?order ~cancel lb q)
    ~fallback:(fun () -> Approximation.answer lb q)

let answer ?policy ?order ?budget lb q =
  fst (answer_stats ?policy ?order ?budget lb q)

let boolean_stats ?(policy = Fail) ?order ?(budget = Budget.unlimited) lb q =
  Vardi_cwdb.Query_check.validate lb q;
  if not (Query.is_boolean q) then
    invalid_arg "Resilient.boolean: the query has answer variables";
  evaluate ~span:"resilience.boolean" ~policy ~budget
    ~scan:(fun cancel ->
      Certain.certain_boolean_stats ?order ~cancel lb q)
    ~fallback:(fun () -> Approximation.boolean lb q)

let boolean ?policy ?order ?budget lb q =
  fst (boolean_stats ?policy ?order ?budget lb q)

(* Prepared variants: same contract, but the per-query compilation was
   paid at [Certain.prepare] time — these are what the serve layer's
   plan cache evaluates. Validation already ran inside [prepare]; the
   approximation fallback recompiles from the stored (db, query), which
   is acceptable because it only runs on degradation paths. [?domains]
   is deprecated and ignored: the scan is sequential. *)

let prepared_answer_stats ?(policy = Fail) ?order
    ?domains:_ ?(budget = Budget.unlimited) p =
  evaluate ~span:"resilience.answer" ~policy ~budget
    ~scan:(fun cancel ->
      Certain.prepared_answer_stats ?order ~cancel p)
    ~fallback:(fun () ->
      Approximation.answer (Certain.prepared_db p) (Certain.prepared_query p))

let prepared_boolean_stats ?(policy = Fail) ?order
    ?domains:_ ?(budget = Budget.unlimited) p =
  if not (Query.is_boolean (Certain.prepared_query p)) then
    invalid_arg "Resilient.prepared_boolean: the query has answer variables";
  evaluate ~span:"resilience.boolean" ~policy ~budget
    ~scan:(fun cancel ->
      Certain.prepared_certain_boolean_stats ?order ~cancel p)
    ~fallback:(fun () ->
      Approximation.boolean (Certain.prepared_db p) (Certain.prepared_query p))

let pp_qualified pp_value ppf = function
  | Exact v -> Format.fprintf ppf "exact %a" pp_value v
  | Lower_bound v -> Format.fprintf ppf "lower bound %a" pp_value v
  | Upper_bound v -> Format.fprintf ppf "upper bound %a" pp_value v
  | Exhausted -> Format.pp_print_string ppf "exhausted"

let source_to_string = function
  | Exact_scan -> "exact scan"
  | Partial_scan -> "partial scan"
  | Approx_fallback -> "Theorem-11 approximation"
  | No_answer -> "no answer"

let pp_stats ppf s =
  Format.fprintf ppf "source: %s" (source_to_string s.source);
  (match s.tripped with
  | Some r -> Format.fprintf ppf "  budget tripped: %a" Cancel.pp_reason r
  | None -> ());
  (match s.scan_failure with
  | Some msg -> Format.fprintf ppf "  scan failure: %s" msg
  | None -> ());
  (match s.scan with
  | Some scan ->
    Format.fprintf ppf "  structures visited: %d" scan.Certain.structures
  | None -> ());
  Format.fprintf ppf "  wall: %.1f ms" (Int64.to_float s.wall_ns /. 1e6)
