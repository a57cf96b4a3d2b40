module Query = Vardi_logic.Query
module Relation = Vardi_relational.Relation
module Compile = Vardi_relational.Compile
module Cw_database = Vardi_cwdb.Cw_database
module Ph = Vardi_cwdb.Ph
module Obs = Vardi_obs.Obs
module Symtab = Vardi_interned.Symtab
module Irel = Vardi_interned.Irel
module Iplan = Vardi_interned.Iplan
module Iscan = Vardi_interned.Iscan
module Icode = Vardi_interned.Icode

type algorithm = Kernel_partitions

type kernel =
  | Strings
  | Interned
  | Compiled

type order = Vardi_cwdb.Partition.order =
  | Fresh_first
  | Merge_first

type stats = {
  structures : int;
  evaluations : int;
  early_exit : bool;
  pruned_candidates : int;
  wall_ns : int64;
  interrupted : Cancel.reason option;
}

let validate = Vardi_cwdb.Query_check.validate
let validate_tuple = Vardi_cwdb.Query_check.validate_tuple

(* The process-monotonic clock Obs maintains (gettimeofday clamped to
   be non-decreasing), so [wall_ns] intervals can never go negative
   under clock adjustment. *)
let now_ns = Obs.now_ns

(* A pluggable structure stream. The engine's scans only need three
   things from a plan: its symtab, its structure stream per order, and
   its discrete seed — so they are bundled here, letting an incremental
   session substitute cached structures for stream positions (see
   Vardi_incr.Session) while the engine's scan loop, budget and stats
   machinery stays oblivious. The positional contract carries over:
   [source_thunks _ ord] must enumerate the same renaming at every
   position as the fresh plan's stream would.

   The stream is handed out as construction thunks: forcing the
   sequence runs only the enumeration step (the next partition), and
   the quotient construction — the expensive part — waits in the thunk
   until the scan consumes the structure. That is what lets a
   positional budget cap force the stream one step past the cap, to
   learn whether work remained, without building a quotient (see
   [admit_within]), and lets a session substitute cached structures for
   stream positions (see Iscan). A session's thunk goes further and
   defers the quotient itself ([Iscan.structure.idb]), so the scans
   below force it only where they evaluate, and a memo hit never
   does. *)
type scan_source = {
  source_plan : Iscan.plan;
  source_thunks : algorithm -> order -> (unit -> Iscan.structure) Seq.t;
  source_discrete : unit -> Iscan.structure;
}

let source_of_plan plan =
  {
    source_plan = plan;
    source_thunks =
      (fun Kernel_partitions order -> Iscan.structure_thunks ~order plan);
    source_discrete = (fun () -> Iscan.discrete plan);
  }

let thunks source order = source.source_thunks Kernel_partitions order

let rename_row (rename : int array) (row : int array) =
  Array.map (fun c -> Array.unsafe_get rename c) row

(* With [Fresh_first] the discrete partition is the stream's first
   element; entry points that evaluate it separately as a pruning seed
   drop it from the stream instead of paying for it twice. [Merge_first]
   revisits it at the end of the stream, which is sound (its filter is
   a no-op) and costs one extra evaluation. *)
let rest_after_discrete order thunks =
  match order with
  | Fresh_first -> Seq.drop 1 thunks
  | Merge_first -> thunks

(* --- budget cooperation ------------------------------------------- *)

(* The structure/evaluation caps of a cancellation token truncate the
   structure stream *by position*: the scan admits exactly the first
   [cap] structures of the enumeration order, and the token trips only
   when the enumeration would have continued past the cap. Cap trips
   therefore never halt the admitted prefix — that is what makes the
   capped verdict and the [structures] stat deterministic (see
   Cancel). [spent] is the work already charged to the budget before
   the scan starts (the discrete-structure seed of the whole-answer
   entry points). *)
let admit_within cancel ~structures ~evaluations thunks =
  match cancel with
  | None -> thunks
  | Some token -> (
    match Cancel.scan_cap token ~structures ~evaluations with
    | None -> thunks
    | Some (cap, reason) ->
      let rec admit n seq () =
        if n <= 0 then (
          match seq () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons _ ->
            (* Work remained beyond the cap: the budget genuinely
               binds. The enumeration step just forced is cheap — the
               expensive quotient lives in the unforced thunk. *)
            Cancel.trip token reason;
            Seq.Nil)
        else
          match seq () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons (x, rest) -> Seq.Cons (x, admit (n - 1) rest)
      in
      admit cap thunks)

(* Deadline cooperation: checked before every structure, so the scan
   stops within one structure evaluation of the deadline passing. Also
   the fault-injection hook — Cancel.check runs the token's probe. *)
let deadline_passed = function
  | None -> false
  | Some token -> Cancel.check token

(* A trip is reported only when the scan was not decided: a decision
   (countermodel, witness, emptied survivor set) reached inside the
   admitted prefix is exact, whatever the token says. *)
let interruption cancel ~decided =
  match cancel with
  | Some token when not decided -> Cancel.tripped token
  | Some _ | None -> None

(* --- the scan ------------------------------------------------------ *)

(* Feed [consume] every structure of [thunks], in stream order, until
   [stop] reports the computation decided or the deadline passes — both
   checked before each structure. Returns the number of structures
   examined. The whole loop is one [certain.scan] span, and its
   structure and evaluation counters are emitted once, when the loop
   ends. *)
let drive ~cancel ~stop consume thunks =
  Obs.span "certain.scan" (fun () ->
      let rec loop examined seq =
        if stop () || deadline_passed cancel then examined
        else
          match seq () with
          | Seq.Nil -> examined
          | Seq.Cons (thunk, rest) ->
            consume (thunk ());
            loop (examined + 1) rest
      in
      let examined = loop 0 thunks in
      if examined > 0 then begin
        Obs.count "certain.structures" examined;
        Obs.count "certain.evaluations" examined
      end;
      examined)

(* Quantification over structures: search for one whose [check] equals
   [target] ([target = false] refutes a universal, [target = true]
   witnesses an existential), stopping at the first. *)
let search ~cancel ~target thunks check =
  let started = now_ns () in
  let found = ref false in
  let examined =
    drive ~cancel
      ~stop:(fun () -> !found)
      (fun s -> if Bool.equal (check s) target then found := true)
      (admit_within cancel ~structures:0 ~evaluations:0 thunks)
  in
  let found = !found in
  Obs.count "certain.early_exit" (if found then 1 else 0);
  ( found,
    {
      structures = examined;
      evaluations = examined;
      early_exit = found;
      pruned_candidates = 0;
      wall_ns = Int64.sub (now_ns ()) started;
      interrupted = interruption cancel ~decided:found;
    } )

(* --- decision entry points ---------------------------------------- *)

(* Per-tuple and Boolean deciders: quantify a compiled check over the
   structure stream. [decide_boolean] takes its stream from [source] so
   a prepared query (see the plan-cache API below) reuses the interned
   database — or an incremental session's cached stream — instead of
   re-interning it on every call. [?wrap_check] wraps the per-structure
   check (a session's per-query memo); the wrapper sees the same
   structures at the same positions, so stats and positional caps are
   unchanged whether or not it hits. *)
let decide_member ~target ~order ~cancel lb q tuple =
  let plan = Iscan.prepare lb in
  let tab = Iscan.symtab plan in
  let codes = Symtab.code_tuple tab tuple in
  let cm = Icode.compile_member tab q in
  search ~cancel ~target
    (Iscan.structure_thunks ~order plan)
    (fun (s : Iscan.structure) ->
      Icode.run_member (Lazy.force s.idb) cm (rename_row s.rename codes))

let decide_boolean ~target ~order ~cancel ?wrap_check source body =
  let cs = Icode.compile_sentence (Iscan.symtab source.source_plan) body in
  let check (s : Iscan.structure) = Icode.run_sentence (Lazy.force s.idb) cs in
  let check = match wrap_check with Some w -> w check | None -> check in
  search ~cancel ~target (thunks source order) check

let certain_member_stats ?(order = Fresh_first) ?cancel lb q tuple =
  validate lb q;
  validate_tuple lb q tuple;
  if Query.is_boolean q then
    invalid_arg "Certain.certain_member: Boolean query; use certain_boolean";
  Obs.span "certain.member" (fun () ->
      let refuted, stats =
        decide_member ~target:false ~order ~cancel lb q tuple
      in
      (not refuted, stats))

let certain_member ?order ?cancel lb q tuple =
  fst (certain_member_stats ?order ?cancel lb q tuple)

let certain_boolean_stats ?(order = Fresh_first) ?cancel lb q =
  validate lb q;
  if not (Query.is_boolean q) then
    invalid_arg "Certain.certain_boolean: the query has answer variables";
  let body = Query.body q in
  Obs.span "certain.boolean" (fun () ->
      let refuted, stats =
        decide_boolean ~target:false ~order ~cancel
          (source_of_plan (Iscan.prepare lb))
          body
      in
      (not refuted, stats))

let certain_boolean ?order ?cancel lb q =
  fst (certain_boolean_stats ?order ?cancel lb q)

let possible_member_stats ?(order = Fresh_first) ?cancel lb q tuple =
  validate lb q;
  validate_tuple lb q tuple;
  if Query.is_boolean q then
    invalid_arg "Certain.possible_member: Boolean query; use possible_boolean";
  Obs.span "certain.possible_member" (fun () ->
      decide_member ~target:true ~order ~cancel lb q tuple)

let possible_member ?order ?cancel lb q tuple =
  fst (possible_member_stats ?order ?cancel lb q tuple)

let possible_boolean_stats ?(order = Fresh_first) ?cancel lb q =
  validate lb q;
  if not (Query.is_boolean q) then
    invalid_arg "Certain.possible_boolean: the query has answer variables";
  let body = Query.body q in
  Obs.span "certain.possible_boolean" (fun () ->
      decide_boolean ~target:true ~order ~cancel
        (source_of_plan (Iscan.prepare lb))
        body)

let possible_boolean ?order ?cancel lb q =
  fst (possible_boolean_stats ?order ?cancel lb q)

(* --- whole-answer entry points ------------------------------------ *)

(* Per-query work hoisted out of the per-structure loop: one NNF pass,
   one compilation to relational algebra, one optimizer pass, one
   interning against the scan's symtab and one compilation to packed
   flat code (Icode), so per-structure evaluation touches no strings
   and walks no AST. Plans Icode cannot pack (hash-join nodes, radix
   overflow) run on the Iplan interpreter, and queries outside the
   algebra (second-order quantifiers) on Icode's direct enumerator;
   both are counted as [certain.interp_fallback], the one place the
   engine quietly runs slower. *)
let prepare_answer lb tab q =
  match
    Option.bind (Compile.prepared (Ph.ph1 lb) q) (Iplan.of_algebra tab)
  with
  | Some iplan ->
    let prog = Icode.compile_plan tab iplan in
    if Option.is_none (Icode.instrs prog) then
      Obs.count "certain.interp_fallback" 1;
    fun (s : Iscan.structure) -> Icode.exec (Lazy.force s.idb) prog
  | None ->
    Obs.count "certain.interp_fallback" 1;
    let ca = Icode.compile_answer tab q in
    fun s -> Icode.Rows (Icode.run_answer (Lazy.force s.Iscan.idb) ca)

(* [|C|^k], saturating at [max_int] — only used for the
   pruned-candidates counter, never for enumeration. *)
let candidate_count lb k =
  let n = List.length (Cw_database.constants lb) in
  let rec go acc i =
    if i = 0 then acc
    else if n <> 0 && acc > max_int / n then max_int
    else go (acc * n) (i - 1)
  in
  go 1 k

(* The discrete structure's answer, unpacked once: its renaming is the
   identity, so its rows are already candidate tuples over constant
   codes. Packed keys are in radix [Symtab.size] at the query's
   arity. *)
let seed_of ~radix q source image_answer =
  Obs.span "certain.seed" (fun () ->
      let seed =
        Icode.rows ~radix ~arity:(Query.arity q)
          (image_answer (source.source_discrete ()))
      in
      Obs.count "certain.structures" 1;
      Obs.count "certain.evaluations" 1;
      seed)

(* [prep] yields the structure source and the per-structure answer
   function — built fresh for a direct call, taken from a prepared
   query otherwise — inside the [certain.prepare] span. *)
let answer_scan ~order ~cancel ~prep lb q =
  let started = now_ns () in
  let source, image_answer = Obs.span "certain.prepare" prep in
  (* Pruning: the certain answer is contained in the answer over every
     structure, in particular the discrete one (Ph₁ under the identity
     renaming — always a valid structure). Seeding the survivor set
     from it replaces the full |C|^k candidate relation. *)
  let radix = Symtab.size (Iscan.symtab source.source_plan) in
  let seed = seed_of ~radix q source image_answer in
  let pruned = candidate_count lb (Query.arity q) - Irel.cardinal seed in
  Obs.count "certain.pruned" pruned;
  let survivors = ref seed in
  let consume (s : Iscan.structure) =
    let ia = image_answer s in
    survivors :=
      Irel.filter
        (fun row -> Icode.mem ~radix ia ~rename:s.rename row)
        !survivors
  in
  let examined =
    drive ~cancel
      ~stop:(fun () -> Irel.is_empty !survivors)
      consume
      (admit_within cancel ~structures:1 ~evaluations:1
         (rest_after_discrete order (thunks source order)))
  in
  let result = !survivors in
  let early = Irel.is_empty result in
  Obs.count "certain.early_exit" (if early then 1 else 0);
  ( Irel.to_relation (Iscan.symtab source.source_plan) result,
    {
      structures = examined + 1;
      evaluations = examined + 1;
      early_exit = early;
      pruned_candidates = pruned;
      wall_ns = Int64.sub (now_ns ()) started;
      interrupted = interruption cancel ~decided:early;
    } )

let fresh_prep lb q () =
  let plan = Iscan.prepare lb in
  (source_of_plan plan, prepare_answer lb (Iscan.symtab plan) q)

let answer_stats ?(order = Fresh_first) ?cancel lb q =
  validate lb q;
  Obs.span "certain.answer" (fun () ->
      answer_scan ~order ~cancel ~prep:(fresh_prep lb q) lb q)

let answer ?order ?cancel lb q =
  fst (answer_stats ?order ?cancel lb q)

let possible_scan ~order ~cancel lb q =
  let started = now_ns () in
  let source, image_answer = Obs.span "certain.prepare" (fresh_prep lb q) in
  let tab = Iscan.symtab source.source_plan in
  (* The candidate relation is built once (not per structure), under
     [Irel.full]'s enumeration cap; the discrete structure's answer is
     witnessed already, so the scan starts from the candidates it
     leaves unwitnessed and strikes each one the first structure
     admits. *)
  let all_candidates =
    Irel.full ~domain:(Array.init (Symtab.size tab) Fun.id) (Query.arity q)
  in
  let radix = Symtab.size tab in
  let seed = seed_of ~radix q source image_answer in
  Obs.count "certain.pruned" (Irel.cardinal seed);
  let unwitnessed = ref (Irel.diff all_candidates seed) in
  let consume (s : Iscan.structure) =
    let ia = image_answer s in
    unwitnessed :=
      Irel.filter
        (fun row -> not (Icode.mem ~radix ia ~rename:s.rename row))
        !unwitnessed
  in
  let examined =
    drive ~cancel
      ~stop:(fun () -> Irel.is_empty !unwitnessed)
      consume
      (admit_within cancel ~structures:1 ~evaluations:1
         (rest_after_discrete order (thunks source order)))
  in
  let early = Irel.is_empty !unwitnessed in
  Obs.count "certain.early_exit" (if early then 1 else 0);
  ( Irel.to_relation tab (Irel.diff all_candidates !unwitnessed),
    {
      structures = examined + 1;
      evaluations = examined + 1;
      early_exit = early;
      pruned_candidates = Irel.cardinal seed;
      wall_ns = Int64.sub (now_ns ()) started;
      interrupted = interruption cancel ~decided:early;
    } )

let possible_answer_stats ?(order = Fresh_first) ?cancel lb q =
  validate lb q;
  Obs.span "certain.possible_answer" (fun () ->
      possible_scan ~order ~cancel lb q)

let possible_answer ?order ?cancel lb q =
  fst (possible_answer_stats ?order ?cancel lb q)

(* --- prepared queries (the plan-cache contract) -------------------- *)

(* A [prepared] bundles everything per-(database, query) that the entry
   points above rebuild on every call: the structure source (the
   interned database — symtab, coded facts, per-depth buckets — or a
   session's cached stream) and, for relational queries, the compiled
   image-answer function. All pieces are immutable after preparation,
   so one prepared query can serve any number of concurrent scans — the
   serve layer's plan cache counts on it. Boolean queries skip the
   compile (the deciders evaluate the body directly);
   [prepared_answer_stats] on a Boolean-headed query compiles on the
   fly, exactly like the unprepared path. *)
type prepared = {
  p_lb : Cw_database.t;
  p_query : Query.t;
  p_source : scan_source;
  p_answer : (Iscan.structure -> Icode.answer) option;
  p_check : ((Iscan.structure -> bool) -> Iscan.structure -> bool) option;
}

let prepare_from ~source ?wrap_answer ?wrap_check lb q =
  validate lb q;
  Obs.span "certain.prepare" (fun () ->
      let source = source () in
      let p_answer =
        if Query.is_boolean q then None
        else
          let base = prepare_answer lb (Iscan.symtab source.source_plan) q in
          Some (match wrap_answer with Some w -> w base | None -> base)
      in
      { p_lb = lb; p_query = q; p_source = source; p_answer; p_check = wrap_check })

let prepare lb q =
  prepare_from ~source:(fun () -> source_of_plan (Iscan.prepare lb)) lb q

let prepare_with ~source ?wrap_answer ?wrap_check lb q =
  prepare_from ~source:(fun () -> source) ?wrap_answer ?wrap_check lb q

let prepared_db p = p.p_lb
let prepared_query p = p.p_query

let prepared_prep p () =
  ( p.p_source,
    match p.p_answer with
    | Some f -> f
    | None ->
      prepare_answer p.p_lb (Iscan.symtab p.p_source.source_plan) p.p_query )

let prepared_answer_stats ?(order = Fresh_first) ?cancel p =
  Obs.span "certain.answer" (fun () ->
      answer_scan ~order ~cancel ~prep:(prepared_prep p) p.p_lb p.p_query)

let prepared_certain_boolean_stats ?(order = Fresh_first) ?cancel p =
  if not (Query.is_boolean p.p_query) then
    invalid_arg
      "Certain.prepared_certain_boolean: the query has answer variables";
  let body = Query.body p.p_query in
  Obs.span "certain.boolean" (fun () ->
      let refuted, stats =
        decide_boolean ~target:false ~order ~cancel ?wrap_check:p.p_check
          p.p_source body
      in
      (not refuted, stats))
