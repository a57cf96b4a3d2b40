(* The benchmark harness.

   Part 1 re-runs every experiment (E1-E12 and the A1-A4 ablations —
   the full Experiments.Registry.all) and prints its result table — one
   table per theorem of the paper's evaluation; EXPERIMENTS.md records
   a reference run.

   Part 2 runs Bechamel micro-benchmarks, one Test.make per experiment,
   timing the representative operation behind each table with OLS
   regression over the monotonic clock.

   Part 3 prints a per-phase breakdown of the E1-medium workload
   through the Vardi_obs span layer, next to the Bechamel numbers.

   Run with: dune exec bench/main.exe
   (pass --tables-only or --micro-only to restrict;
    --json FILE additionally writes the micro-benchmark estimates as
    JSON — BENCH_<pr>.json files are reference snapshots of it;
    --e1-sanity is the CI smoke gate: one E1-medium run, checked
    against the brute-force reference before it is timed) *)

open Bechamel
open Toolkit
module Experiments = Vardi_experiments
module Workloads = Vardi_experiments.Workloads

let print_tables () =
  Fmt.pr "============================================================@.";
  Fmt.pr " Experiment report: Vardi, Querying Logical Databases (1985)@.";
  Fmt.pr "============================================================@.";
  List.iter
    (fun (_, _, run) -> Fmt.pr "%a@." Experiments.Table.pp (run ()))
    Experiments.Registry.all

(* --- Bechamel micro-benchmarks, one per experiment --- *)

let stage = Staged.stage

let micro_tests () =
  let module Certain = Vardi_certain.Engine in
  let module Approx = Vardi_approx.Evaluate in
  let module Precise = Vardi_approx.Precise_simulation in
  let module Alpha = Vardi_approx.Alpha in
  let module Ne_virtual = Vardi_cwdb.Ne_virtual in
  let module Graph = Vardi_reductions.Graph in
  let module Qbf = Vardi_reductions.Qbf in
  let module Three_col = Vardi_reductions.Three_col in
  let module Qbf_fo = Vardi_reductions.Qbf_fo in
  let module Qbf_so = Vardi_reductions.Qbf_so in
  let db_small = Workloads.parametric_db ~constants:5 ~unknowns:3 ~seed:42 in
  let db_medium = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let db_tiny = Workloads.parametric_db ~constants:2 ~unknowns:2 ~seed:11 in
  let graph = Graph.random ~vertices:5 ~edge_probability:0.5 ~seed:1 in
  let qbf_fo = Qbf.random_cnf3 ~blocks:[ 2; 2 ] ~clauses:3 ~seed:5 in
  let qbf_so = Qbf.random_cnf3 ~blocks:[ 1; 1 ] ~clauses:2 ~seed:3 in
  let q = Workloads.mixed_query in
  [
    Test.make ~name:"e1/exact-vs-unknowns"
      (stage (fun () -> Certain.answer db_small q));
    Test.make ~name:"e1/exact-medium"
      (stage (fun () -> Certain.answer db_medium q));
    Test.make ~name:"e2/precise-simulation"
      (stage (fun () -> Precise.answer db_tiny Workloads.positive_query));
    Test.make ~name:"e3/three-colorability"
      (stage (fun () -> Three_col.colorable_via_certain graph));
    Test.make ~name:"e4/qbf-fo"
      (stage (fun () -> Qbf_fo.eval_via_certain qbf_fo));
    Test.make ~name:"e5/qbf-so"
      (stage (fun () -> Qbf_so.eval_via_certain qbf_so));
    Test.make ~name:"e6/approx-quality"
      (stage (fun () -> Approx.answer db_small q));
    Test.make ~name:"e7/approx-scaling"
      (stage (fun () -> Approx.answer db_medium q));
    Test.make ~name:"e8/alpha-size"
      (stage (fun () -> Alpha.formula ~pred:"P" ~arity:8));
    Test.make ~name:"e9/virtual-ne"
      (stage (fun () -> Ne_virtual.make db_medium));
    Test.make ~name:"e10/expression-ratio"
      (stage (fun () ->
           Certain.certain_boolean db_small Workloads.negative_sentence));
    Test.make ~name:"e11/naive-tables"
      (stage (fun () -> Vardi_approx.Naive_tables.answer db_medium q));
    Test.make ~name:"e12/sampling"
      (stage (fun () ->
           Vardi_certain.Sampling.boolean ~samples:8 ~seed:1 db_small
             Workloads.negative_sentence));
    Test.make ~name:"abl/algebra-backend"
      (stage (fun () -> Approx.answer ~backend:Approx.Algebra db_medium q));
    Test.make ~name:"abl/optimized-backend"
      (stage (fun () ->
           Approx.answer ~backend:Approx.Algebra_optimized db_medium q));
    Test.make ~name:"abl/syntactic-alpha"
      (stage (fun () ->
           Approx.answer ~mode:Vardi_approx.Translate.Syntactic db_medium q));
    Test.make ~name:"abl/merge-first"
      (stage (fun () ->
           Certain.certain_boolean ~order:Certain.Merge_first db_small
             Workloads.negative_sentence));
    Test.make ~name:"extra/reiter"
      (stage (fun () -> Vardi_approx.Reiter.answer db_small q));
    Test.make ~name:"extra/explain"
      (stage (fun () ->
           Vardi_certain.Explain.boolean db_small Workloads.negative_sentence));
    (* Observability overhead on the E1-medium hot path. The first
       entry repeats e1/exact-medium under a different name: the engine
       is instrumented unconditionally, so the delta between the two
       identically-coded entries is the measurement noise floor, and
       the disabled-sink cost must sit inside it (acceptance: < 3%).
       The second entry installs an in-memory sink, showing what full
       event collection costs. *)
    Test.make ~name:"obs/e1-medium-nullsink"
      (stage (fun () -> Certain.answer db_medium q));
    Test.make ~name:"obs/e1-medium-memsink"
      (stage (fun () ->
           let buf = Logicaldb.Obs.buffer () in
           Logicaldb.Obs.with_sink (Logicaldb.Obs.buffer_sink buf) (fun () ->
               Certain.answer db_medium q)));
    (* Cancellation overhead on the same hot path. The first entry
       threads a token whose generous limits never trip (but whose
       deadline check runs per structure and whose caps truncate the
       stream positionally); the second goes through the full
       Resilient layer with an equally generous budget. Both must sit
       within the noise floor of e1/exact-medium (acceptance: < 3%,
       recorded in EXPERIMENTS.md E13). *)
    Test.make ~name:"resil/e1-medium-cancel"
      (stage (fun () ->
           let cancel =
             Logicaldb.Cancel.create
               ~deadline_ns:
                 (Int64.add (Logicaldb.Obs.now_ns ()) 3_600_000_000_000L)
               ~max_structures:max_int ~max_evaluations:max_int ()
           in
           Certain.answer ~cancel db_medium q));
    Test.make ~name:"resil/e1-medium-resilient"
      (stage (fun () ->
           Logicaldb.Resilient.answer
             ~budget:
               (Logicaldb.Budget.make ~timeout:3600. ~max_structures:max_int
                  ())
             db_medium q));
  ]

let quota_seconds = 0.3

let run_micro_tests ?(quota = quota_seconds) tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let result = Analyze.one ols Instance.monotonic_clock raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | Some [] | None -> Float.nan
          in
          let r2 = Analyze.OLS.r_square result in
          let r2_text =
            match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"
          in
          let human ns =
            if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
          in
          Fmt.pr "  %-24s %s   (r2 = %s)@." (Test.Elt.name elt)
            (human estimate) r2_text;
          (Test.Elt.name elt, estimate, r2))
        (Test.elements test))
    tests

let run_micro () =
  Fmt.pr "@.=== Bechamel micro-benchmarks (OLS on the monotonic clock) ===@.";
  run_micro_tests (micro_tests ())

(* --- machine-readable results (--json FILE) ---

   Schema "vardi-bench/1", documented in EXPERIMENTS.md: one object per
   micro-benchmark with the OLS nanoseconds-per-run estimate and its
   r². Written by hand — the repo deliberately has no JSON
   dependency. *)

let json_escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let write_json ?(quota = quota_seconds) path results =
  let out = open_out path in
  let benchmarks =
    List.map
      (fun (name, ns, r2) ->
        Printf.sprintf
          "    { \"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s }"
          (json_escape name) (json_float ns)
          (match r2 with Some r -> json_float r | None -> "null"))
      results
  in
  Printf.fprintf out
    "{\n\
    \  \"schema\": \"vardi-bench/1\",\n\
    \  \"quota_s\": %s,\n\
    \  \"benchmarks\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (json_float quota)
    (String.concat ",\n" benchmarks);
  close_out out;
  Fmt.pr "@.wrote %s (%d benchmarks)@." path (List.length results)

(* --- CI sanity gate (--e1-sanity) ---

   One timed run of the E1-medium workload, verified first against the
   brute-force Theorem-1 reference (Vardi_fuzz.Reference). Exits
   non-zero on disagreement, so the CI engine-smoke job fails loudly
   if the engine ever diverges from the reference. *)

let e1_sanity () =
  let module Certain = Vardi_certain.Engine in
  let db = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let q = Workloads.mixed_query in
  let reference = Logicaldb.Fuzz_reference.answer db q in
  let answer = Certain.answer db q in
  if not (Vardi_relational.Relation.equal answer reference) then begin
    Fmt.epr "e1-sanity: the engine disagrees with the reference on E1-medium@.";
    exit 1
  end;
  let t0 = Logicaldb.Obs.now_ns () in
  ignore (Certain.answer db q);
  let elapsed_ms =
    Int64.to_float (Int64.sub (Logicaldb.Obs.now_ns ()) t0) /. 1e6
  in
  Fmt.pr "e1-sanity: E1-medium %.2f ms, answer agrees with the reference@."
    elapsed_ms

(* A fresh directory under the system temp dir, removed with its
   contents when the process exits — by any path, [exit] included. *)
let temp_dir prefix =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_dir prefix "" in
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

(* [value_of flag args] is the argument following [flag], if any. *)
let rec value_of flag = function
  | [] | [ _ ] -> None
  | a :: value :: _ when String.equal a flag -> Some value
  | _ :: rest -> value_of flag rest

(* --- the incremental-evaluation benchmark (--incr) ---

   E17 (EXPERIMENTS.md, BENCH_7.json): query-after-a-small-delta on
   the E1-medium workload, four rows.

   - incr/fresh-after-delta     one fact toggled on R in a plain
                                database, then a from-scratch
                                [Certain.answer] — the rescan baseline.
   - incr/session-after-delta-independent
                                the same toggle through an
                                [Incr_session], then a query that never
                                reads R: every per-structure result is
                                a memo hit. The headline row — the
                                acceptance bar is >= 3x over the fresh
                                baseline.
   - incr/session-after-delta-dependent
                                the toggle plus the mixed query that
                                does read R: memos miss, but the cached
                                quotient structures rebuild only the R
                                slot.
   - incr/session-requery       no delta, plan-cache-hot re-evaluation:
                                the pure-memo floor.
   - incr/mutation-only         one insert-or-retract toggle, no query:
                                the fixed cost of a fact delta.
   - incr/prepare-only          [Session.prepare] alone: what the serve
                                layer pays to re-bind a plan after a
                                delta moves the plan-cache key.

   Before timing, incremental answers are checked against from-scratch
   answers after both the insert and the retract — a silent divergence
   would make the speedup meaningless. *)

let incr_bench args =
  let module Certain = Vardi_certain.Engine in
  let module Session = Logicaldb.Incr_session in
  let module Cw = Logicaldb.Cw_database in
  let module Relation = Vardi_relational.Relation in
  Fmt.pr "=== E17: incremental evaluation — query after a small delta ===@.";
  let db0 = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let dep_q = Workloads.mixed_query in
  let indep_q = Logicaldb.query "(x). ~P(x)" in
  let delta_fact =
    let constants = Cw.constants db0 in
    let existing = Cw.facts db0 in
    let candidates =
      List.concat_map
        (fun c ->
          List.map (fun d -> { Cw.pred = "R"; args = [ c; d ] }) constants)
        constants
    in
    match List.find_opt (fun f -> not (List.mem f existing)) candidates with
    | Some f -> f
    | None ->
      Fmt.epr "incr-bench: R is full on the E1-medium workload@.";
      exit 1
  in
  let check_parity label q =
    let s = Session.create db0 in
    let agree () =
      let fresh = Certain.answer (Session.db s) q in
      let incr, _ = Certain.prepared_answer_stats (Session.prepare s q) in
      Relation.equal fresh incr
    in
    Session.insert s delta_fact;
    let after_insert = agree () in
    Session.retract s delta_fact;
    if not (after_insert && agree ()) then begin
      Fmt.epr
        "incr-bench: incremental answers diverge from fresh rescan (%s)@."
        label;
      exit 1
    end
  in
  check_parity "dependent query" dep_q;
  check_parity "independent query" indep_q;
  (* Each timed run performs exactly one mutation (alternating insert /
     retract of the same fact, so state is re-appliable across
     Bechamel's many iterations) followed by one full query. *)
  let toggled_session q =
    let s = Session.create db0 in
    let present = ref false in
    ( s,
      fun () ->
        if !present then Session.retract s delta_fact
        else Session.insert s delta_fact;
        present := not !present;
        Certain.prepared_answer_stats (Session.prepare s q) )
  in
  let fresh_thunk =
    let db = ref db0 in
    let present = ref false in
    fun () ->
      (db :=
         if !present then Cw.remove_fact !db delta_fact
         else Cw.add_fact !db delta_fact);
      present := not !present;
      Certain.answer !db indep_q
  in
  let indep_session, indep_thunk = toggled_session indep_q in
  let _, dep_thunk = toggled_session dep_q in
  let requery_thunk =
    let s = Session.create db0 in
    let prepared = Session.prepare s dep_q in
    fun () -> Certain.prepared_answer_stats prepared
  in
  let results =
    run_micro_tests
      [
        Test.make ~name:"incr/fresh-after-delta" (stage fresh_thunk);
        Test.make ~name:"incr/session-after-delta-independent"
          (stage indep_thunk);
        Test.make ~name:"incr/session-after-delta-dependent"
          (stage dep_thunk);
        Test.make ~name:"incr/session-requery" (stage requery_thunk);
        (let s = Session.create db0 in
         let present = ref false in
         Test.make ~name:"incr/mutation-only"
           (stage (fun () ->
                if !present then Session.retract s delta_fact
                else Session.insert s delta_fact;
                present := not !present)));
        (let s = Session.create db0 in
         Test.make ~name:"incr/prepare-only"
           (stage (fun () -> Session.prepare s indep_q)));
      ]
  in
  let ns name =
    List.find_map
      (fun (n, e, _) -> if String.equal n name then Some e else None)
      results
  in
  (match (ns "incr/fresh-after-delta", ns "incr/session-after-delta-independent")
  with
  | Some fresh, Some incr when incr > 0. ->
    Fmt.pr "@.  speedup (fresh rescan / incremental, independent delta): \
            %.1fx@."
      (fresh /. incr)
  | _ -> ());
  Fmt.pr "  %a@." Session.pp_stats (Session.stats indep_session);
  Option.iter
    (fun path -> write_json path results)
    (value_of "--json" args)

(* --- the durability benchmark (--durable) ---

   E19 (EXPERIMENTS.md, BENCH_9.json): what the write-ahead log costs,
   and what recovery costs, on the E17 delta-then-query workload.

   - durable/delta-query-none     the baseline: one fact toggle through
                                  a bare [Incr_session] plus one
                                  dependent-query evaluation — E17's
                                  session-after-delta-dependent shape.
   - durable/delta-query-{never,batch,always}
                                  the same toggle+query through a
                                  [Durable_store]: probe, WAL append
                                  (with the named fsync policy), apply,
                                  query. The acceptance bar is batch
                                  overhead <= 15% over the baseline.
   - durable/recover-{100,1000,5000}
                                  full recovery (snapshot load + log
                                  scan + replay) of a directory whose
                                  WAL holds that many records — how
                                  startup cost scales with log length.

   Before timing, a commit/kill/recover round-trip is checked for
   equality (database and delta epoch) — a benchmark of a recovery
   that loses data would be meaningless. *)

let durable_bench args =
  let module Certain = Vardi_certain.Engine in
  let module Session = Logicaldb.Incr_session in
  let module Cw = Logicaldb.Cw_database in
  let module Store = Logicaldb.Durable_store in
  let module Wal = Logicaldb.Wal in
  let module Recovery = Logicaldb.Recovery in
  Fmt.pr "=== E19: durability — WAL overhead and recovery time ===@.";
  let db0 = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let dep_q = Workloads.mixed_query in
  let delta_fact =
    let constants = Cw.constants db0 in
    let existing = Cw.facts db0 in
    let candidates =
      List.concat_map
        (fun c ->
          List.map (fun d -> { Cw.pred = "R"; args = [ c; d ] }) constants)
        constants
    in
    match List.find_opt (fun f -> not (List.mem f existing)) candidates with
    | Some f -> f
    | None ->
      Fmt.epr "durable-bench: R is full on the E1-medium workload@.";
      exit 1
  in
  let root = temp_dir "durable_bench" in
  (* Correctness gate: a committed prefix must survive an abandoned
     descriptor (the simulated kill -9) bit-for-bit. *)
  (let dir = Filename.concat root "gate" in
   let store = Store.create ~dir ~sync:Wal.Always ~snapshot_every:0 db0 in
   ignore (Store.commit store (Session.Insert delta_fact));
   ignore (Store.commit store (Session.Retract delta_fact));
   ignore (Store.commit store (Session.Insert delta_fact));
   let wanted = Session.db (Store.session store) in
   let delta = Session.delta_epoch (Store.session store) in
   Store.abandon store;
   let report = Recovery.verify dir in
   if
     not
       (Cw.equal (Session.db report.Recovery.r_session) wanted
       && Session.delta_epoch report.Recovery.r_session = delta)
   then begin
     Fmt.epr "durable-bench: recovery diverges from the committed state@.";
     exit 1
   end);
  let toggle apply =
    let present = ref false in
    fun () ->
      (if !present then apply (Session.Retract delta_fact)
       else apply (Session.Insert delta_fact));
      present := not !present
  in
  let session_thunk =
    let s = Session.create db0 in
    let step = toggle (fun m -> ignore (Session.apply s m)) in
    fun () ->
      step ();
      Certain.prepared_answer_stats (Session.prepare s dep_q)
  in
  let store_thunk name sync =
    let dir = Filename.concat root name in
    let store = Store.create ~dir ~sync ~snapshot_every:0 db0 in
    let s = Store.session store in
    let step = toggle (fun m -> ignore (Store.commit store m)) in
    fun () ->
      step ();
      Certain.prepared_answer_stats (Session.prepare s dep_q)
  in
  let recovery_dir n =
    let dir = Filename.concat root (Printf.sprintf "recover%d" n) in
    let store = Store.create ~dir ~sync:Wal.Never ~snapshot_every:0 db0 in
    let step = toggle (fun m -> ignore (Store.commit store m)) in
    for _ = 1 to n do
      step ()
    done;
    Store.abandon store;
    dir
  in
  let results =
    run_micro_tests
      [
        Test.make ~name:"durable/delta-query-none" (stage session_thunk);
        Test.make ~name:"durable/delta-query-never"
          (stage (store_thunk "never" Wal.Never));
        Test.make ~name:"durable/delta-query-batch"
          (stage (store_thunk "batch" Wal.Batch));
        Test.make ~name:"durable/delta-query-always"
          (stage (store_thunk "always" Wal.Always));
        (let d = recovery_dir 100 in
         Test.make ~name:"durable/recover-100"
           (stage (fun () -> Recovery.verify d)));
        (let d = recovery_dir 1000 in
         Test.make ~name:"durable/recover-1000"
           (stage (fun () -> Recovery.verify d)));
        (let d = recovery_dir 5000 in
         Test.make ~name:"durable/recover-5000"
           (stage (fun () -> Recovery.verify d)));
      ]
  in
  let ns name =
    List.find_map
      (fun (n, e, _) -> if String.equal n name then Some e else None)
      results
  in
  (match (ns "durable/delta-query-none", ns "durable/delta-query-batch") with
  | Some base, Some batch when base > 0. ->
    Fmt.pr "@.  WAL overhead (--sync=batch over in-memory): %+.1f%%@."
      ((batch -. base) /. base *. 100.)
  | _ -> ());
  (match (ns "durable/delta-query-none", ns "durable/delta-query-always") with
  | Some base, Some always when base > 0. ->
    Fmt.pr "  WAL overhead (--sync=always over in-memory): %+.1f%%@."
      ((always -. base) /. base *. 100.)
  | _ -> ());
  Option.iter (fun path -> write_json path results) (value_of "--json" args)

(* --- the join sanity gate (--acq-sanity) ---

   CI's check that the optimizer's fused joins, the plan the optimized
   approximation backend runs, stay correct and stay fast. Correctness
   first, at sizes where the Tarskian evaluator is cheap: the naive
   padded plan and the optimized plan of a path, a star and a cyclic
   triangle CQ must equal [Eval], and the optimized backend must answer
   a negated-atom query as the Direct backend does. Then one wall-clock
   comparison at n = 64: the optimized plan must beat the naive padded
   plan, whose intermediates grow like n^3, by the required factor
   (default 5x; the floor keeps CI robust to noisy runners). *)

module Acq = struct
  module L = Logicaldb

  let e i = Printf.sprintf "e%03d" i

  (* Three shifted successor chains over a domain of [n] elements:
     |R| = |S| = |T| = n, so the fused joins are linear in [n] while
     the padded plan pays n^3. *)
  let db n =
    let domain = List.init n e in
    let chain shift =
      L.Relation.of_tuples 2
        (List.init n (fun i -> [ e i; e ((i + shift) mod n) ]))
    in
    L.Database.make
      ~vocabulary:
        (L.Vocabulary.make ~constants:[]
           ~predicates:[ ("R", 2); ("S", 2); ("T", 2) ])
      ~domain ~constants:[]
      ~relations:[ ("R", chain 1); ("S", chain 2); ("T", chain 3) ]

  let path_q =
    L.Parser.query
      "(x, w). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, w)"

  let star_q =
    L.Parser.query
      "(h). exists a. exists b. exists c. R(h, a) /\\ S(h, b) /\\ T(h, c)"

  let triangle_q =
    L.Parser.query "(x). exists y. exists z. R(x, y) /\\ S(y, z) /\\ T(z, x)"

  let negated_q = L.Parser.query "(x). exists y. R(x, y) /\\ ~S(x, y)"

  (* A CW database of 12 constants for [negated_q]: [R] and [S] chains,
     [S] also holding every third pair of [R], and the first four
     constants unknown (no uniqueness axioms among them). *)
  let negated_db =
    let n = 12 in
    let fact p i j = { L.Cw_database.pred = p; args = [ e i; e (j mod n) ] } in
    L.Cw_database.make
      ~vocabulary:
        (L.Vocabulary.make ~constants:(List.init n e)
           ~predicates:[ ("R", 2); ("S", 2) ])
      ~facts:
        (List.init n (fun i -> fact "R" i (i + 1))
        @ List.init n (fun i -> fact "S" i (i + 2))
        @ List.init (n / 3) (fun k -> fact "S" (3 * k) ((3 * k) + 1)))
      ~distinct:
        (List.concat_map
           (fun j -> List.init j (fun i -> (e i, e j)))
           (List.init (n - 4) (fun j -> j + 4)))

  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Fmt.epr "acq-sanity: %s@." msg;
        exit 1)
      fmt

  let gate () =
    List.iter
      (fun n ->
        let db = db n in
        List.iter
          (fun (qname, q) ->
            let reference = L.Eval.answer db q in
            let naive = L.Compile.query db q in
            if not (L.Relation.equal (L.Algebra.run db naive) reference) then
              fail "naive plan wrong on %s at n=%d" qname n;
            if
              not
                (L.Relation.equal
                   (L.Algebra.run db (L.Optimizer.optimize db naive))
                   reference)
            then fail "optimized plan wrong on %s at n=%d" qname n)
          [ ("path", path_q); ("star", star_q); ("triangle", triangle_q) ])
      [ 8; 16 ];
    if
      not
        (L.Relation.equal
           (L.Approx.answer ~backend:L.Approx.Algebra_optimized negated_db
              negated_q)
           (L.Approx.answer ~backend:L.Approx.Direct negated_db negated_q))
    then fail "optimized and Direct approximations differ on %s"
        (L.Pretty.query_to_string negated_q);
    Fmt.pr
      "  correctness gates passed (n = 8, 16; path, star, triangle; \
       negated atom on the optimized backend)@."
end

let acq_sanity args =
  let module L = Logicaldb in
  Fmt.pr "=== acq sanity: correctness gates + speedup floor ===@.";
  Acq.gate ();
  let floor =
    match value_of "--min-speedup" args with
    | Some s -> float_of_string s
    | None -> 5.0
  in
  let n = 64 in
  let db = Acq.db n in
  let naive = L.Compile.query db Acq.path_q in
  let optimized = L.Optimizer.optimize db naive in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_naive, naive_answer = time (fun () -> L.Algebra.run db naive) in
  if not (L.Relation.equal naive_answer (L.Algebra.run db optimized)) then
    Acq.fail "naive and optimized answers diverge at n=%d" n;
  let runs = 50 in
  let t_opt, () =
    time (fun () ->
        for _ = 1 to runs do
          ignore (L.Algebra.run db optimized)
        done)
  in
  let t_opt = t_opt /. float_of_int runs in
  let factor = if t_opt > 0. then t_naive /. t_opt else Float.infinity in
  Fmt.pr
    "  n=%d: naive %.1f ms, optimized %.3f ms — speedup %.1fx (floor %.1fx)@."
    n (t_naive *. 1e3) (t_opt *. 1e3) factor floor;
  if factor < floor then
    Acq.fail "speedup %.1fx below the %.1fx floor" factor floor

(* --- Part 3: per-phase breakdown through the observability layer --- *)

let phase_breakdown () =
  let module Obs = Logicaldb.Obs in
  let module Certain = Vardi_certain.Engine in
  Fmt.pr "@.=== E1-medium per-phase breakdown (Vardi_obs spans) ===@.";
  let db_medium = Workloads.parametric_db ~constants:16 ~unknowns:2 ~seed:7 in
  let q = Workloads.mixed_query in
  ignore (Certain.answer db_medium q) (* warm-up: plan + minor heap *);
  let buf = Obs.buffer () in
  Obs.with_sink (Obs.buffer_sink buf) (fun () ->
      ignore (Certain.answer db_medium q));
  let evs = Obs.events buf in
  Obs.pp_spans Fmt.stdout evs;
  Obs.pp_counters Fmt.stdout evs

(* --- Part 4: the serve load generator (--serve) ---

   Drives [ldb serve] with N concurrent clients and records per-request
   latency, so "the daemon handles heavy traffic" is a measured claim
   (EXPERIMENTS.md E16, BENCH_6.json). Two modes: with --socket PATH it
   drives an already-running external server (the CI smoke job); with
   no --socket it hosts the server in-process on a private socket and
   tears it down afterwards. --mixed salts the load with one malformed
   line and one budget-exhausted request per run, asserting the
   protocol's error codes under concurrency; any unexpected code fails
   the run. *)

let serve_bench args =
  let module Serve = Logicaldb.Serve in
  let module Client = Logicaldb.Serve_client in
  let module Json = Logicaldb.Serve_json in
  let module Obs = Logicaldb.Obs in
  let int_arg flag default =
    match value_of flag args with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> n
      | _ ->
        Fmt.epr "%s expects a positive integer, got %S@." flag v;
        exit 2)
  in
  let clients = int_arg "--clients" 8 in
  let per_client = int_arg "--requests" 25 in
  let workers = int_arg "--workers" 2 in
  let queue_capacity = int_arg "--queue" 64 in
  (* --retries N: connect with backoff while the server is coming up,
     and resend on the busy backpressure code (capped exponential
     backoff + jitter, Client's policy) — 0 = fail fast, the default. *)
  let retries =
    match value_of "--retries" args with
    | None -> 0
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ ->
        Fmt.epr "--retries expects a non-negative integer, got %S@." v;
        exit 2)
  in
  let mixed = List.mem "--mixed" args in
  let json_path = value_of "--json" args in
  let external_socket = value_of "--socket" args in
  let shutdown_after = external_socket = None || List.mem "--shutdown" args in
  (* The workload database: medium-sized, so each request does real
     scan work but a single run stays in seconds. *)
  let db = Workloads.parametric_db ~constants:12 ~unknowns:2 ~seed:7 in
  let root = temp_dir "serve_bench" in
  let db_path = Filename.concat root "bench.ldb" in
  let oc = open_out db_path in
  output_string oc (Logicaldb.Ldb_format.print db);
  close_out oc;
  let query_mix =
    [|
      `Query "(x). (exists y. R(x, y)) /\\ ~P(x)";
      `Query "(x). exists y. R(x, y) /\\ P(y)";
      `Query "(x). ~P(x)";
      `Boolean "(). exists x. ~P(x) /\\ (exists y. R(x, y))";
    |]
  in
  let socket_path, server_thread =
    match external_socket with
    | Some path -> (path, None)
    | None ->
      (* A path nothing exists at yet: the daemon refuses to replace a
         non-socket file there. *)
      let path = Filename.concat root "serve.sock" in
      let thread =
        Thread.create
          (fun () ->
            Serve.run
              {
                Serve.socket_path = path;
                workers;
                queue_capacity;
                debug_sleep = false;
                preload = [];
                durability = None;
              })
          ()
      in
      (path, Some thread)
  in
  let setup = Client.connect_retry socket_path in
  let load_resp =
    Client.request setup
      (Json.Obj
         [
           ("op", Json.Str "load");
           ("db", Json.Str "bench");
           ("path", Json.Str db_path);
         ])
  in
  (match Json.str_field "code" load_resp with
  | Some "ok" -> ()
  | _ ->
    Fmt.epr "serve-bench: load failed: %s@." (Json.to_string load_resp);
    exit 1);
  (* One warm-up pass per query shape, so the measured section sees
     the plan cache hot — the steady state a resident server is
     for. The cold misses are still visible in the cache counters
     below. *)
  Array.iter
    (fun shape ->
      let op, text =
        match shape with
        | `Query t -> ("query", t)
        | `Boolean t -> ("boolean", t)
      in
      ignore
        (Client.request setup
           (Json.Obj
              [
                ("op", Json.Str op);
                ("db", Json.Str "bench");
                ("query", Json.Str text);
              ])))
    query_mix;
  let unexpected = Atomic.make 0 in
  let latencies = Array.make clients [||] in
  let client_thread idx () =
    let c =
      if retries > 0 then Client.connect ~retries socket_path
      else Client.connect_retry socket_path
    in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let lat = Array.make per_client 0. in
        for i = 0 to per_client - 1 do
          let expect_code, send =
            if mixed && idx = 0 && i = 0 then
              ("parse_error", fun () -> Client.request_line c "not json")
            else if mixed && idx = 0 && i = 1 then
              ( "exhausted",
                fun () ->
                  Client.request c
                    (Json.Obj
                       [
                         ("op", Json.Str "query");
                         ("db", Json.Str "bench");
                         ( "query",
                           Json.Str "(x). (exists y. R(x, y)) /\\ ~P(x)"
                         );
                         ("max_structures", Json.Num 1.);
                       ]) )
            else
              let op, text =
                match query_mix.((idx + i) mod Array.length query_mix) with
                | `Query t -> ("query", t)
                | `Boolean t -> ("boolean", t)
              in
              ( "ok",
                fun () ->
                  Client.request_retry ~retries c
                    (Json.Obj
                       [
                         ("op", Json.Str op);
                         ("db", Json.Str "bench");
                         ("query", Json.Str text);
                       ]) )
          in
          let t0 = Obs.now_ns () in
          let resp = send () in
          lat.(i) <- Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6;
          match Json.str_field "code" resp with
          | Some code when code = expect_code -> ()
          | _ ->
            Atomic.incr unexpected;
            Fmt.epr "serve-bench: client %d expected %s, got %s@." idx
              expect_code (Json.to_string resp)
        done;
        latencies.(idx) <- lat)
  in
  let threads = List.init clients (fun i -> Thread.create (client_thread i) ()) in
  List.iter Thread.join threads;
  let stats_resp =
    Client.request setup (Json.Obj [ ("op", Json.Str "stats") ])
  in
  if shutdown_after then
    ignore (Client.request setup (Json.Obj [ ("op", Json.Str "shutdown") ]));
  Client.close setup;
  Option.iter Thread.join server_thread;
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  let n = Array.length all in
  let percentile q =
    if n = 0 then Float.nan
    else all.(min (n - 1) (int_of_float (Float.round (q *. float_of_int (n - 1)))))
  in
  let mean =
    if n = 0 then Float.nan
    else Array.fold_left ( +. ) 0. all /. float_of_int n
  in
  let p50 = percentile 0.50
  and p90 = percentile 0.90
  and p99 = percentile 0.99
  and p_max = if n = 0 then Float.nan else all.(n - 1) in
  Fmt.pr
    "serve-bench: %d clients x %d requests (workers=%d queue=%d%s)@."
    clients per_client workers queue_capacity
    (if mixed then ", mixed load" else "");
  Fmt.pr
    "  latency ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  mean %.3f@."
    p50 p90 p99 p_max mean;
  let cache_field name =
    Option.bind (Json.member "plan_cache" stats_resp) (Json.num_field name)
  in
  (match (cache_field "hits", cache_field "misses") with
  | Some h, Some m -> Fmt.pr "  plan cache: %.0f hits, %.0f misses@." h m
  | _ -> ());
  Option.iter
    (fun path ->
      let out = open_out path in
      Printf.fprintf out
        "{\n\
        \  \"schema\": \"vardi-serve-bench/1\",\n\
        \  \"clients\": %d,\n\
        \  \"requests_per_client\": %d,\n\
        \  \"workers\": %d,\n\
        \  \"queue_capacity\": %d,\n\
        \  \"mixed\": %b,\n\
        \  \"total_requests\": %d,\n\
        \  \"latency_ms\": { \"p50\": %s, \"p90\": %s, \"p99\": %s, \
         \"max\": %s, \"mean\": %s },\n\
        \  \"server_stats\": %s\n\
         }\n"
        clients per_client workers queue_capacity mixed n (json_float p50)
        (json_float p90) (json_float p99) (json_float p_max)
        (json_float mean)
        (Json.to_string stats_resp);
      close_out out;
      Fmt.pr "wrote %s@." path)
    json_path;
  if Atomic.get unexpected > 0 then begin
    Fmt.epr "serve-bench: %d unexpected response codes@."
      (Atomic.get unexpected);
    exit 1
  end;
  Fmt.pr "serve-bench: all %d responses carried their expected codes@." n

(* --- Part 5: the serve mutation smoke (--serve-mutate) ---

   Drives a running [ldb serve] daemon through the mutation wire ops
   (insert / retract / close_unknown) against a database file, checks
   every response code, and prints the final certain answer of the
   probe query as sorted CSV rows on stdout — the same shape [ldb
   query] prints — so the CI incr-smoke job can diff it against the
   one-shot pipeline (ldb mutate --output F && ldb query F). The
   script is written for data/socrates.ldb, whose load reports 1
   fact: it inserts TEACHES(mystery, socrates), round-trips an
   insert/retract pair (which must leave no trace), closes
   (socrates, mystery) to distinct, re-inserts
   TEACHES(mystery, socrates) (a no-op), and throws two malformed
   mutations at the wire to pin their error codes. Every ack must
   carry the fact count and delta epoch of its step. Any unexpected
   code or count exits 1. *)

let serve_mutate_bench args =
  let module Client = Logicaldb.Serve_client in
  let module Json = Logicaldb.Serve_json in
  let required flag =
    match value_of flag args with
    | Some v -> v
    | None ->
      Fmt.epr "--serve-mutate requires %s@." flag;
      exit 2
  in
  let db_path = required "--db" in
  let socket = required "--socket" in
  let shutdown_after = List.mem "--shutdown" args in
  let c = Client.connect_retry socket in
  let str k v = (k, Json.Str v) in
  let expect code label fields =
    let resp = Client.request c (Json.Obj fields) in
    (match Json.str_field "code" resp with
    | Some got when got = code -> ()
    | _ ->
      Fmt.epr "serve-mutate: %s expected code %s, got %s@." label code
        (Json.to_string resp);
      exit 1);
    resp
  in
  (* [facts] (and [delta], where given) the response must report *)
  let counts label ?delta facts resp =
    let field k = Json.num_field k resp in
    let want k v =
      if field k <> Some (float_of_int v) then begin
        Fmt.epr "serve-mutate: %s expected %s %d, got %s@." label k v
          (Json.to_string resp);
        exit 1
      end
    in
    want "facts" facts;
    Option.iter (want "delta") delta
  in
  let op name rest = ("op", Json.Str name) :: rest in
  let on_db rest = str "db" "incr" :: rest in
  let probe = "(x, y). TEACHES(x, y)" in
  counts "load" 1
    (expect "ok" "load" (op "load" (on_db [ str "path" db_path ])));
  ignore (expect "ok" "probe" (op "query" (on_db [ str "query" probe ])));
  let insert_mystery =
    op "insert" (on_db [ str "fact" "TEACHES(mystery, socrates)" ])
  in
  counts "insert" 2 ~delta:1 (expect "ok" "insert" insert_mystery);
  counts "insert (round-trip)" 3 ~delta:2
    (expect "ok" "insert (round-trip)"
       (op "insert" (on_db [ str "fact" "TEACHES(plato, mystery)" ])));
  counts "retract (round-trip)" 2 ~delta:3
    (expect "ok" "retract (round-trip)"
       (op "retract" (on_db [ str "fact" "TEACHES(plato, mystery)" ])));
  counts "close_unknown" 2 ~delta:4
    (expect "ok" "close_unknown"
       (op "close_unknown"
          (on_db
             [ str "left" "socrates"; str "right" "mystery"; str "to" "distinct" ])));
  counts "re-insert (no-op)" 2 ~delta:4
    (expect "ok" "re-insert (no-op)" insert_mystery);
  ignore
    (expect "parse_error" "malformed fact"
       (op "insert" (on_db [ str "fact" "((" ])));
  ignore
    (expect "semantic_error" "absent retract"
       (op "retract" (on_db [ str "fact" "TEACHES(plato, plato)" ])));
  let final = expect "ok" "final query" (op "query" (on_db [ str "query" probe ])) in
  let rows =
    match Json.member "rows" final with
    | Some (Json.List rs) ->
      List.filter_map
        (function
          | Json.List cells -> Some (List.filter_map Json.to_str cells)
          | _ -> None)
        rs
      |> List.sort compare
    | _ ->
      Fmt.epr "serve-mutate: final response without rows: %s@."
        (Json.to_string final);
      exit 1
  in
  if shutdown_after then
    ignore (Client.request c (Json.Obj [ ("op", Json.Str "shutdown") ]));
  Client.close c;
  List.iter (fun row -> Fmt.pr "%s@." (String.concat ", " row)) rows;
  Fmt.epr "serve-mutate: script complete, %d final rows@." (List.length rows)

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--serve-mutate" args then serve_mutate_bench args
  else if List.mem "--serve" args then serve_bench args
  else if List.mem "--incr" args then incr_bench args
  else if List.mem "--durable" args then durable_bench args
  else if List.mem "--acq-sanity" args then acq_sanity args
  else if List.mem "--e1-sanity" args then
    e1_sanity ()
  else begin
    let tables_only = List.mem "--tables-only" args in
    let micro_only = List.mem "--micro-only" args in
    let json = value_of "--json" args in
    if not micro_only then print_tables ();
    if not tables_only then begin
      let results = run_micro () in
      Option.iter (fun path -> write_json path results) json
    end;
    if (not tables_only) && not micro_only then phase_breakdown ();
    Fmt.pr "@.done.@."
  end
