(* The benchmark harness. See README.md for the workloads, the metrics
   and how each is measured.

   harness.exe --workload W --seed N --seconds S --trace 0|1 --ldb PATH
   harness.exe --check-reference

   Runs inside a fresh directory under ldbbench/_run, removed on exit.
   The last line of standard output is the result object. *)

module L = Logicaldb
module Json = L.Serve_json

let usage () =
  prerr_endline
    "usage: harness.exe --workload serve-read|serve-write|oneshot --seed N --seconds S \
     --trace 0|1 --ldb PATH";
  exit 2

let arg name args =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

(* --- the run directory -------------------------------------------------- *)

let run_dir = ref None

(* Spans of the traced run, kept in ldbbench/_trace/<workload>.jsonl. *)
let write_trace workload ctxs =
  match !run_dir with
  | Some (home, _) ->
    let dir = Filename.concat home "ldbbench/_trace" in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Trace.write (Filename.concat dir (workload ^ ".jsonl")) ~limit:2000 ctxs
  | None -> ()

let cleanup () =
  Serve.stop_all ();
  match !run_dir with
  | Some (home, dir) ->
    run_dir := None;
    Sys.chdir home;
    Serve.remove_tree dir;
    (* Another run may still be using the parent. *)
    (try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
  | None -> ()

let enter_run_dir () =
  let home = Sys.getcwd () in
  let base = Filename.concat home "ldbbench/_run" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  Serve.remove_tree dir;
  Unix.mkdir dir 0o755;
  run_dir := Some (home, dir);
  at_exit cleanup;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.chdir dir

(* --- metrics ----------------------------------------------------------------- *)

let m = Measure.metric
let p s q = Measure.percentile s q

let end_to_end ~setup ~ops ~elapsed ~read ~exact ~approx ~write ~rss =
  [
    m "setup_s" "s" setup;
    m "ops_per_s" "ops/s" (float_of_int ops /. elapsed);
    m "read_p50_ms" "ms" (p read 0.50);
    m "read_p99_ms" "ms" (p read 0.99);
    m "write_p50_ms" "ms" (p write 0.50);
    m "write_p99_ms" "ms" (p write 0.99);
    m "exact_p50_ms" "ms" (p exact 0.50);
    m "exact_p90_ms" "ms" (p exact 0.90);
    m "approx_p50_ms" "ms" (p approx 0.50);
    m "approx_p90_ms" "ms" (p approx 0.90);
    m "peak_rss_mb" "MB" rss;
  ]

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)
let per a n = if n = 0 then 0. else a /. float_of_int n

type layers = {
  summary : Trace.summary;
  replayed : bool;  (* a serve replay, not oneshot *)
  overhead : float;  (* traced over untraced time, same stream prefix *)
  plan_hits : float;
  plan_misses : float;
  memo_hits : float;
  memo_misses : float;
  structures_cached : float;
  slot_rebuilds : float;
  writes : int;
  scans : int;
  structures : int;
  early : int;
  fastpath : int;
  fallback : int;
  commit_writes : int;
  fsyncs : int;
  wal_bytes : int;
  checkpoint_ns : float list;
  recover_ms : float;
  alloc_bytes : float;
  ops : int;
}

let per_layer l =
  let s = l.summary in
  let us = Trace.self_us s and total = Trace.total_us s in
  let traced_op_us = total "request" in
  [
    m "serve.decode_us" "us" (us "serve.decode");
    m "serve.queue_wait_us" "us" (us "serve.queue_wait");
    m "serve.plan_cache_us" "us" (us "serve.plan_cache");
    m "serve.plan_cache_hit_ratio" "ratio" (ratio l.plan_hits l.plan_misses);
    m "serve.encode_us" "us" (us "serve.encode");
    m "serve.handoff_us" "us" (us "serve.handoff");
    m "serve.ack_us" "us" (us "serve.ack");
    m "serve.replay_op_us" "us" (if l.replayed then traced_op_us else 0.);
    m "logic.parse_us" "us" (us "logic.parse");
    m "format.parse_ms" "ms" (us "format.parse" /. 1e3);
    m "format.print_us" "us" (us "format.print");
    m "certain.prepare_us" "us" (total "certain.prepare");
    m "certain.scan_us" "us" (total "certain.scan");
    m "certain.structures_per_op" "count" (per (float_of_int l.structures) l.scans);
    m "certain.early_exit_ratio" "ratio" (per (float_of_int l.early) l.scans);
    m "certain.filter_us" "us"
      (if Trace.calls s "interned.eval" > 0 then us "certain.scan" else 0.);
    m "interned.intern_us" "us" (us "interned.intern");
    m "interned.quotient_us" "us" (us "interned.quotient");
    m "interned.eval_us" "us" (us "interned.eval");
    m "incr.memo_hit_ratio" "ratio" (ratio l.memo_hits l.memo_misses);
    m "incr.structures_cached" "count" l.structures_cached;
    m "incr.slot_rebuilds_per_write" "count" (per l.slot_rebuilds l.writes);
    m "incr.create_us" "us" (us "incr.create");
    m "incr.apply_us" "us" (us "incr.apply");
    m "durable.commit_us" "us" (per (Trace.get s.Trace.total_ns "durable.commit" /. 1e3) l.commit_writes);
    m "durable.fsyncs_per_write" "count" (per (float_of_int l.fsyncs) l.commit_writes);
    m "durable.wal_bytes_per_write" "B" (per (float_of_int l.wal_bytes) l.commit_writes);
    m "durable.checkpoint_commit_ms" "ms"
      (per (List.fold_left ( +. ) 0. l.checkpoint_ns /. 1e6) (List.length l.checkpoint_ns));
    m "durable.recover_ms" "ms" l.recover_ms;
    m "approx.answer_us" "us" (total "approx.answer");
    m "approx.translate_us" "us" (us "approx.translate");
    m "cwdb.ph2_ms" "ms" (us "approx.ph2" /. 1e3);
    m "relational.eval_ms" "ms" (us "approx.evaluate" /. 1e3);
    m "relational.fastpath_ratio" "ratio"
      (ratio (float_of_int l.fastpath) (float_of_int l.fallback));
    m "relational.decode_us" "us" (us "relational.decode");
    m "gc.alloc_kb_per_op" "KB" (per (l.alloc_bytes /. 1024.) l.ops);
    m "trace.coverage_pct" "%" (100. *. Trace.coverage s ~root:"request");
    m "trace.overhead_pct" "%" (100. *. l.overhead);
  ]

(* --- serve workloads ---------------------------------------------------------- *)

let stats_num path j =
  let rec go j = function
    | [] -> Json.to_num j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:0. (go j path)

let session_sum stats key =
  match Json.member "sessions" stats with
  | Some (Json.Obj dbs) -> List.fold_left (fun acc (_, o) -> acc +. stats_num [ key ] o) 0. dbs
  | _ -> 0.

let time f =
  let t0 = Measure.now () in
  let v = f () in
  (v, Measure.now () -. t0)

(* [setup_s] is the median of this many set-ups in one run. *)
let setups = 3

let report_setups workload times =
  Printf.eprintf "%s: set-ups %s s\n%!" workload
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times))

let run_serve ~ldb ~workload ~seed ~seconds ~trace =
  let data_dir = "data" in
  let spec =
    if workload = "serve-read" then Serve.serve_read ~seed
    else Serve.serve_write ~seed ~data_dir
  in
  let socket = "ldb.sock" in
  let setup_times = ref [] in
  let daemon = ref None in
  for i = 1 to setups do
    Serve.remove_tree data_dir;
    let d, dt = Serve.setup ~ldb spec ~socket ~data_dir in
    setup_times := dt :: !setup_times;
    if i < setups then begin
      Serve.shutdown d;
      Serve.live := []
    end
    else daemon := Some d
  done;
  let d = Option.get !daemon in
  report_setups workload !setup_times;
  let tally = Measure.tally () in
  let res = Serve.load spec d ~clients:Serve.clients ~seconds tally in
  (* A durable daemon is killed, not shut down: recovery must stand on
     what the acknowledged commits wrote. *)
  if spec.Serve.durable then Serve.kill9 d else Serve.shutdown d;
  Serve.live := [];
  let durable_ok, recover_ms =
    match spec.Serve.final_check () with
    | (true, _) as r -> r
    | (false, _) as r ->
      prerr_endline "ldbbench: recovered database differs from the acknowledged state";
      r
    | exception e ->
      prerr_endline ("ldbbench: recovery failed: " ^ Printexc.to_string e);
      (false, 0.)
  in
  Serve.remove_tree data_dir;
  let sample c = res.Serve.samples.(Serve.cls_index c) in
  let read = Measure.merge [ sample Serve.Read; sample Serve.Approx ] in
  let ops = Array.fold_left (fun acc (s : Measure.sample) -> acc + s.len) 0 res.Serve.samples in
  Printf.eprintf "%s: %d ops in %.2fs (read %d, approx %d, write %d), %d failed\n%!" workload ops
    res.Serve.elapsed (sample Serve.Read).len (sample Serve.Approx).len (sample Serve.Write).len
    (Atomic.get tally.failed);
  let metrics =
    if not trace then
      end_to_end ~setup:(Measure.median !setup_times) ~ops ~elapsed:res.Serve.elapsed ~read
        ~exact:(sample Serve.Read) ~approx:(sample Serve.Approx) ~write:(sample Serve.Write)
        ~rss:res.Serve.rss_mb
    else begin
      let replay traced =
        Serve.remove_tree data_dir;
        let r = Replay.run spec ~traced ~seconds:(seconds /. 3.) ~data_dir in
        Serve.remove_tree data_dir;
        r
      in
      (* A later replay in this process runs faster (a traced replay
         once read 17% faster than the untraced one before it), so the
         traced replay is compared with one untraced replay before it
         and one after it. *)
      let before = replay false in
      let traced = replay true in
      let after = replay false in
      (* Replayed requests are checked like timed ones. *)
      List.iter
        (fun (r : Replay.result) ->
          ignore (Atomic.fetch_and_add tally.attempted r.Replay.ops);
          ignore (Atomic.fetch_and_add tally.failed r.Replay.failed))
        [ before; traced; after ];
      let summary = Trace.summarize traced.Replay.ctxs in
      write_trace workload traced.Replay.ctxs;
      let stats = res.Serve.stats in
      (* Counters over the timed load only, not set-up and warm-up. *)
      let delta f = f stats -. f res.Serve.stats_before in
      let k = traced.Replay.k in
      let wal_c = traced.Replay.wal in
      per_layer
        {
          summary;
          replayed = true;
          overhead =
            Measure.overhead
              (Array.append traced.Replay.latencies traced.Replay.latencies)
              (Array.append before.Replay.latencies after.Replay.latencies);
          plan_hits = delta (stats_num [ "plan_cache"; "hits" ]);
          plan_misses = delta (stats_num [ "plan_cache"; "misses" ]);
          memo_hits = delta (fun j -> session_sum j "memo_hits");
          memo_misses = delta (fun j -> session_sum j "memo_misses");
          structures_cached = session_sum stats "structures_cached";
          slot_rebuilds = delta (fun j -> session_sum j "slot_rebuilds");
          writes = (sample Serve.Write).len;
          scans = k.Replay.scans;
          structures = k.Replay.structures;
          early = k.Replay.early;
          fastpath = 0;
          fallback = 0;
          commit_writes = (if spec.Serve.durable then k.Replay.writes else 0);
          fsyncs = Option.fold ~none:0 ~some:(fun c -> c.L.Wal.c_fsyncs) wal_c;
          wal_bytes = Option.fold ~none:0 ~some:(fun c -> c.L.Wal.c_bytes) wal_c;
          checkpoint_ns = k.Replay.checkpoint_ns;
          recover_ms;
          alloc_bytes = k.Replay.alloc_bytes;
          ops = k.Replay.ops;
        }
      |> fun ms ->
      Printf.eprintf "%s traced replay: %d ops (untraced %d and %d), %d failed, coverage %.1f%%\n%!"
        workload traced.Replay.ops before.Replay.ops after.Replay.ops traced.Replay.failed
        (100. *. Trace.coverage summary ~root:"request");
      ms
    end
  in
  (Atomic.get tally.attempted, Atomic.get tally.failed, durable_ok, metrics)

(* --- oneshot ------------------------------------------------------------------- *)

let run_oneshot ~seed ~seconds ~trace =
  let setup_times = ref [] in
  let inputs = ref None in
  for _ = 1 to setups do
    let i, dt =
      time (fun () ->
          let i = Oneshot.generate ~seed in
          Oneshot.warm_up i;
          i)
    in
    setup_times := dt :: !setup_times;
    inputs := Some i
  done;
  let inputs = Option.get !inputs in
  report_setups "oneshot" !setup_times;
  List.iter Lazy.force inputs.Oneshot.references;
  let tally = Measure.tally () in
  let samples = Array.init 3 (fun _ -> Measure.sample ()) in
  let order = Measure.sample () in
  let index = function Oneshot.Exact -> 0 | Oneshot.Approx -> 1 | Oneshot.Write -> 2 in
  let next = Oneshot.stream ~seed inputs in
  let t0 = Measure.now () in
  let deadline = t0 +. seconds in
  while Measure.now () < deadline do
    let r = next () in
    Atomic.incr tally.attempted;
    let a = Measure.now () in
    (match Oneshot.run r with
    | out ->
      let b = Measure.now () in
      Measure.add order (b -. a);
      if r.Oneshot.check out then Measure.add samples.(index r.kind) ((b -. a) *. 1e3)
      else Measure.fail tally "wrong output for %s" r.Oneshot.arg
    | exception e -> Measure.fail tally "%s raised %s" r.Oneshot.arg (Printexc.to_string e));
    Oneshot.settle ()
  done;
  (* Time spent in requests: the collections between them are a
     long-lived harness's cost, not a one-shot process's. *)
  let elapsed = Measure.total order in
  let ops = Array.fold_left (fun acc (s : Measure.sample) -> acc + s.len) 0 samples in
  Printf.eprintf "oneshot: %d ops in %.2fs (exact %d, approx %d, write %d), %d failed\n%!" ops
    elapsed samples.(0).len samples.(1).len samples.(2).len (Atomic.get tally.failed);
  let metrics =
    if not trace then
      end_to_end ~setup:(Measure.median !setup_times) ~ops ~elapsed
        ~read:(Measure.merge [ samples.(0); samples.(1) ]) ~exact:samples.(0)
        ~approx:samples.(1) ~write:samples.(2) ~rss:(Measure.peak_rss_mb "self")
    else begin
      let ss = Oneshot.scan_stats () in
      let next = Oneshot.stream ~seed inputs in
      let deadline = Measure.now () +. seconds in
      let ctxs = ref [] and n = ref 0 and alloc = ref 0. in
      let traced_order = Measure.sample () in
      while Measure.now () < deadline do
        let r = next () in
        let ctx = Trace.ctx !n in
        incr n;
        let a0 = Gc.allocated_bytes () in
        let a = Measure.now () in
        Atomic.incr tally.attempted;
        let out = Trace.span ctx "request" (fun () -> Oneshot.run_traced ss ctx r) in
        Measure.add traced_order (Measure.now () -. a);
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        Oneshot.settle ();
        if not (r.Oneshot.check out) then Measure.fail tally "traced: wrong output for %s" r.arg;
        ctxs := ctx :: !ctxs
      done;
      let ctxs = List.rev !ctxs in
      let summary = Trace.summarize ctxs in
      write_trace "oneshot" ctxs;
      Printf.eprintf "oneshot traced: %d ops, coverage %.1f%%\n%!" !n
        (100. *. Trace.coverage summary ~root:"request");
      per_layer
        {
          summary;
          replayed = false;
          overhead = Measure.overhead [| traced_order |] [| order |];
          plan_hits = 0.;
          plan_misses = 0.;
          memo_hits = 0.;
          memo_misses = 0.;
          structures_cached = 0.;
          slot_rebuilds = 0.;
          writes = samples.(2).len;
          scans = ss.Oneshot.scans;
          structures = ss.Oneshot.structures;
          early = ss.Oneshot.early;
          fastpath = ss.Oneshot.fastpath;
          fallback = ss.Oneshot.fallback;
          commit_writes = 0;
          fsyncs = 0;
          wal_bytes = 0;
          checkpoint_ns = [];
          recover_ms = 0.;
          alloc_bytes = !alloc;
          ops = !n;
        }
    end
  in
  (Atomic.get tally.attempted, Atomic.get tally.failed, true, metrics)

(* --- reference self-check ---------------------------------------------------- *)

(* The approximation reference against the Tarskian backend, on
   databases small enough for it. *)
let check_reference () =
  let ok = ref true in
  List.iter
    (fun seed ->
      let st = Gen.rng seed 9 in
      let db = Gen.approx st ~constants:14 ~unknowns:3 ~block:3 in
      let cw = Gen.to_cw db in
      List.iter
        (fun cq ->
          let q = L.Parser.query (Reference.cq_text cq) in
          let direct = L.Relation.tuples (L.Approx.answer ~backend:L.Approx.Direct cw q) in
          match Reference.approx db cq with
          | Reference.Rows rows when Reference.equal_rows rows direct -> ()
          | _ ->
            ok := false;
            Printf.eprintf "approx reference differs from Direct on %s (seed %d)\n%!"
              (Reference.cq_text cq) seed)
        Reference.
          [
            { head = [ "x"; "w" ]; exists = [ "y"; "z" ];
              atoms = [ pos "R" [ "x"; "y" ]; pos "S" [ "y"; "z" ]; pos "T" [ "z"; "w" ] ] };
            { head = [ "x" ]; exists = [ "y"; "z" ];
              atoms = [ pos "R" [ "x"; "y" ]; pos "S" [ "y"; "z" ]; pos "T" [ "z"; "x" ] ] };
            { head = [ "s"; "t" ]; exists = [ "x"; "y" ];
              atoms = [ pos "A" [ "s"; "x" ]; pos "M" [ "x"; "y" ]; pos "B" [ "y"; "t" ] ] };
            { head = [ "x" ]; exists = [ "y" ]; atoms = [ pos "R" [ "x"; "y" ]; neg "U" [ "y" ] ] };
            { head = [ "x" ]; exists = [ "y" ]; atoms = [ pos "R" [ "x"; "y" ]; neg "S" [ "x"; "y" ] ] };
          ])
    [ 1; 2; 3 ];
  if !ok then print_endline "approx reference agrees with the Direct backend";
  exit (if !ok then 0 else 1)

(* --- main --------------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--check-reference" args then check_reference ();
  let workload = match arg "--workload" args with Some w -> w | None -> usage () in
  let int_arg k = Option.bind (arg k args) int_of_string_opt in
  let seed = match int_arg "--seed" with Some s -> s | None -> usage () in
  let seconds =
    match Option.bind (arg "--seconds" args) float_of_string_opt with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace = match arg "--trace" args with Some "1" -> true | Some "0" -> false | _ -> usage () in
  let ldb =
    match arg "--ldb" args with
    | Some p when Sys.file_exists p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
    | _ -> usage ()
  in
  if not (List.mem workload [ "serve-read"; "serve-write"; "oneshot" ]) then usage ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  enter_run_dir ();
  let attempted, failed, durable_ok, metrics =
    match workload with
    | "oneshot" -> run_oneshot ~seed ~seconds ~trace
    | w -> run_serve ~ldb ~workload:w ~seed ~seconds ~trace
  in
  let complete = List.for_all (fun (x : Measure.metric) -> Float.is_finite x.value) metrics in
  if not complete then prerr_endline "ldbbench: a metric has no samples";
  cleanup ();
  print_endline
    (Measure.result_line
       ~correct:(failed = 0 && durable_ok && complete)
       ~attempted ~failed metrics)
