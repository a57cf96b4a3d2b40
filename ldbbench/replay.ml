(* The traced run of the serve workloads: the same request streams,
   replayed in-process through the public functions the daemon
   composes — [Json], [Protocol], [Parser], [Plan_cache], [Serve_pool],
   [Incr_session], [Resilient] and [Durable_store] — with the daemon's
   pool size and as many client threads as the timed load has
   connections. No span is added inside the program; each span wraps
   one public call.

   The session owns the scan's structure and evaluation hooks, so a
   served scan is timed whole ([certain.scan]); the quotient and
   evaluation split is measured on [oneshot]. The Theorem-11 fallback
   of a budgeted request reports its stages through the program's own
   Obs spans, collected by a sink installed only while such a request
   runs. *)

module L = Logicaldb
module Json = L.Serve_json
module P = L.Serve_protocol
module Session = L.Incr_session
module Store = L.Durable_store

type entry = { session : Session.t; store : Store.t option; generation : int }

type state = {
  dbs : (string * entry) list;
  cache : L.Plan_cache.t;
  pool : L.Serve_pool.t;
}

(* --- ivar: the connection thread parks on its job's reply ------------- *)

type ivar = { m : Mutex.t; c : Condition.t; mutable v : Json.t option; mutable at : int64 }

let fill iv x =
  Mutex.protect iv.m (fun () ->
      iv.v <- Some x;
      iv.at <- Trace.now ();
      Condition.signal iv.c)

let await iv =
  Mutex.protect iv.m (fun () ->
      while iv.v = None do
        Condition.wait iv.c iv.m
      done;
      Option.get iv.v)

(* --- approx stage spans from the program's Obs events ------------------ *)

let stage_events : (string * int64) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stage_sink =
  {
    L.Obs.emit =
      (function
        | L.Obs.Span_close { name; elapsed_ns; _ } when List.mem name Oneshot.approx_stages ->
          let l = Domain.DLS.get stage_events in
          l := (name, elapsed_ns) :: !l
        | _ -> ());
    flush = ignore;
  }

let sink_users = ref 0
let sink_lock = Mutex.create ()

let with_stage_sink f =
  Mutex.protect sink_lock (fun () ->
      if !sink_users = 0 then L.Obs.install stage_sink;
      incr sink_users);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect sink_lock (fun () ->
          decr sink_users;
          if !sink_users = 0 then L.Obs.uninstall ()))
    f

(* --- counters the traced run adds --------------------------------------- *)

type counters = {
  lock : Mutex.t;
  mutable scans : int;
  mutable structures : int;
  mutable early : int;
  mutable writes : int;
  mutable checkpoint_ns : float list;
  mutable alloc_bytes : float;
  mutable ops : int;
}

let counters () =
  {
    lock = Mutex.create ();
    scans = 0;
    structures = 0;
    early = 0;
    writes = 0;
    checkpoint_ns = [];
    alloc_bytes = 0.;
    ops = 0;
  }

let note_scan k (rs : L.Resilient.stats) =
  Option.iter
    (fun (s : L.Certain.stats) ->
      Mutex.protect k.lock (fun () ->
          k.scans <- k.scans + 1;
          k.structures <- k.structures + s.L.Certain.structures;
          if s.L.Certain.early_exit then k.early <- k.early + 1))
    rs.L.Resilient.scan

(* --- one request --------------------------------------------------------- *)

let span ctx name f = match ctx with Some c -> Trace.span c name f | None -> f ()

let num n = Json.Num (float_of_int n)

let qualified_tag = function
  | L.Resilient.Exact _ -> "exact"
  | L.Resilient.Lower_bound _ -> "lower_bound"
  | L.Resilient.Upper_bound _ -> "upper_bound"
  | L.Resilient.Exhausted -> "exhausted"

let resilient_fields (rs : L.Resilient.stats) =
  [
    ("source", Json.Str (L.Resilient.source_to_string rs.L.Resilient.source));
    ("wall_ms", Json.Num (Int64.to_float rs.L.Resilient.wall_ns /. 1e6));
  ]
  @
  match rs.L.Resilient.scan with
  | Some s -> [ ("structures", num s.L.Certain.structures); ("evaluations", num s.L.Certain.evaluations) ]
  | None -> []

(* The evaluation job, on a pool worker: plan-cache lookup (preparing
   against the session on a miss), the resilient scan, the rows. *)
let evaluate st k ctx ~boolean ~db ~text ~(opts : P.eval_options) e q =
  let delta = Session.delta_epoch e.session in
  let prepared, verdict =
    span ctx "serve.plan_cache" (fun () ->
        L.Plan_cache.find_or_prepare st.cache ~db_name:db ~generation:e.generation ~delta
          ~query_text:text ~kernel:opts.kernel (fun () ->
            span ctx "certain.prepare" (fun () -> Session.prepare ~kernel:opts.kernel e.session q)))
  in
  let budget =
    L.Budget.make ?timeout:opts.timeout ?max_structures:opts.max_structures
      ?max_evaluations:opts.max_evaluations ()
  in
  let degraded = opts.policy = L.Resilient.Approx && not (L.Budget.is_unlimited budget) in
  let scan f =
    span ctx "certain.scan" (fun () ->
        let run () =
          let r = f () in
          if degraded then begin
            let l = Domain.DLS.get stage_events in
            Option.iter (fun c -> List.iter (fun (n, d) -> Trace.child c n d) (List.rev !l)) ctx;
            l := []
          end;
          r
        in
        if degraded then with_stage_sink run else run ())
  in
  let common =
    [
      ("cache", Json.Str (match verdict with `Hit -> "hit" | `Miss -> "miss"));
      ("delta", num delta);
    ]
  in
  if boolean then begin
    let qualified, rs =
      scan (fun () ->
          L.Resilient.prepared_boolean_stats ~policy:opts.policy ~domains:opts.domains ~budget
            prepared)
    in
    note_scan k rs;
    match qualified with
    | L.Resilient.Exact v | L.Resilient.Lower_bound v | L.Resilient.Upper_bound v ->
      P.ok
        (resilient_fields rs
        @ [ ("value", Json.Bool v); ("qualified", Json.Str (qualified_tag qualified)) ]
        @ common)
    | L.Resilient.Exhausted -> P.error P.Exhausted "budget exhausted under policy fail"
  end
  else begin
    let qualified, rs =
      scan (fun () ->
          L.Resilient.prepared_answer_stats ~policy:opts.policy ~domains:opts.domains ~budget
            prepared)
    in
    note_scan k rs;
    match qualified with
    | L.Resilient.Exact r | L.Resilient.Lower_bound r | L.Resilient.Upper_bound r ->
      let rows =
        span ctx "relational.decode" (fun () ->
            Json.List
              (List.map
                 (fun t -> Json.List (List.map (fun c -> Json.Str c) t))
                 (L.Relation.tuples r)))
      in
      P.ok
        (resilient_fields rs
        @ [
            ("rows", rows);
            ("cardinality", num (L.Relation.cardinal r));
            ("qualified", Json.Str (qualified_tag qualified));
          ]
        @ common)
    | L.Resilient.Exhausted -> P.error P.Exhausted "budget exhausted under policy fail"
  end

let mutate k ctx e ~db fact m =
  let f = span ctx "logic.parse" (fun () -> Oneshot.ground_fact fact) in
  let m = m f in
  (match e.store with
  | Some store ->
    let before = Store.snapshots store in
    let t0 = Trace.now () in
    ignore (span ctx "durable.commit" (fun () -> Store.commit store m));
    let dt = Int64.to_float (Int64.sub (Trace.now ()) t0) in
    Mutex.protect k.lock (fun () ->
        k.writes <- k.writes + 1;
        if Store.snapshots store > before then k.checkpoint_ns <- dt :: k.checkpoint_ns)
  | None ->
    ignore (span ctx "incr.apply" (fun () -> Session.apply e.session m));
    Mutex.protect k.lock (fun () -> k.writes <- k.writes + 1));
  span ctx "serve.ack" (fun () ->
      let cdb = Session.db e.session in
      P.ok
        [
          ("db", Json.Str db);
          ("delta", num (Session.delta_epoch e.session));
          ("facts", num (List.length (L.Cw_database.facts cdb)));
          ("constants", num (List.length (L.Cw_database.constants cdb)));
          ("durable", Json.Bool (e.store <> None));
        ])

let handle st k ctx line =
  let request =
    span ctx "serve.decode" (fun () ->
        match Json.parse line with
        | j -> P.request_of_json j
        | exception Json.Parse_error msg -> Error (msg, P.Parse_error))
  in
  let resp =
    match request with
    | Ok (P.Query { db; query; opts }) | Ok (P.Boolean { db; query; opts }) -> (
      let boolean = match request with Ok (P.Boolean _) -> true | _ -> false in
      let e = List.assoc db st.dbs in
      let q = span ctx "logic.parse" (fun () -> L.Parser.query query) in
      let iv = { m = Mutex.create (); c = Condition.create (); v = None; at = 0L } in
      let submitted = Trace.now () in
      match
        L.Serve_pool.submit st.pool (fun ~cancelled ->
            Option.iter
              (fun c -> Trace.child c "serve.queue_wait" (Int64.sub (Trace.now ()) submitted))
              ctx;
            let a0 = Gc.allocated_bytes () in
            let resp =
              if cancelled then P.error P.Cancelled "stopping"
              else
                try evaluate st k ctx ~boolean ~db ~text:query ~opts e q
                with Invalid_argument msg -> P.error P.Semantic_error msg
            in
            let a1 = Gc.allocated_bytes () in
            Mutex.protect k.lock (fun () -> k.alloc_bytes <- k.alloc_bytes +. (a1 -. a0));
            fill iv resp)
      with
      | `Accepted ->
        let resp = await iv in
        (* The reply's trip from the worker back to this thread. *)
        Option.iter (fun c -> Trace.child c "serve.handoff" (Int64.sub (Trace.now ()) iv.at)) ctx;
        resp
      | `Busy -> P.error P.Busy "request queue full"
      | `Stopping -> P.error P.Cancelled "stopping")
    | Ok (P.Insert { db; fact }) ->
      mutate k ctx (List.assoc db st.dbs) ~db fact (fun f -> Session.Insert f)
    | Ok (P.Retract { db; fact }) ->
      mutate k ctx (List.assoc db st.dbs) ~db fact (fun f -> Session.Retract f)
    | Ok _ -> P.error P.Semantic_error "not replayed"
    | Error (msg, code) -> P.error code msg
  in
  ignore (span ctx "serve.encode" (fun () -> Json.to_string resp));
  resp

(* --- the replay ------------------------------------------------------------ *)

type result = {
  ctxs : Trace.ctx list;  (* traced runs only *)
  latencies : Measure.sample array;  (* per client, in stream order *)
  ops : int;
  elapsed : float;
  failed : int;
  k : counters;
  wal : L.Wal.counters option;
}

let open_state (spec : Serve.spec) ~data_dir =
  let dbs =
    List.mapi
      (fun generation (name, _) ->
        let db = L.Ldb_format.load (name ^ ".ldb") in
        if spec.Serve.durable then begin
          let dir = L.Recovery.db_dir ~data_dir ~name in
          let store = Store.create ~dir ~sync:L.Wal.Always ~snapshot_every:64 db in
          (name, { session = Store.session store; store = Some store; generation })
        end
        else (name, { session = Session.create db; store = None; generation }))
      spec.Serve.dbs
  in
  {
    dbs;
    cache = L.Plan_cache.create ();
    pool = L.Serve_pool.create ~workers:2 ~queue_capacity:16 ();
  }

let close_state st =
  L.Serve_pool.stop st.pool;
  List.iter (fun (_, e) -> Option.iter Store.close e.store) st.dbs

let run (spec : Serve.spec) ~traced ~seconds ~data_dir =
  let st = open_state spec ~data_dir in
  let k = counters () in
  Fun.protect
    ~finally:(fun () -> close_state st)
    (fun () ->
      List.iter
        (fun (r : Serve.req) ->
          if not (r.check (handle st k None r.line)) then
            failwith ("replay warm-up answer failed its check: " ^ r.line))
        spec.Serve.warmup;
      let k = counters () in
      let failed = Atomic.make 0 in
      let t0 = Measure.now () in
      let deadline = t0 +. seconds in
      let per_client = Array.make Serve.clients [] in
      let latencies = Array.init Serve.clients (fun _ -> Measure.sample ()) in
      let last = Array.make Serve.clients t0 in
      let client i () =
        let next = spec.Serve.stream i in
        let rec loop n =
          if Measure.now () < deadline then begin
            let r = next () in
            let ctx = if traced then Some (Trace.ctx ((i * 1_000_000) + n)) else None in
            let a = Measure.now () in
            let resp = span ctx "request" (fun () -> handle st k ctx r.Serve.line) in
            last.(i) <- Measure.now ();
            Measure.add latencies.(i) (last.(i) -. a);
            Mutex.protect k.lock (fun () -> k.ops <- k.ops + 1);
            if not (r.Serve.check resp) then Atomic.incr failed;
            Option.iter (fun c -> per_client.(i) <- c :: per_client.(i)) ctx;
            loop (n + 1)
          end
        in
        loop 0
      in
      (* Allocation counters are per domain: the client threads share
         this one, and each pool job adds its worker's share. *)
      let a0 = Gc.allocated_bytes () in
      let threads = List.init Serve.clients (fun i -> Thread.create (client i) ()) in
      List.iter Thread.join threads;
      k.alloc_bytes <- k.alloc_bytes +. (Gc.allocated_bytes () -. a0);
      let wal =
        List.find_map (fun (_, e) -> Option.map Store.wal_counters e.store) st.dbs
      in
      {
        ctxs = List.concat_map List.rev (Array.to_list per_client);
        latencies;
        ops = k.ops;
        elapsed = Array.fold_left max t0 last -. t0;
        failed = Atomic.get failed;
        k;
        wal;
      })
