module Certain = Vardi_certain.Engine
module Cancel = Vardi_certain.Cancel
module Resilient = Vardi_resilience.Resilient
module Budget = Vardi_resilience.Budget
module Obs = Vardi_obs.Obs
module Query = Vardi_logic.Query
module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Parser = Vardi_logic.Parser
module Lexer = Vardi_logic.Lexer
module Session = Vardi_incr.Session
module Relation = Vardi_relational.Relation
module Cw_database = Vardi_cwdb.Cw_database
module Ty_database = Vardi_typed.Ty_database
module Ldb_format = Vardi_format.Ldb_format
module Tldb_format = Vardi_format.Tldb_format
module Wal = Vardi_durable.Wal
module Recovery = Vardi_durable.Recovery
module Store = Vardi_durable.Store

(* When set, every loaded database lives in a directory under
   [data_dir] with a write-ahead log and periodic snapshots, and
   startup recovers whatever the directory holds before the socket
   opens (see {!Vardi_durable}). *)
type durability = {
  data_dir : string;
  sync : Wal.sync;
  snapshot_every : int;
}

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  debug_sleep : bool;
  preload : (string * string) list;
  durability : durability option;
}

let default_config =
  {
    socket_path = "ldb.sock";
    workers = 2;
    queue_capacity = 16;
    debug_sleep = false;
    preload = [];
    durability = None;
  }

(* --- one-shot synchronization between connection thread and worker - *)

type ivar = {
  iv_lock : Mutex.t;
  iv_filled : Condition.t;
  mutable iv_value : Json.t option;
}

let ivar () =
  { iv_lock = Mutex.create (); iv_filled = Condition.create (); iv_value = None }

let ivar_fill iv v =
  Mutex.lock iv.iv_lock;
  iv.iv_value <- Some v;
  Condition.signal iv.iv_filled;
  Mutex.unlock iv.iv_lock

let ivar_await iv =
  Mutex.lock iv.iv_lock;
  while iv.iv_value = None do
    Condition.wait iv.iv_filled iv.iv_lock
  done;
  let v = Option.get iv.iv_value in
  Mutex.unlock iv.iv_lock;
  v

(* --- server state -------------------------------------------------- *)

(* Each loaded database is resident as an incremental session: the
   interned symtab, quotient-structure cache and per-structure memos
   survive across requests and mutations. The generation is bumped on
   (re)load; mutation invalidation is finer and lives inside the
   session (see {!Vardi_incr.Session}). *)
type db_entry = {
  session : Session.t;
  generation : int;
  store : Store.t option;  (* [Some] iff the server runs durable *)
}

type state = {
  config : config;
  listener : Unix.file_descr;
  pool : Pool.t;
  cache : Plan_cache.t;
  dbs : (string, db_entry) Hashtbl.t;
  dbs_lock : Mutex.t;
  next_generation : int Atomic.t;
  requests : int Atomic.t;
  code_counts : (Protocol.code * int Atomic.t) list;
  stopping : bool Atomic.t;
  draining : bool Atomic.t;  (* SIGTERM: answer queued jobs first *)
  torn_down : bool Atomic.t;
  conns_lock : Mutex.t;
  mutable conns : (Thread.t * Unix.file_descr) list;
}

let all_codes =
  Protocol.
    [ Ok; Parse_error; Semantic_error; Exhausted; Cancelled; Busy ]

let count_response state (resp : Json.t) =
  Atomic.incr state.requests;
  Obs.count "serve.request" 1;
  match Option.bind (Json.str_field "code" resp) Protocol.code_of_string with
  | None -> ()
  | Some code ->
    Obs.count ("serve.code." ^ Protocol.code_to_string code) 1;
    List.iter
      (fun (c, n) -> if c = code then Atomic.incr n)
      state.code_counts

let lookup_db state name =
  Mutex.lock state.dbs_lock;
  let entry = Hashtbl.find_opt state.dbs name in
  Mutex.unlock state.dbs_lock;
  entry

(* --- request handlers ---------------------------------------------- *)

let install_entry state name entry =
  Mutex.lock state.dbs_lock;
  let previous = Hashtbl.find_opt state.dbs name in
  Hashtbl.replace state.dbs name entry;
  Mutex.unlock state.dbs_lock;
  (* A replaced durable entry's log descriptor is released after its
     final flush; the new entry's [Store.create] already started the
     fresh lineage on disk. *)
  match previous with
  | Some { store = Some old; _ } -> ( try Store.close old with _ -> ())
  | _ -> ()

let do_load state ~name ~path =
  match
    if Filename.check_suffix path ".tldb" then
      Ty_database.to_cw (Tldb_format.load path)
    else Ldb_format.load path
  with
  | db ->
    let generation = Atomic.fetch_and_add state.next_generation 1 in
    let entry =
      match state.config.durability with
      | None -> { session = Session.create db; generation; store = None }
      | Some d ->
        (* (Re)loading starts a fresh lineage: snapshot at seq 0, empty
           log — the previous directory contents are superseded. *)
        let dir = Recovery.db_dir ~data_dir:d.data_dir ~name in
        let store =
          Store.create ~dir ~sync:d.sync ~snapshot_every:d.snapshot_every db
        in
        { session = Store.session store; generation; store = Some store }
    in
    install_entry state name entry;
    Protocol.ok
      [
        ("db", Json.Str name);
        ("constants", Json.Num (float_of_int (List.length (Cw_database.constants db))));
        ("facts", Json.Num (float_of_int (Cw_database.fact_count db)));
        ("durable", Json.Bool (entry.store <> None));
      ]
  | exception Ldb_format.Syntax_error (line, msg) ->
    Protocol.error Protocol.Parse_error
      (Printf.sprintf "%s: syntax error at line %d: %s" path line msg)
  | exception Tldb_format.Syntax_error (line, msg) ->
    Protocol.error Protocol.Parse_error
      (Printf.sprintf "%s: syntax error at line %d: %s" path line msg)
  | exception Sys_error msg -> Protocol.error Protocol.Semantic_error msg
  | exception Invalid_argument msg ->
    Protocol.error Protocol.Semantic_error msg

let budget_of_options (opts : Protocol.eval_options) =
  Budget.make ?timeout:opts.timeout ?max_structures:opts.max_structures
    ?max_evaluations:opts.max_evaluations ()

let resilient_fields (rstats : Resilient.stats) extra =
  let base =
    [
      ("source", Json.Str (Resilient.source_to_string rstats.source));
      ("wall_ms", Json.Num (Int64.to_float rstats.wall_ns /. 1e6));
    ]
  in
  let tripped =
    match rstats.tripped with
    | Some r -> [ ("tripped", Json.Str (Cancel.reason_to_string r)) ]
    | None -> []
  in
  let scan =
    match rstats.scan with
    | Some s ->
      [
        ("structures", Json.Num (float_of_int s.Certain.structures));
        ("evaluations", Json.Num (float_of_int s.Certain.evaluations));
      ]
    | None -> []
  in
  base @ tripped @ scan @ extra

let exhausted_response rstats =
  match
    Protocol.error Protocol.Exhausted "budget exhausted under policy fail"
  with
  | Json.Obj fields -> Json.Obj (fields @ resilient_fields rstats [])
  | other -> other

let rows_of_relation r =
  Json.List
    (List.map
       (fun tuple -> Json.List (List.map (fun c -> Json.Str c) tuple))
       (Relation.tuples r))

(* The evaluation job proper — runs on a pool worker domain. Must not
   raise: every outcome, including engine Invalid_argument, becomes a
   protocol response. *)
let evaluate state ~want_boolean ~(opts : Protocol.eval_options) entry ~db_name
    ~query_text q =
  Obs.span "serve.evaluate" (fun () ->
      try
        let session = entry.session in
        (* The delta epoch is sampled before preparing; a mutation
           racing between the sample and the prepare can bind a plan
           keyed at epoch [n] to view [n+1] — harmless, since every
           plan is bound to a single consistent view and the next
           post-mutation lookup misses on the new epoch anyway. *)
        let delta = Session.delta_epoch session in
        let prepared, cache_verdict =
          Plan_cache.find_or_prepare state.cache ~db_name
            ~generation:entry.generation ~delta ~query_text (fun () ->
              Session.prepare session q)
        in
        let cache_field =
          ( "cache",
            Json.Str (match cache_verdict with `Hit -> "hit" | `Miss -> "miss")
          )
        in
        let delta_field = ("delta", Json.Num (float_of_int delta)) in
        let budget = budget_of_options opts in
        let qualified_tag = function
          | Resilient.Exact _ -> "exact"
          | Resilient.Lower_bound _ -> "lower_bound"
          | Resilient.Upper_bound _ -> "upper_bound"
          | Resilient.Exhausted -> assert false
        in
        if want_boolean || Query.is_boolean q then begin
          let qualified, rstats =
            Resilient.prepared_boolean_stats ~policy:opts.policy ~budget
              prepared
          in
          match qualified with
          | Resilient.Exhausted -> exhausted_response rstats
          | Resilient.Exact v | Resilient.Lower_bound v
          | Resilient.Upper_bound v ->
            Protocol.ok
              (resilient_fields rstats
                 [
                   ("value", Json.Bool v);
                   ("qualified", Json.Str (qualified_tag qualified));
                   cache_field;
                   delta_field;
                 ])
        end
        else begin
          let qualified, rstats =
            Resilient.prepared_answer_stats ~policy:opts.policy ~budget
              prepared
          in
          match qualified with
          | Resilient.Exhausted -> exhausted_response rstats
          | Resilient.Exact r | Resilient.Lower_bound r
          | Resilient.Upper_bound r ->
            Protocol.ok
              (resilient_fields rstats
                 [
                   ("rows", rows_of_relation r);
                   ("cardinality", Json.Num (float_of_int (Relation.cardinal r)));
                   ("qualified", Json.Str (qualified_tag qualified));
                   cache_field;
                   delta_field;
                 ])
        end
      with
      | Invalid_argument msg -> Protocol.error Protocol.Semantic_error msg
      | Sys.Break as e -> raise e
      | e ->
        Protocol.error Protocol.Semantic_error
          ("internal error: " ^ Printexc.to_string e))

(* Submit a job and wait for its response on this connection thread.
   Worker domains multiplex across all in-flight requests; this thread
   just parks on the ivar. *)
let submit_and_wait state job =
  let iv = ivar () in
  match
    Pool.submit state.pool (fun ~cancelled ->
        let resp =
          if cancelled then
            Protocol.error Protocol.Cancelled "server shutting down"
          else job ()
        in
        ivar_fill iv resp)
  with
  | `Accepted -> ivar_await iv
  | `Busy -> Protocol.error Protocol.Busy "request queue full"
  | `Stopping -> Protocol.error Protocol.Cancelled "server shutting down"

let do_eval state ~want_boolean ~db_name ~query_text ~opts =
  match lookup_db state db_name with
  | None ->
    Protocol.error Protocol.Semantic_error
      (Printf.sprintf "unknown database %S (load it first)" db_name)
  | Some entry -> (
    match Parser.query query_text with
    | exception Parser.Parse_error (pos, msg) ->
      Protocol.error Protocol.Parse_error
        (Printf.sprintf "query syntax error at offset %d: %s" pos msg)
    | exception Lexer.Lex_error (pos, msg) ->
      Protocol.error Protocol.Parse_error
        (Printf.sprintf "query lexical error at offset %d: %s" pos msg)
    | q ->
      if want_boolean && not (Query.is_boolean q) then
        Protocol.error Protocol.Semantic_error
          "op \"boolean\" requires a Boolean query (empty head)"
      else
        submit_and_wait state (fun () ->
            evaluate state ~want_boolean ~opts entry ~db_name ~query_text q))

(* --- mutations ------------------------------------------------------

   Mutations run on the connection thread: they are cheap (a symtab
   reuse or rebuild, never a scan), and the session serializes them
   internally, so there is no reason to pay the pool round-trip. *)

let parse_fact text =
  match Parser.formula text with
  | exception Parser.Parse_error (pos, msg) ->
    Error
      ( Printf.sprintf "fact syntax error at offset %d: %s" pos msg,
        Protocol.Parse_error )
  | exception Lexer.Lex_error (pos, msg) ->
    Error
      ( Printf.sprintf "fact lexical error at offset %d: %s" pos msg,
        Protocol.Parse_error )
  | Formula.Atom (p, ts) when List.for_all Term.is_const ts ->
    Result.Ok
      {
        Cw_database.pred = p;
        args =
          List.filter_map
            (function Term.Const c -> Some c | Term.Var _ -> None)
            ts;
      }
  | _ ->
    Error
      ( "\"fact\" must be a ground atom, e.g. \"P(a, b)\"",
        Protocol.Semantic_error )

let mutation_ok ~db_name entry =
  let session = entry.session in
  let db = Session.db session in
  Protocol.ok
    [
      ("db", Json.Str db_name);
      ("delta", Json.Num (float_of_int (Session.delta_epoch session)));
      ("facts", Json.Num (float_of_int (Cw_database.fact_count db)));
      ( "constants",
        Json.Num (float_of_int (List.length (Cw_database.constants db))) );
      (* the durability promise this very ack carries: [true] means the
         mutation was in the write-ahead log before this response *)
      ("durable", Json.Bool (entry.store <> None));
    ]

(* The write-ahead discipline lives in [Store.commit]: the record is
   logged (and synced per the --sync policy) before the session moves
   and before the [ok] below is written. Without durability the
   session applies directly, as before. *)
let commit_mutation entry (m : Session.mutation) =
  match entry.store with
  | Some store -> ignore (Store.commit store m)
  | None -> ignore (Session.apply entry.session m)

let with_db state db_name f =
  match lookup_db state db_name with
  | None ->
    Protocol.error Protocol.Semantic_error
      (Printf.sprintf "unknown database %S (load it first)" db_name)
  | Some entry -> (
    match f entry with
    | resp -> resp
    | exception Invalid_argument msg ->
      Protocol.error Protocol.Semantic_error msg)

let do_fact_mutation state ~db_name ~fact_text wrap =
  with_db state db_name (fun entry ->
      match parse_fact fact_text with
      | Error (msg, code) -> Protocol.error code msg
      | Result.Ok fact ->
        commit_mutation entry (wrap fact);
        mutation_ok ~db_name entry)

let do_close_unknown state ~db_name ~left ~right ~equal =
  with_db state db_name (fun entry ->
      commit_mutation entry (Session.Close { left; right; equal });
      mutation_ok ~db_name entry)

let do_stats state =
  let plans = Plan_cache.stats state.cache in
  Mutex.lock state.dbs_lock;
  let named =
    Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) state.dbs []
  in
  Mutex.unlock state.dbs_lock;
  let names = List.map fst named in
  Protocol.ok
    [
      ("requests", Json.Num (float_of_int (Atomic.get state.requests)));
      ( "codes",
        Json.Obj
          (List.map
             (fun (c, n) ->
               ( Protocol.code_to_string c,
                 Json.Num (float_of_int (Atomic.get n)) ))
             state.code_counts) );
      ( "plan_cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int plans.hits));
            ("misses", Json.Num (float_of_int plans.misses));
            ("resets", Json.Num (float_of_int plans.resets));
            ("entries", Json.Num (float_of_int plans.entries));
          ] );
      ( "dbs",
        Json.List
          (List.map (fun n -> Json.Str n) (List.sort compare names)) );
      ( "sessions",
        Json.Obj
          (List.map
             (fun (name, entry) ->
               let s = Session.stats entry.session in
               let num n = Json.Num (float_of_int n) in
               let durable_fields =
                 match entry.store with
                 | None -> []
                 | Some store ->
                   let c = Store.wal_counters store in
                   [
                     ("seq", num (Store.seq store));
                     ("wal_appends", num c.Wal.c_appends);
                     ("wal_fsyncs", num c.Wal.c_fsyncs);
                     ("wal_bytes", num c.Wal.c_bytes);
                     ("snapshots", num (Store.snapshots store));
                   ]
               in
               ( name,
                 Json.Obj
                   ([
                      ("delta", num s.Session.s_delta_epoch);
                      ("memo_hits", num s.Session.s_memo_hits);
                      ("memo_misses", num s.Session.s_memo_misses);
                      ("slot_reuses", num s.Session.s_slot_reuses);
                      ("slot_rebuilds", num s.Session.s_slot_rebuilds);
                      ("structures_cached", num s.Session.s_structures_cached);
                    ]
                   @ durable_fields) ))
             (List.sort compare named)) );
      ("durable", Json.Bool (state.config.durability <> None));
      ("workers", Json.Num (float_of_int (Pool.workers state.pool)));
      ( "queue_capacity",
        Json.Num (float_of_int (Pool.queue_capacity state.pool)) );
    ]

(* Shutdown only flips the flag: the accept loop polls it between
   short [select] waits (closing the listener from this connection
   thread would not reliably wake a thread already blocked in
   [accept]). The loop exits, and the main thread runs the full
   teardown — pool stop, connection drain, joins. *)
let request_shutdown state = Atomic.set state.stopping true

(* Returns (response, keep_connection_open). *)
let process state line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    (Protocol.error Protocol.Parse_error msg, true)
  | j -> (
    match Protocol.request_of_json j with
    | Error (msg, code) -> (Protocol.error code msg, true)
    | Ok (Protocol.Load { name; path }) -> (do_load state ~name ~path, true)
    | Ok (Protocol.Query { db; query; opts }) ->
      (do_eval state ~want_boolean:false ~db_name:db ~query_text:query ~opts, true)
    | Ok (Protocol.Boolean { db; query; opts }) ->
      (do_eval state ~want_boolean:true ~db_name:db ~query_text:query ~opts, true)
    | Ok (Protocol.Insert { db; fact }) ->
      ( do_fact_mutation state ~db_name:db ~fact_text:fact (fun f ->
            Session.Insert f),
        true )
    | Ok (Protocol.Retract { db; fact }) ->
      ( do_fact_mutation state ~db_name:db ~fact_text:fact (fun f ->
            Session.Retract f),
        true )
    | Ok (Protocol.Close_unknown { db; left; right; equal }) ->
      (do_close_unknown state ~db_name:db ~left ~right ~equal, true)
    | Ok Protocol.Stats -> (do_stats state, true)
    | Ok Protocol.Close -> (Protocol.ok [ ("closing", Json.Bool true) ], false)
    | Ok Protocol.Shutdown ->
      request_shutdown state;
      (Protocol.ok [ ("shutting_down", Json.Bool true) ], false)
    | Ok (Protocol.Sleep seconds) ->
      if not state.config.debug_sleep then
        ( Protocol.error Protocol.Semantic_error
            "op \"sleep\" requires --debug-sleep",
          true )
      else
        ( submit_and_wait state (fun () ->
              Unix.sleepf seconds;
              Protocol.ok [ ("slept_ms", Json.Num (seconds *. 1000.)) ]),
          true ))

(* --- connections --------------------------------------------------- *)

let handle_connection state fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* Teardown runs on every exit path — normal close, client vanishing
     mid-line, a write hitting a closed peer, server shutdown cutting
     the descriptor — and always flushes the ambient trace sink so a
     long-lived daemon never strands buffered JSON-lines events. *)
  Fun.protect
    ~finally:(fun () ->
      Obs.flush ();
      close_out_noerr oc)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | exception (End_of_file | Sys_error _) -> ()
        | line when String.trim line = "" -> loop ()
        | line ->
          let resp, keep_open = process state line in
          count_response state resp;
          (match
             output_string oc (Json.to_string resp);
             output_char oc '\n';
             flush oc
           with
          | () -> Obs.flush (); if keep_open then loop ()
          | exception Sys_error _ -> ())
      in
      loop ())

(* Registration holds the lock across [Thread.create]: a handler that
   finishes instantly blocks in its unregister until the entry exists,
   so the list never leaks an entry for a thread that already died.

   The thread is created under a SIGINT mask it then inherits: Ctrl-C
   must only ever be delivered to the accept loop's thread, which owns
   teardown. A [Sys.Break] raised inside a connection thread (or a
   pool worker — {!Pool} masks the same way) would kill just that
   thread and leave the server running with no one to interrupt. *)
let register_connection state fd handler =
  let parked = ref None in
  Domain_guard.masked
    ~park:(fun e -> if !parked = None then parked := Some e)
    (fun () ->
      Mutex.lock state.conns_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock state.conns_lock)
        (fun () ->
          let thread = Thread.create handler () in
          state.conns <- (thread, fd) :: state.conns));
  match !parked with Some e -> raise e | None -> ()

let unregister_connection state fd =
  Mutex.lock state.conns_lock;
  state.conns <- List.filter (fun (_, fd') -> fd' <> fd) state.conns;
  Mutex.unlock state.conns_lock

(* --- lifecycle ----------------------------------------------------- *)

let teardown state =
  if not (Atomic.exchange state.torn_down true) then begin
    Atomic.set state.stopping true;
    (try Unix.close state.listener with Unix.Unix_error _ -> ());
    (* Stop the pool first: queued jobs get their [cancelled]
       responses — or, on the SIGTERM drain path, their real ones —
       in-flight jobs finish, worker domains are joined; after this no
       domain is alive. *)
    Pool.stop ~drain:(Atomic.get state.draining) state.pool;
    (* Cut idle connections blocked in [input_line], then join every
       connection thread so their teardown (flush + close) has run
       before the process exits. *)
    Mutex.lock state.conns_lock;
    let conns = state.conns in
    Mutex.unlock state.conns_lock;
    List.iter
      (fun (_, fd) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (thread, _) -> Thread.join thread) conns;
    (* Every shutdown path parts with a checkpoint: acked mutations are
       already safe in the WAL, but a fresh snapshot + reset log makes
       the next startup replay-free. *)
    Mutex.lock state.dbs_lock;
    let entries = Hashtbl.fold (fun _ e acc -> e :: acc) state.dbs [] in
    Mutex.unlock state.dbs_lock;
    List.iter
      (fun entry ->
        match entry.store with
        | None -> ()
        | Some store ->
          (try Store.checkpoint store with _ -> ());
          (try Store.close store with _ -> ()))
      entries;
    (try Unix.unlink state.config.socket_path with Unix.Unix_error _ -> ());
    Obs.flush ()
  end

(* A leftover socket file is only removed after proving no server is
   behind it: connect succeeding means one is (refuse loudly — a blind
   unlink would steal its clients); ECONNREFUSED means the previous
   daemon died without its teardown (crash, kill -9) and left the name
   dangling. Anything that is not a socket is never touched. *)
let remove_stale_socket path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> `Live
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Dead
          | exception Unix.Unix_error (e, _, _) -> `Unknown e)
    in
    match verdict with
    | `Dead -> Unix.unlink path
    | `Live ->
      invalid_arg
        (Printf.sprintf
           "%s: a server is already listening on this socket; shut it down \
            first or pick a different --socket"
           path)
    | `Unknown e ->
      invalid_arg
        (Printf.sprintf "%s: cannot probe existing socket (%s); remove it \
                         manually if the server is gone"
           path (Unix.error_message e)))
  | _ ->
    invalid_arg
      (Printf.sprintf
         "%s: refusing to replace an existing non-socket file" path)

let recover_data_dir state (d : durability) =
  List.iter
    (fun name ->
      let dir = Recovery.db_dir ~data_dir:d.data_dir ~name in
      let store, report =
        Store.open_ ~dir ~sync:d.sync ~snapshot_every:d.snapshot_every ()
      in
      Obs.count "serve.recovered" 1;
      if report.Recovery.r_torn_bytes > 0 then
        Obs.count "serve.recovered.torn" 1;
      let generation = Atomic.fetch_and_add state.next_generation 1 in
      install_entry state name
        { session = Store.session store; generation; store = Some store })
    (Recovery.list ~data_dir:d.data_dir)

let run config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale_socket config.socket_path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let state =
    match
      Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
      Unix.listen listener 64
    with
    | () ->
      {
        config;
        listener;
        pool =
          Pool.create ~workers:config.workers
            ~queue_capacity:config.queue_capacity ();
        cache = Plan_cache.create ();
        dbs = Hashtbl.create 8;
        dbs_lock = Mutex.create ();
        next_generation = Atomic.make 0;
        requests = Atomic.make 0;
        code_counts = List.map (fun c -> (c, Atomic.make 0)) all_codes;
        stopping = Atomic.make false;
        draining = Atomic.make false;
        torn_down = Atomic.make false;
        conns_lock = Mutex.create ();
        conns = [];
      }
    | exception e ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      raise e
  in
  Fun.protect
    ~finally:(fun () -> teardown state)
    (fun () ->
      (* SIGTERM = graceful drain: flip the flags and let the accept
         loop notice — teardown then waits for queued jobs, answers
         them, checkpoints every durable store, and [run] returns
         normally (exit 0). SIGINT keeps its Sys.Break path. *)
      (try
         Sys.set_signal Sys.sigterm
           (Sys.Signal_handle
              (fun _ ->
                Atomic.set state.draining true;
                Atomic.set state.stopping true))
       with Invalid_argument _ -> ());
      (* Recovery precedes the first accept: every database directory
         under the data dir is resident — snapshot loaded, WAL tail
         replayed — before any client can ask. Unrecoverable corruption
         (Recovery.Corrupt) propagates and fails startup. *)
      (match config.durability with
      | Some d -> recover_data_dir state d
      | None -> ());
      (* Preloads fail fast: a server that can't load its databases
         should die at startup, through the CLI's usual error path.
         A name recovery already restored is NOT reloaded — restarting
         with the same command line must keep the recovered mutations,
         not reset the database to its seed file. *)
      List.iter
        (fun (name, path) ->
          if lookup_db state name = None then
            match do_load state ~name ~path with
            | Json.Obj fields when List.assoc_opt "error" fields <> None ->
              let msg =
                match List.assoc_opt "error" fields with
                | Some (Json.Str m) -> m
                | _ -> "preload failed"
              in
              invalid_arg (Printf.sprintf "--db %s=%s: %s" name path msg)
            | _ -> ())
        config.preload;
      Obs.count "serve.start" 1;
      (* [select] with a short timeout instead of a bare blocking
         [accept]: a [shutdown] request arrives on a connection thread
         and only flips [stopping], so the loop must wake on its own
         to notice. [accept] after a readable [select] cannot block. *)
      let rec accept_loop () =
        if not (Atomic.get state.stopping) then
          match Unix.select [ state.listener ] [] [] 0.1 with
          | [], _, _ -> accept_loop ()
          | _ :: _, _, _ -> (
            match Unix.accept state.listener with
            | fd, _ ->
              if Atomic.get state.stopping then (
                try Unix.close fd with Unix.Unix_error _ -> ())
              else begin
                register_connection state fd (fun () ->
                    Fun.protect
                      ~finally:(fun () -> unregister_connection state fd)
                      (fun () -> handle_connection state fd));
                accept_loop ()
              end
            | exception
                Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              accept_loop ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ())
