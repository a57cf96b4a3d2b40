(* End-to-end tests for the ldb serve daemon: protocol round-trips,
   concurrent-client parity with the engine and the one-shot CLI,
   plan-cache counters, busy backpressure, per-request budgets, SIGINT
   teardown, and trace-file integrity on error exit paths. The server
   runs in-process (Serve.run on a systhread) except for the mixed-load
   and signal tests, which spawn ../bin/ldb.exe like test_cli does. *)

open Logicaldb
module J = Serve_json
module Client = Serve_client

let exe = "../bin/ldb.exe"

(* [wait_exit pid] is the exit code of child [pid], once it ends; a
   child ended by a signal fails the test. *)
let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n -> Alcotest.failf "killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "stopped by signal %d" n

(* Same harness as test_cli's run_ldb, duplicated so the suites stay
   independent: stdin/stderr on /dev/null, stdout captured. *)
let run_ldb args =
  let out_file = Filename.temp_file "ldb_serve" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_file)
    (fun () ->
      let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let out =
        Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let null_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) null_in out
          null_err
      in
      Unix.close null_in;
      Unix.close out;
      Unix.close null_err;
      let code = wait_exit pid in
      let ic = open_in out_file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

(* [with_db ?db f] runs [f] on a temporary .ldb file holding [db]
   (default: the Socrates database). *)
let with_db ?(db = Support.socrates_db ()) f =
  let path = Filename.temp_file "ldb_serve" ".ldb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Ldb_format.print db);
      close_out oc;
      f path)

(* A fresh socket path: temp_file reserves a unique name, but the file
   itself must not exist when the client first connects (connecting to
   a regular file is ENOTSOCK, which connect_retry rightly does not
   retry). *)
let temp_socket () =
  let path = Filename.temp_file "ldb_serve" ".sock" in
  Sys.remove path;
  path

let with_server ?(workers = 2) ?(queue = 8) ?(debug_sleep = false) f =
  let socket = temp_socket () in
  let config =
    {
      Serve.default_config with
      socket_path = socket;
      workers;
      queue_capacity = queue;
      debug_sleep;
    }
  in
  let server = Thread.create (fun () -> Serve.run config) () in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect socket in
         ignore (Client.request c (J.Obj [ ("op", J.Str "shutdown") ]));
         Client.close c
       with _ -> ());
      Thread.join server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f socket)

let with_client socket f =
  let c = Client.connect_retry socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* --- request/response helpers ------------------------------------- *)

let rpc c fields = Client.request c (J.Obj fields)
let op name rest = ("op", J.Str name) :: rest

let code resp =
  match J.str_field "code" resp with
  | Some c -> c
  | None -> Alcotest.failf "response without a code: %s" (J.to_string resp)

let check_code msg expected resp =
  Alcotest.(check string) msg expected (code resp)

let load c name path =
  rpc c (op "load" [ ("db", J.Str name); ("path", J.Str path) ])

let query ?(extra = []) c db q =
  rpc c (op "query" ([ ("db", J.Str db); ("query", J.Str q) ] @ extra))

let boolean ?(extra = []) c db q =
  rpc c (op "boolean" ([ ("db", J.Str db); ("query", J.Str q) ] @ extra))

let rows resp =
  match J.member "rows" resp with
  | Some (J.List rs) ->
    List.map
      (function
        | J.List cells -> List.filter_map J.to_str cells
        | _ -> Alcotest.failf "malformed row in %s" (J.to_string resp))
      rs
    |> List.sort compare
  | _ -> Alcotest.failf "response without rows: %s" (J.to_string resp)

(* --- protocol round-trips ------------------------------------------ *)

let test_roundtrip () =
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun c ->
              let r = load c "g" db_path in
              check_code "load ok" "ok" r;
              Alcotest.(check (option (float 0.)))
                "constants counted" (Some 3.)
                (J.num_field "constants" r);
              let r = query c "g" "(x, y). TEACHES(x, y)" in
              check_code "query ok" "ok" r;
              Alcotest.(check (list (list string)))
                "certain tuples"
                [ [ "socrates"; "plato" ] ]
                (rows r);
              Alcotest.(check (option string))
                "unbudgeted answer is exact" (Some "exact")
                (J.str_field "qualified" r);
              (* "kernel" is accepted and ignored: every historical name
                 answers the same; any other name is a semantic error *)
              List.iter
                (fun k ->
                  Alcotest.(check (list (list string)))
                    ("kernel " ^ k)
                    [ [ "socrates"; "plato" ] ]
                    (rows
                       (query ~extra:[ ("kernel", J.Str k) ] c "g"
                          "(x, y). TEACHES(x, y)")))
                [ "interned"; "compiled"; "strings" ];
              check_code "unknown kernel name" "semantic_error"
                (query ~extra:[ ("kernel", J.Str "jit") ] c "g"
                   "(x, y). TEACHES(x, y)");
              (* "domains" is not read: it is ignored like any unknown
                 field, even at a value the decoder once rejected *)
              List.iter
                (fun d ->
                  let r =
                    query ~extra:[ ("domains", J.Num d) ] c "g"
                      "(x, y). TEACHES(x, y)"
                  in
                  let what = Printf.sprintf "domains %g" d in
                  check_code what "ok" r;
                  Alcotest.(check (list (list string)))
                    what
                    [ [ "socrates"; "plato" ] ]
                    (rows r))
                [ 4.; 0. ];
              let r = boolean c "g" "(). TEACHES(socrates, plato)" in
              check_code "boolean ok" "ok" r;
              Alcotest.(check (option bool))
                "affirmative verdict" (Some true) (J.bool_field "value" r);
              (* the error taxonomy on the wire *)
              check_code "unknown database" "semantic_error"
                (query c "nope" "(x). TEACHES(x, x)");
              check_code "query syntax error" "parse_error" (query c "g" "((");
              check_code "vocabulary violation" "semantic_error"
                (query c "g" "(x). UNKNOWN(x)");
              check_code "non-boolean query under op boolean" "semantic_error"
                (boolean c "g" "(x). TEACHES(x, x)");
              check_code "malformed JSON line" "parse_error"
                (Client.request_line c "this is not json");
              check_code "unknown op" "parse_error" (rpc c (op "frobnicate" []));
              check_code "sleep rejected without --debug-sleep" "semantic_error"
                (rpc c (op "sleep" [ ("ms", J.Num 1.) ]));
              (* close ends this connection, not the server *)
              check_code "close ok" "ok" (rpc c (op "close" []));
              (match rpc c (op "stats" []) with
              | exception (End_of_file | Sys_error _) -> ()
              | resp ->
                Alcotest.failf "connection survived close: %s"
                  (J.to_string resp));
              with_client socket (fun c2 ->
                  check_code "server still answering" "ok"
                    (rpc c2 (op "stats" []))))))

(* --- concurrent-client parity -------------------------------------- *)

let parity_queries =
  [
    "(x, y). TEACHES(x, y)";
    "(x). exists y. TEACHES(x, y)";
    "(x). TEACHES(socrates, x)";
  ]

let test_concurrent_parity () =
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun setup ->
              check_code "load" "ok" (load setup "g" db_path));
          let reference = Support.socrates_db () in
          let expected q =
            Certain.answer reference (Parser.query q)
            |> Relation.tuples |> List.sort compare
          in
          let failures = Atomic.make 0 in
          let client_thread k =
            let c = Client.connect socket in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for i = 0 to 2 do
                  List.iter
                    (fun q ->
                      let extra =
                        if (k + i) mod 2 = 0 then []
                        else [ ("kernel", J.Str "strings") ]
                      in
                      let r = query ~extra c "g" q in
                      let good =
                        code r = "ok"
                        && J.member "rows" r <> None
                        && rows r = expected q
                      in
                      if not good then Atomic.incr failures)
                    parity_queries
                done)
          in
          let threads = List.init 4 (fun k -> Thread.create client_thread k) in
          List.iter Thread.join threads;
          Alcotest.(check int)
            "every concurrent answer equals the engine's" 0
            (Atomic.get failures);
          (* and the one-shot CLI on the same database file *)
          let cli_code, out = run_ldb [ "query"; db_path; List.hd parity_queries ] in
          Alcotest.(check int) "one-shot exit 0" 0 cli_code;
          let cli_rows =
            String.split_on_char '\n' out
            |> List.filter (fun l -> l <> "" && l.[0] <> '(')
            |> List.map (fun l ->
                   String.split_on_char ',' l |> List.map String.trim)
            |> List.sort compare
          in
          with_client socket (fun c ->
              Alcotest.(check (list (list string)))
                "served rows equal one-shot ldb query rows" cli_rows
                (rows (query c "g" (List.hd parity_queries))))))

(* --- mutations on resident databases ------------------------------- *)

let insert c db fact =
  rpc c (op "insert" [ ("db", J.Str db); ("fact", J.Str fact) ])

let retract c db fact =
  rpc c (op "retract" [ ("db", J.Str db); ("fact", J.Str fact) ])

let close_unknown ?to_ c db left right =
  let base = [ ("db", J.Str db); ("left", J.Str left); ("right", J.Str right) ] in
  let fields =
    match to_ with None -> base | Some v -> base @ [ ("to", J.Str v) ]
  in
  rpc c (op "close_unknown" fields)

let delta_of resp =
  match J.num_field "delta" resp with
  | Some d -> int_of_float d
  | None -> Alcotest.failf "response without delta: %s" (J.to_string resp)

let test_mutations () =
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun c ->
              check_code "load" "ok" (load c "g" db_path);
              let q = "(x, y). TEACHES(x, y)" in
              let r = query c "g" q in
              Alcotest.(check int) "queries report the delta epoch" 0
                (delta_of r);
              (* insert: answers change, the delta epoch moves, and the
                 plan cache re-binds exactly once *)
              let r = insert c "g" "TEACHES(mystery, socrates)" in
              check_code "insert ok" "ok" r;
              Alcotest.(check int) "insert bumps the delta" 1 (delta_of r);
              Alcotest.(check (option (float 0.)))
                "fact counted" (Some 2.) (J.num_field "facts" r);
              let r = query c "g" q in
              Alcotest.(check (list (list string)))
                "query sees the inserted fact"
                [ [ "mystery"; "socrates" ]; [ "socrates"; "plato" ] ]
                (rows r);
              Alcotest.(check int) "query reports the new delta" 1 (delta_of r);
              Alcotest.(check (option string))
                "mutation invalidated the cached plan" (Some "miss")
                (J.str_field "cache" r);
              Alcotest.(check (option string))
                "re-binding happens once per delta" (Some "hit")
                (J.str_field "cache" (query c "g" q));
              (* retract restores the original answers *)
              let r = retract c "g" "TEACHES(mystery, socrates)" in
              check_code "retract ok" "ok" r;
              Alcotest.(check int) "retract bumps the delta" 2 (delta_of r);
              Alcotest.(check (list (list string)))
                "query sees the retraction"
                [ [ "socrates"; "plato" ] ]
                (rows (query c "g" q));
              (* closing unknowns: distinct prunes, equal merges *)
              let r = close_unknown ~to_:"distinct" c "g" "socrates" "mystery" in
              check_code "close to distinct ok" "ok" r;
              Alcotest.(check int) "distinct bumps the delta" 3 (delta_of r);
              let r = close_unknown ~to_:"equal" c "g" "plato" "mystery" in
              check_code "close to equal ok" "ok" r;
              Alcotest.(check (option (float 0.)))
                "merge dropped a constant" (Some 2.)
                (J.num_field "constants" r);
              Alcotest.(check (list (list string)))
                "answers survive the merge"
                [ [ "socrates"; "plato" ] ]
                (rows (query c "g" q));
              (* the error taxonomy for mutations *)
              check_code "fact syntax error" "parse_error"
                (insert c "g" "((");
              check_code "non-ground fact" "semantic_error"
                (insert c "g" "TEACHES(x, plato)");
              check_code "unknown predicate" "semantic_error"
                (insert c "g" "NOPE(socrates)");
              check_code "retracting an absent fact" "semantic_error"
                (retract c "g" "TEACHES(plato, plato)");
              check_code "unknown database" "semantic_error"
                (insert c "nope" "TEACHES(socrates, plato)");
              check_code "bad to value" "semantic_error"
                (close_unknown ~to_:"sideways" c "g" "socrates" "plato");
              check_code "missing to field" "parse_error"
                (close_unknown c "g" "socrates" "plato");
              check_code "merging a distinct pair" "semantic_error"
                (close_unknown ~to_:"equal" c "g" "socrates" "plato");
              (* per-session counters surface in stats *)
              let stats = rpc c (op "stats" []) in
              match J.member "sessions" stats with
              | Some sessions -> (
                match J.member "g" sessions with
                | Some s ->
                  Alcotest.(check (option (float 0.)))
                    "session delta in stats" (Some 4.) (J.num_field "delta" s)
                | None -> Alcotest.fail "stats sessions without db g")
              | None -> Alcotest.fail "stats without sessions")))

(* The mutation script, step by step: every ack reports its step's
   fact count and delta epoch (a re-insert of a present fact is a
   no-op and reports the previous ones again), malformed and absent
   facts answer their error codes, and the final rows equal the
   one-shot pipeline's (ldb mutate, then ldb query on the file). *)
let test_mutation_cli_parity () =
  with_db (fun db_path ->
      let q = "(x, y). TEACHES(x, y)" in
      let mystery = "TEACHES(mystery, socrates)" in
      let mutated = Filename.temp_file "ldb_serve" ".ldb" in
      Fun.protect
        ~finally:(fun () -> Sys.remove mutated)
        (fun () ->
          let code, _ =
            run_ldb
              [
                "mutate"; db_path; "--insert"; mystery; "--distinct";
                "socrates,mystery"; "--output"; mutated;
              ]
          in
          Alcotest.(check int) "ldb mutate exit 0" 0 code;
          let code, out = run_ldb [ "query"; mutated; q ] in
          Alcotest.(check int) "one-shot query exit 0" 0 code;
          let cli_rows =
            String.split_on_char '\n' out
            |> List.filter (fun l -> l <> "" && l.[0] <> '(')
            |> List.map (fun l ->
                   String.split_on_char ',' l |> List.map String.trim)
            |> List.sort compare
          in
          with_server (fun socket ->
              with_client socket (fun c ->
                  let ack label ~facts ?delta resp =
                    check_code label "ok" resp;
                    Alcotest.(check (option (float 0.)))
                      (label ^ ": facts")
                      (Some (float_of_int facts))
                      (J.num_field "facts" resp);
                    Option.iter
                      (fun d -> Alcotest.(check int) (label ^ ": delta") d
                          (delta_of resp))
                      delta
                  in
                  ack "load" ~facts:1 (load c "g" db_path);
                  check_code "probe" "ok" (query c "g" q);
                  ack "insert" ~facts:2 ~delta:1 (insert c "g" mystery);
                  ack "insert (round trip)" ~facts:3 ~delta:2
                    (insert c "g" "TEACHES(plato, mystery)");
                  ack "retract (round trip)" ~facts:2 ~delta:3
                    (retract c "g" "TEACHES(plato, mystery)");
                  ack "close to distinct" ~facts:2 ~delta:4
                    (close_unknown ~to_:"distinct" c "g" "socrates" "mystery");
                  ack "re-insert is a no-op" ~facts:2 ~delta:4
                    (insert c "g" mystery);
                  check_code "malformed fact" "parse_error" (insert c "g" "((");
                  check_code "absent retract" "semantic_error"
                    (retract c "g" "TEACHES(plato, plato)");
                  Alcotest.(check (list (list string)))
                    "served rows equal mutate-then-query rows" cli_rows
                    (rows (query c "g" q))))))

(* --- plan-cache counters ------------------------------------------- *)

let test_plan_cache () =
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun c ->
              check_code "load" "ok" (load c "g" db_path);
              let q = "(x). exists y. TEACHES(x, y)" in
              let cache r =
                match J.str_field "cache" r with
                | Some v -> v
                | None ->
                  Alcotest.failf "response without a cache field: %s"
                    (J.to_string r)
              in
              Alcotest.(check string)
                "first compile misses" "miss"
                (cache (query c "g" q));
              Alcotest.(check string)
                "repeat hits" "hit"
                (cache (query c "g" q));
              Alcotest.(check string)
                "the kernel name is not part of the key" "hit"
                (cache (query ~extra:[ ("kernel", J.Str "strings") ] c "g" q));
              check_code "reload" "ok" (load c "g" db_path);
              Alcotest.(check string)
                "reload bumps the generation and invalidates" "miss"
                (cache (query c "g" q));
              let stats = rpc c (op "stats" []) in
              let counter k =
                match J.member "plan_cache" stats with
                | Some obj ->
                  (match J.num_field k obj with
                  | Some n -> int_of_float n
                  | None -> Alcotest.failf "plan_cache without %s" k)
                | None -> Alcotest.fail "stats without plan_cache"
              in
              Alcotest.(check int) "hits counted" 2 (counter "hits");
              Alcotest.(check int) "misses counted" 2 (counter "misses");
              Alcotest.(check int) "no reset below capacity" 0
                (counter "resets");
              Alcotest.(check int) "two plans resident" 2 (counter "entries"))))

(* A full table is emptied to admit a new plan; each such reset is
   counted in [stats] and as [serve.plan_cache.reset]. Re-admitting a
   resident key at capacity resets nothing. *)
let test_plan_cache_resets () =
  let cache = Plan_cache.create ~capacity:2 () in
  let db =
    database ~predicates:[ ("P", 1) ] ~constants:[ "a"; "b" ]
      ~facts:[ ("P", [ "a" ]) ] ()
  in
  let admit text =
    ignore
      (Plan_cache.find_or_prepare cache ~db_name:"g" ~generation:0 ~delta:0
         ~query_text:text (fun () -> Certain.prepare db (Parser.query text)))
  in
  let buf = Obs.buffer () in
  Obs.with_sink (Obs.buffer_sink buf) (fun () ->
      admit "(x). P(x)";
      admit "(x). ~P(x)";
      admit "(). exists x. P(x)";
      admit "(). forall x. P(x)");
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "one reset per overflow" 1 st.Plan_cache.resets;
  Alcotest.(check int) "the admitting plan survives the reset" 2
    st.Plan_cache.entries;
  Alcotest.(check (option int))
    "the reset counter" (Some 1)
    (List.assoc_opt "serve.plan_cache.reset"
       (Obs.counter_totals (Obs.events buf)))

(* --- busy / backpressure ------------------------------------------- *)

let test_busy_backpressure () =
  with_server ~workers:1 ~queue:1 ~debug_sleep:true (fun socket ->
      let sleep_req c ms = rpc c (op "sleep" [ ("ms", J.Num ms) ]) in
      let c1 = Client.connect_retry socket in
      let c2 = Client.connect_retry socket in
      let c3 = Client.connect_retry socket in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close [ c1; c2; c3 ])
        (fun () ->
          let r1 = ref J.Null and r2 = ref J.Null in
          (* First request occupies the single worker, second fills the
             one-slot queue, third must be rejected immediately. *)
          let t1 = Thread.create (fun () -> r1 := sleep_req c1 800.) () in
          Thread.delay 0.2;
          let t2 = Thread.create (fun () -> r2 := sleep_req c2 800.) () in
          Thread.delay 0.2;
          check_code "full queue rejects with busy" "busy" (sleep_req c3 10.);
          Thread.join t1;
          Thread.join t2;
          check_code "in-flight request still completed" "ok" !r1;
          check_code "queued request still completed" "ok" !r2))

(* Same contention setup, but the third client retries through the
   busy window instead of giving up: request_retry resends (busy means
   the request was never admitted, so resending is safe even for
   mutations) with growing jittered backoff until a slot frees up. *)
let test_busy_retry () =
  with_server ~workers:1 ~queue:1 ~debug_sleep:true (fun socket ->
      let sleep_req c ms = rpc c (op "sleep" [ ("ms", J.Num ms) ]) in
      let c1 = Client.connect_retry socket in
      let c2 = Client.connect_retry socket in
      let c3 = Client.connect_retry socket in
      Fun.protect
        ~finally:(fun () -> List.iter Client.close [ c1; c2; c3 ])
        (fun () ->
          let t1 = Thread.create (fun () -> ignore (sleep_req c1 600.)) () in
          Thread.delay 0.2;
          let t2 = Thread.create (fun () -> ignore (sleep_req c2 600.)) () in
          Thread.delay 0.2;
          check_code "without retries the full queue answers busy" "busy"
            (sleep_req c3 10.);
          check_code "with retries the request lands once a slot frees" "ok"
            (Client.request_retry ~retries:8 ~backoff_ms:50 c3
               (J.Obj (op "sleep" [ ("ms", J.Num 10.) ])));
          Thread.join t1;
          Thread.join t2))

(* --- stale sockets -------------------------------------------------- *)

let test_stale_socket () =
  (* A dead socket file — left by a kill -9 — is probed (connect gets
     ECONNREFUSED) and silently replaced. *)
  let path = temp_socket () in
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  Alcotest.(check bool) "dead socket file is on disk" true
    (Sys.file_exists path);
  with_db (fun db_path ->
      let config =
        {
          Serve.default_config with
          socket_path = path;
          preload = [ ("g", db_path) ];
        }
      in
      let server = Thread.create (fun () -> Serve.run config) () in
      Fun.protect
        ~finally:(fun () ->
          (try
             let c = Client.connect_retry path in
             ignore (Client.request c (J.Obj [ ("op", J.Str "shutdown") ]));
             Client.close c
           with _ -> ());
          Thread.join server;
          if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let c = Client.connect_retry path in
          check_code "server replaced the dead socket and serves" "ok"
            (query c "g" "(x, y). TEACHES(x, y)");
          Client.close c));
  (* A live socket — another server instance — must be refused, not
     hijacked: the exe exits 2 without disturbing the running one. *)
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun c ->
              check_code "first server up" "ok" (load c "g" db_path);
              let code, _ = run_ldb [ "serve"; "--socket"; socket ] in
              Alcotest.(check int) "second server refused with exit 2" 2 code;
              check_code "first server undisturbed" "ok"
                (query c "g" "(x, y). TEACHES(x, y)"))));
  (* A path that exists but is not a socket is never deleted. *)
  let regular = Filename.temp_file "ldb_serve" ".notasock" in
  Fun.protect
    ~finally:(fun () -> Sys.remove regular)
    (fun () ->
      let code, _ = run_ldb [ "serve"; "--socket"; regular ] in
      Alcotest.(check int) "non-socket path refused with exit 2" 2 code;
      Alcotest.(check bool) "and left in place" true (Sys.file_exists regular))

(* --- per-request budgets ------------------------------------------- *)

let test_budget_exhausted () =
  with_db (fun db_path ->
      with_server (fun socket ->
          with_client socket (fun c ->
              check_code "load" "ok" (load c "g" db_path);
              (* Certainly true, so the countermodel search must visit
                 every structure — a one-structure cap always trips. *)
              let q = "(). TEACHES(socrates, plato)" in
              let capped = [ ("max_structures", J.Num 1.) ] in
              let r = boolean ~extra:capped c "g" q in
              check_code "cap trips under the default fail policy"
                "exhausted" r;
              Alcotest.(check bool)
                "trip records its cause" true
                (J.str_field "tripped" r <> None);
              let r =
                boolean
                  ~extra:(("policy", J.Str "partial") :: capped)
                  c "g" q
              in
              check_code "partial degrades instead of failing" "ok" r;
              (match J.str_field "qualified" r with
              | Some ("lower_bound" | "upper_bound") -> ()
              | other ->
                Alcotest.failf "partial answer not qualified as a bound: %s"
                  (Option.value ~default:"<none>" other));
              (* an uncapped request on the same connection is unaffected *)
              let r = boolean c "g" q in
              check_code "next request runs unbudgeted" "ok" r;
              Alcotest.(check (option string))
                "and is exact again" (Some "exact")
                (J.str_field "qualified" r))))

(* --- trace-file integrity on error exit paths ---------------------- *)

(* Every line of a --trace=json:FILE trace must parse as one JSON
   object, also when the process left through a non-zero exit after
   events were already buffered (the at_exit flush in bin/ldb). *)
let check_trace_wellformed ?(expect_events = false) path =
  let ic = open_in path in
  let lines = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            incr lines;
            match J.parse line with
            | J.Obj _ -> ()
            | _ -> Alcotest.failf "trace line is not an object: %s" line
            | exception J.Parse_error msg ->
              Alcotest.failf "unparseable trace line (%s): %s" msg line
          end
        done
      with End_of_file -> ());
  if expect_events then
    Alcotest.(check bool) "trace recorded events" true (!lines > 0)

let test_trace_flush_on_exit () =
  with_db (fun db_path ->
      let trace = Filename.temp_file "ldb_serve" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove trace)
        (fun () ->
          (* exit 124: the budget trips after the resilience layer has
             already emitted span and counter events *)
          let cli_code, _ =
            run_ldb
              [
                "query"; db_path; "(). TEACHES(socrates, plato)";
                "--max-structures"; "1"; "--on-budget"; "fail";
                "--trace"; "json:" ^ trace;
              ]
          in
          Alcotest.(check int) "budget exit" 124 cli_code;
          check_trace_wellformed ~expect_events:true trace;
          (* exit 2: error path still leaves a well-formed (possibly
             empty) closed trace *)
          let cli_code, _ =
            run_ldb [ "query"; db_path; "(("; "--trace"; "json:" ^ trace ]
          in
          Alcotest.(check int) "usage exit" 2 cli_code;
          check_trace_wellformed trace))

(* --- a spawned daemon: concurrent mixed load, clean shutdown ------- *)

(* Starts ../bin/ldb.exe with [args] in the background, its standard
   streams on /dev/null, and returns its pid. *)
let spawn_ldb args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null_in null_out
      null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  pid

let mixed_queries =
  [|
    ("query", "(x). (exists y. R(x, y)) /\\ ~P(x)");
    ("query", "(x). exists y. R(x, y) /\\ P(y)");
    ("query", "(x). ~P(x)");
    ("boolean", "(). exists x. ~P(x) /\\ (exists y. R(x, y))");
  |]

(* Client [k]'s 25 requests to database "w" of the daemon at [socket],
   cycling through [mixed_queries]; an ok answer to query [j] must
   carry [expected.(j)]. Client 0 also sends one non-JSON line
   (parse_error) and one request capped at a single structure
   (exhausted). Returns the failures, as messages. *)
let mixed_client socket expected k =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let request c i =
    if k = 0 && i = 0 then ("parse_error", Client.request_line c "not json")
    else if k = 0 && i = 1 then
      ( "exhausted",
        query ~extra:[ ("max_structures", J.Num 1.) ] c "w"
          (snd mixed_queries.(0)) )
    else
      let j = (k + i) mod Array.length mixed_queries in
      let verb, text = mixed_queries.(j) in
      let resp = rpc c (op verb [ ("db", J.Str "w"); ("query", J.Str text) ]) in
      let good =
        match expected.(j) with
        | `Value v -> J.bool_field "value" resp = Some v
        | `Rows r -> rows resp = r
      in
      if not good then
        fail (Printf.sprintf "wrong answer to %s: %s" text (J.to_string resp));
      ("ok", resp)
  in
  (try
     let c = Client.connect_retry socket in
     Fun.protect
       ~finally:(fun () -> Client.close c)
       (fun () ->
         for i = 0 to 24 do
           let want, resp = request c i in
           if code resp <> want then
             fail
               (Printf.sprintf "expected %s, got %s" want (J.to_string resp))
         done)
   with e -> fail (Printexc.to_string e));
  !failures

(* 8 clients x 25 requests against a real daemon (2 workers, a queue
   of 64) over a 12-constant, 2-unknown database, every ok answer
   checked against the engine in-process. Then shutdown must end the
   process with exit 0, reached only after every worker domain is
   joined, and remove the socket file. *)
let test_spawned_mixed_load () =
  let db =
    Vardi_experiments.Workloads.parametric_db ~constants:12 ~unknowns:2 ~seed:7
  in
  let expected =
    Array.map
      (fun (verb, text) ->
        let q = Parser.query text in
        if verb = "boolean" then `Value (Certain.certain_boolean db q)
        else `Rows (Relation.tuples (Certain.answer db q) |> List.sort compare))
      mixed_queries
  in
  with_db ~db (fun db_path ->
      let socket = temp_socket () in
      let pid =
        spawn_ldb
          [ "serve"; "--socket"; socket; "--workers"; "2"; "--queue"; "64" ]
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          if Sys.file_exists socket then Sys.remove socket)
        (fun () ->
          let setup = Client.connect_retry socket in
          check_code "load" "ok" (load setup "w" db_path);
          let failures = Array.make 8 [] in
          List.init 8 (fun k ->
              Thread.create
                (fun () -> failures.(k) <- mixed_client socket expected k)
                ())
          |> List.iter Thread.join;
          Alcotest.(check (list string)) "every response as expected" []
            (List.concat (Array.to_list failures));
          check_code "shutdown" "ok" (rpc setup (op "shutdown" []));
          Client.close setup;
          Alcotest.(check int) "clean shutdown exits 0" 0 (wait_exit pid);
          Alcotest.(check bool)
            "teardown removed the socket file" false (Sys.file_exists socket)))

(* --- SIGINT: exit 130 with every domain joined --------------------- *)

let test_serve_sigint () =
  with_db (fun db_path ->
      let socket = temp_socket () in
      let trace = Filename.temp_file "ldb_serve" ".trace" in
      let pid =
        spawn_ldb
          [
            "serve"; "--socket"; socket; "--debug-sleep"; "--db";
            "g=" ^ db_path; "--trace"; "json:" ^ trace;
          ]
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          if Sys.file_exists socket then Sys.remove socket;
          Sys.remove trace)
        (fun () ->
          let c = Client.connect_retry socket in
          check_code "preloaded database answers" "ok"
            (query c "g" "(x, y). TEACHES(x, y)");
          (* Park a request on the worker pool, then interrupt the
             server mid-service. *)
          let in_flight =
            Thread.create
              (fun () ->
                try ignore (rpc c (op "sleep" [ ("ms", J.Num 1500.) ]))
                with _ -> ())
              ()
          in
          Thread.delay 0.3;
          Unix.kill pid Sys.sigint;
          let exit_code = wait_exit pid in
          Thread.join in_flight;
          (try Client.close c with _ -> ());
          Alcotest.(check int) "SIGINT exits 130" 130 exit_code;
          (* Teardown ran: the socket file is gone (it is removed after
             the pool's domains are joined, so its absence also pins
             the join) and the trace was flushed and closed whole. *)
          Alcotest.(check bool)
            "teardown removed the socket file" false
            (Sys.file_exists socket);
          check_trace_wellformed ~expect_events:true trace))

let suite =
  [
    Alcotest.test_case "protocol round-trips and error codes" `Quick
      test_roundtrip;
    Alcotest.test_case "concurrent clients match engine and one-shot CLI"
      `Quick test_concurrent_parity;
    Alcotest.test_case "mutations: ops, errors, epochs, invalidation" `Quick
      test_mutations;
    Alcotest.test_case "serve mutations match mutate-then-query CLI" `Quick
      test_mutation_cli_parity;
    Alcotest.test_case "plan cache: hit/miss/invalidate counters" `Quick
      test_plan_cache;
    Alcotest.test_case "full queue answers busy" `Quick test_busy_backpressure;
    Alcotest.test_case "request_retry rides out the busy window" `Quick
      test_busy_retry;
    Alcotest.test_case "stale sockets: dead replaced, live and files refused"
      `Quick test_stale_socket;
    Alcotest.test_case "per-request budget trips to exhausted" `Quick
      test_budget_exhausted;
    Alcotest.test_case "trace files are well-formed on error exits" `Quick
      test_trace_flush_on_exit;
    Alcotest.test_case "spawned daemon: 8 clients x 25 mixed, clean shutdown"
      `Quick test_spawned_mixed_load;
    Alcotest.test_case "SIGINT mid-service exits 130, domains joined" `Quick
      test_serve_sigint;
    Alcotest.test_case "plan cache: a full table's reset is counted" `Quick
      test_plan_cache_resets;
  ]
