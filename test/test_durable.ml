(* Durability and crash recovery: WAL framing and scanning, torn-tail
   truncation at every byte boundary, mid-log corruption refusal,
   snapshot/recovery edge cases, directed fault injection, the
   `ldb recover` CLI against the checked-in corpus, and the daemon
   end-to-end paths — kill -9 replay, restart recovery and SIGTERM
   drain. The library-level tests drive Wal / Snapshot / Recovery /
   Durable_store directly; the daemon tests spawn ../bin/ldb.exe. *)

open Logicaldb
module Session = Incr_session
module Store = Durable_store
module J = Serve_json
module Client = Serve_client

let exe = "../bin/ldb.exe"

(* --- harness -------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "ldb_durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let run_ldb args =
  let out_file = Filename.temp_file "ldb_durable" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_file)
    (fun () ->
      let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let null_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) null_in out
          null_err
      in
      Unix.close null_in;
      Unix.close out;
      Unix.close null_err;
      let _, status = Unix.waitpid [] pid in
      let code =
        match status with
        | Unix.WEXITED n -> n
        | Unix.WSIGNALED n -> Alcotest.failf "killed by signal %d" n
        | Unix.WSTOPPED n -> Alcotest.failf "stopped by signal %d" n
      in
      let ic = open_in out_file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let seed_db () = Support.socrates_db ()

let fact pred args = { Cw_database.pred; args }
let ins pred args = Session.Insert (fact pred args)
let db_equal = Alcotest.testable Cw_database.pp Cw_database.equal

(* A deterministic 4-record script over the socrates vocabulary,
   exercising every WAL tag: insert, retract, close-distinct,
   close-equal (merge). *)
let script =
  [
    ins "TEACHES" [ "mystery"; "socrates" ];
    Session.Retract (fact "TEACHES" [ "socrates"; "plato" ]);
    Session.Close { left = "socrates"; right = "mystery"; equal = false };
    Session.Close { left = "plato"; right = "mystery"; equal = true };
  ]

let apply_script db ms =
  let s = Session.create db in
  List.iter (fun m -> ignore (Session.apply s m)) ms;
  s

(* --- WAL framing ---------------------------------------------------- *)

let test_wal_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Wal.path dir in
      let w = Wal.open_ ~sync:Wal.Always path in
      List.iteri (fun i m -> Wal.append w ~seq:(i + 1) m) script;
      let counters = Wal.counters w in
      Alcotest.(check int) "appends counted" 4 counters.Wal.c_appends;
      Alcotest.(check bool) "every append fsynced" true
        (counters.Wal.c_fsyncs >= 4);
      Wal.close w;
      let scan = Wal.scan path in
      Alcotest.(check int) "all records scanned" 4
        (List.length scan.Wal.entries);
      Alcotest.(check int) "no torn tail" 0 scan.Wal.torn;
      Alcotest.(check (list int)) "sequence numbers are contiguous"
        [ 1; 2; 3; 4 ]
        (List.map (fun e -> e.Wal.e_seq) scan.Wal.entries);
      List.iter2
        (fun m e ->
          Alcotest.(check bool) "mutation round-trips" true
            (m = e.Wal.e_mutation))
        script scan.Wal.entries;
      (* a missing file scans as an empty, clean log *)
      let empty = Wal.scan (Filename.concat dir "absent.log") in
      Alcotest.(check int) "missing file: no entries" 0
        (List.length empty.Wal.entries))

let test_wal_torn_every_byte () =
  with_temp_dir (fun dir ->
      let path = Wal.path dir in
      let w = Wal.open_ ~sync:Wal.Always path in
      List.iteri (fun i m -> Wal.append w ~seq:(i + 1) m) script;
      Wal.close w;
      let full = Wal.scan path in
      let last = List.nth full.Wal.entries 3 in
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* Truncate the file at every byte inside the final record: the
         scan must keep exactly the first three records and flag the
         remainder as torn — never raise, never resurrect a partial
         record. *)
      let torn_path = Filename.concat dir "torn.log" in
      for cut = last.Wal.e_off to String.length whole - 1 do
        Out_channel.with_open_bin torn_path (fun oc ->
            Out_channel.output_string oc (String.sub whole 0 cut));
        let scan = Wal.scan torn_path in
        Alcotest.(check int)
          (Printf.sprintf "cut at byte %d keeps 3 records" cut)
          3
          (List.length scan.Wal.entries);
        Alcotest.(check int)
          (Printf.sprintf "cut at byte %d: good ends at the boundary" cut)
          last.Wal.e_off scan.Wal.good;
        Alcotest.(check int)
          (Printf.sprintf "cut at byte %d: tail is torn" cut)
          (cut - last.Wal.e_off) scan.Wal.torn;
        (* truncation repairs it *)
        Wal.truncate_torn torn_path ~good:scan.Wal.good;
        let clean = Wal.scan torn_path in
        Alcotest.(check int) "truncated log is clean" 0 clean.Wal.torn
      done)

let test_wal_midlog_corrupt () =
  with_temp_dir (fun dir ->
      let path = Wal.path dir in
      let w = Wal.open_ ~sync:Wal.Always path in
      List.iteri (fun i m -> Wal.append w ~seq:(i + 1) m) script;
      Wal.close w;
      let full = Wal.scan path in
      let first = List.hd full.Wal.entries in
      let last = List.nth full.Wal.entries 3 in
      (* Flip a payload bit of record 1: its CRC fails with intact
         records after it — that is not a torn tail, it is lost
         acknowledged history, and the scan must refuse. *)
      let payload_bit = (first.Wal.e_off + 4 + 8) * 8 + 3 in
      Wal.corrupt path ~bit:payload_bit;
      (match Wal.scan path with
      | exception Wal.Corrupt { offset; _ } ->
        Alcotest.(check int) "corruption located at record 1" first.Wal.e_off
          offset
      | _ -> Alcotest.fail "mid-log corruption not detected");
      Wal.corrupt path ~bit:payload_bit (* flip back *);
      Alcotest.(check int) "repaired log scans whole" 4
        (List.length (Wal.scan path).Wal.entries);
      (* The same flip in the FINAL record is indistinguishable from a
         torn tail and is treated as one. *)
      let final_bit = (last.Wal.e_off + 4 + 8) * 8 + 3 in
      Wal.corrupt path ~bit:final_bit;
      let scan = Wal.scan path in
      Alcotest.(check int) "final-record damage keeps the prefix" 3
        (List.length scan.Wal.entries);
      Alcotest.(check bool) "and reports a torn tail" true (scan.Wal.torn > 0))

(* --- recovery edges -------------------------------------------------- *)

let test_recovery_edges () =
  let db = seed_db () in
  (* empty WAL: a store that never committed recovers to its seed *)
  with_temp_dir (fun dir ->
      let store = Store.create ~dir db in
      Store.abandon store;
      let r = Recovery.recover dir in
      Alcotest.check db_equal "empty log recovers the seed" db
        (Session.db r.Recovery.r_session);
      Alcotest.(check int) "seq 0" 0 r.Recovery.r_seq;
      Alcotest.(check int) "nothing replayed" 0 r.Recovery.r_replayed);
  (* snapshot-only: after a checkpoint the log is empty and recovery
     reads state from the snapshot alone *)
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:0 db in
      List.iter (fun m -> ignore (Store.commit store m)) script;
      Store.checkpoint store;
      Store.abandon store;
      let r = Recovery.recover dir in
      Alcotest.(check int) "snapshot carries the whole history" 4
        r.Recovery.r_snapshot_seq;
      Alcotest.(check int) "nothing replayed" 0 r.Recovery.r_replayed;
      Alcotest.check db_equal "snapshot-only state"
        (Session.db (apply_script db script))
        (Session.db r.Recovery.r_session);
      Alcotest.(check int) "delta epoch survives the checkpoint"
        (Session.delta_epoch (apply_script db script))
        r.Recovery.r_delta);
  (* auto-checkpoint: snapshot_every=2 checkpoints mid-script, recovery
     composes snapshot + log tail *)
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:2 db in
      List.iter (fun m -> ignore (Store.commit store m)) script;
      ignore (Store.commit store (ins "TEACHES" [ "plato"; "plato" ]));
      Alcotest.(check bool) "auto-checkpoint fired" true
        (Store.snapshots store >= 2);
      Store.abandon store;
      let r = Recovery.recover dir in
      Alcotest.(check int) "recovered through snapshot and tail" 5
        r.Recovery.r_seq;
      Alcotest.(check bool) "tail shorter than the script" true
        (r.Recovery.r_replayed < 5);
      Alcotest.check db_equal "composed state"
        (Session.db
           (apply_script db (script @ [ ins "TEACHES" [ "plato"; "plato" ] ])))
        (Session.db r.Recovery.r_session))

(* closing socrates|plato as distinct is a no-op: TEACHES(socrates,
   plato) already separates them under the unique-name reading *)
let already_distinct =
  Session.Close { left = "socrates"; right = "plato"; equal = false }

let test_noops_and_invalid () =
  let db = seed_db () in
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:0 db in
      (* no-op mutations are acknowledged but never logged: replaying
         them would bump the delta epoch recovery must not invent *)
      let before = (Store.wal_counters store).Wal.c_appends in
      (match Store.commit store (ins "TEACHES" [ "socrates"; "plato" ]) with
      | `Noop -> ()
      | `Applied _ -> Alcotest.fail "inserting a present fact applied");
      ignore (Store.commit store already_distinct);
      Alcotest.(check int) "no-ops not logged" before
        (Store.wal_counters store).Wal.c_appends;
      Alcotest.(check int) "no-ops do not advance seq" 0 (Store.seq store);
      (* invalid mutations raise and leave no trace in the log *)
      (match Store.commit store (Session.Retract (fact "TEACHES" [ "plato"; "socrates" ])) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "retracting an absent fact succeeded");
      Alcotest.(check int) "failed commits not logged" before
        (Store.wal_counters store).Wal.c_appends;
      Store.abandon store;
      let r = Recovery.recover dir in
      Alcotest.(check int) "recovered seq 0" 0 r.Recovery.r_seq;
      Alcotest.(check int) "recovered delta 0" 0 r.Recovery.r_delta)

let test_sync_modes () =
  List.iter
    (fun (s, name) ->
      Alcotest.(check (option string))
        ("sync mode " ^ name ^ " round-trips") (Some name)
        (Option.map Wal.sync_to_string (Wal.sync_of_string name));
      Alcotest.(check bool) "to_string agrees" true
        (String.equal (Wal.sync_to_string s) name))
    [ (Wal.Always, "always"); (Wal.Batch, "batch"); (Wal.Never, "never") ];
  Alcotest.(check bool) "unknown mode rejected" true
    (Wal.sync_of_string "sometimes" = None);
  let db = seed_db () in
  List.iter
    (fun sync ->
      with_temp_dir (fun dir ->
          let store = Store.create ~dir ~sync ~snapshot_every:0 db in
          List.iter (fun m -> ignore (Store.commit store m)) script;
          Store.flush store;
          (if sync <> Wal.Never then
             Alcotest.(check bool) "flush fsynced" true
               ((Store.wal_counters store).Wal.c_fsyncs >= 1));
          Store.close store;
          let r = Recovery.recover dir in
          Alcotest.check db_equal
            ("recovery under sync=" ^ Wal.sync_to_string sync)
            (Session.db (apply_script db script))
            (Session.db r.Recovery.r_session)))
    [ Wal.Always; Wal.Batch; Wal.Never ]

let test_merge_distinct_replay () =
  let db = seed_db () in
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:0 db in
      List.iter (fun m -> ignore (Store.commit store m)) script;
      Store.abandon store;
      let r = Recovery.recover dir in
      let expected = apply_script db script in
      Alcotest.check db_equal "merge and distinct replay"
        (Session.db expected)
        (Session.db r.Recovery.r_session);
      Alcotest.(check int) "delta epochs agree"
        (Session.delta_epoch expected)
        r.Recovery.r_delta;
      (* the merged constant is really gone from the recovered state *)
      Alcotest.(check bool) "merge dropped the constant" false
        (List.mem "mystery"
           (Cw_database.constants (Session.db r.Recovery.r_session))))

let test_name_encoding () =
  List.iter
    (fun name ->
      let e = Recovery.encode_name name in
      Alcotest.(check string) ("round-trip " ^ String.escaped name) name
        (Recovery.decode_name e);
      Alcotest.(check bool) "encoded name has no separators" false
        (String.contains e '/'))
    [ "g"; "my db"; "a/b"; ".hidden"; "caf\xc3\xa9"; "x%20y"; "UPPER_low.9-" ];
  with_temp_dir (fun data_dir ->
      let db = seed_db () in
      List.iter
        (fun name ->
          let dir = Recovery.db_dir ~data_dir ~name in
          ignore (Store.create ~dir db))
        [ "beta"; "a/b"; "alpha" ];
      Alcotest.(check (list string)) "list decodes and sorts"
        [ "a/b"; "alpha"; "beta" ]
        (Recovery.list ~data_dir))

let test_directed_append_crash () =
  let db = seed_db () in
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:0 db in
      ignore (Store.commit store (List.hd script));
      (* rate 1.0: the very next fault point — wal.append, before any
         byte is written — fires. The in-flight mutation must not
         survive recovery. *)
      (match
         Faults.with_faults ~seed:7 ~rate:1.0 (fun () ->
             Store.commit store (List.nth script 1))
       with
      | exception Faults.Injected "wal.append" -> ()
      | exception Faults.Injected p -> Alcotest.failf "unexpected point %s" p
      | _ -> Alcotest.fail "fault plan at rate 1.0 did not fire");
      Store.abandon store;
      let r = Recovery.recover dir in
      Alcotest.(check int) "only the acknowledged commit survives" 1
        r.Recovery.r_seq;
      Alcotest.check db_equal "crashed mutation absent"
        (Session.db (apply_script db [ List.hd script ]))
        (Session.db r.Recovery.r_session))

let test_recovery_kernel_parity () =
  let db = seed_db () in
  with_temp_dir (fun dir ->
      let store = Store.create ~dir ~snapshot_every:0 db in
      List.iter (fun m -> ignore (Store.commit store m)) script;
      Store.abandon store;
      let r = Recovery.recover dir in
      let q = Parser.query "(x, y). TEACHES(x, y)" in
      let reference =
        Fuzz_reference.answer (Session.db r.Recovery.r_session) q
      in
      let got, _ =
        Certain.prepared_answer_stats (Session.prepare r.Recovery.r_session q)
      in
      Alcotest.check Support.relation_testable
        "recovered session answers as the reference does" reference got)

(* --- the recover CLI and the checked-in corpus ---------------------- *)

let test_recover_cli () =
  let db = seed_db () in
  with_temp_dir (fun data_dir ->
      let dir = Recovery.db_dir ~data_dir ~name:"g" in
      let store = Store.create ~dir ~snapshot_every:0 db in
      List.iter (fun m -> ignore (Store.commit store m)) script;
      Store.abandon store;
      (* verify is read-only: the log keeps its records *)
      let code, out = run_ldb [ "recover"; data_dir; "--verify" ] in
      Alcotest.(check int) "verify exits 0" 0 code;
      Alcotest.(check bool) "verify reports the database" true
        (String.length out > 0);
      Alcotest.(check int) "verify left the log alone" 4
        (List.length (Wal.scan (Wal.path dir)).Wal.entries);
      (* recover compacts: replayed records move into the snapshot *)
      let code, _ = run_ldb [ "recover"; data_dir ] in
      Alcotest.(check int) "recover exits 0" 0 code;
      Alcotest.(check int) "recover compacted the log" 0
        (List.length (Wal.scan (Wal.path dir)).Wal.entries);
      Alcotest.(check int) "snapshot carries the state" 4
        (match Snapshot.read dir with
        | Some meta -> meta.Snapshot.seq
        | None -> -1);
      (* mid-log corruption under the CLI: exit 2, nothing rewritten *)
      let store = Store.open_ ~dir () |> fst in
      List.iter (fun m -> ignore (Store.commit store m))
        [
          ins "TEACHES" [ "plato"; "plato" ];
          ins "TEACHES" [ "socrates"; "socrates" ];
        ];
      Store.abandon store;
      let scan = Wal.scan (Wal.path dir) in
      let first = List.hd scan.Wal.entries in
      let size_before = (Unix.stat (Wal.path dir)).Unix.st_size in
      Wal.corrupt (Wal.path dir) ~bit:((first.Wal.e_off + 4 + 8) * 8);
      let code, _ = run_ldb [ "recover"; data_dir ] in
      Alcotest.(check int) "corrupted log refused with exit 2" 2 code;
      Alcotest.(check int) "refusal rewrote nothing" size_before
        (Unix.stat (Wal.path dir)).Unix.st_size)

let test_corpus () =
  let corpus name = Filename.concat "corpus/durable" name in
  let code, _ = run_ldb [ "recover"; corpus "good"; "--verify" ] in
  Alcotest.(check int) "good corpus verifies" 0 code;
  let code, out = run_ldb [ "recover"; corpus "torn"; "--verify" ] in
  Alcotest.(check int) "torn corpus verifies (tail ignored)" 0 code;
  Alcotest.(check bool) "torn tail reported" true
    (String.length out > 0);
  let code, _ = run_ldb [ "recover"; corpus "corrupt"; "--verify" ] in
  Alcotest.(check int) "corrupt corpus refused with exit 2" 2 code;
  let code, _ = run_ldb [ "recover"; corpus "corrupt" ] in
  Alcotest.(check int) "recover refuses it too" 2 code

(* --- daemon end-to-end ---------------------------------------------- *)

let temp_socket () =
  let path = Filename.temp_file "ldb_durable" ".sock" in
  Sys.remove path;
  path

let with_seed_file f =
  let path = Filename.temp_file "ldb_durable" ".ldb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Ldb_format.print (seed_db ()));
      close_out oc;
      f path)

let spawn_serve args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: args))
      null_in null_out null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  pid

let rpc c fields = Client.request c (J.Obj fields)
let op name rest = ("op", J.Str name) :: rest

let code resp =
  match J.str_field "code" resp with
  | Some c -> c
  | None -> Alcotest.failf "response without a code: %s" (J.to_string resp)

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

let test_kill9_replay () =
  with_seed_file (fun seed ->
      with_temp_dir (fun data_dir ->
          let socket = temp_socket () in
          let pid =
            spawn_serve
              [
                "--socket"; socket; "--db"; "g=" ^ seed;
                "--data-dir"; data_dir; "--sync"; "always";
              ]
          in
          let acked = ref [] in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
              if Sys.file_exists socket then Sys.remove socket)
            (fun () ->
              let c = Client.connect_retry socket in
              (* acknowledged durable mutations... *)
              List.iter
                (fun f ->
                  let r =
                    rpc c (op "insert" [ ("db", J.Str "g"); ("fact", J.Str f) ])
                  in
                  Alcotest.(check string) "insert acked" "ok" (code r);
                  Alcotest.(check (option bool)) "ack is durable" (Some true)
                    (J.bool_field "durable" r);
                  acked := f :: !acked)
                [
                  "TEACHES(mystery, socrates)";
                  "TEACHES(plato, mystery)";
                  "TEACHES(plato, socrates)";
                ];
              (* ...then the process dies without any shutdown path *)
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid));
          (* the directory verifies and holds every acknowledged seq *)
          let code_, out = run_ldb [ "recover"; data_dir; "--verify" ] in
          Alcotest.(check int) "post-kill verify exits 0" 0 code_;
          Alcotest.(check bool) "verify reports seq 3" true
            (let rec has_sub i =
               i + 5 <= String.length out
               && (String.sub out i 5 = "seq 3" || has_sub (i + 1))
             in
             has_sub 0);
          (* a restart with the SAME command line must serve the
             recovered state, not re-load the seed file *)
          let socket2 = temp_socket () in
          let pid2 =
            spawn_serve
              [
                "--socket"; socket2; "--db"; "g=" ^ seed;
                "--data-dir"; data_dir; "--sync"; "always";
              ]
          in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ());
              if Sys.file_exists socket2 then Sys.remove socket2)
            (fun () ->
              let c = Client.connect_retry socket2 in
              let r =
                rpc c
                  (op "query"
                     [
                       ("db", J.Str "g");
                       ("query", J.Str "(x, y). TEACHES(x, y)");
                     ])
              in
              Alcotest.(check string) "recovered db answers" "ok" (code r);
              Alcotest.(check (list (list string)))
                "every acknowledged mutation survived kill -9"
                [
                  [ "mystery"; "socrates" ];
                  [ "plato"; "mystery" ];
                  [ "plato"; "socrates" ];
                  [ "socrates"; "plato" ];
                ]
                (rows r);
              ignore (rpc c (op "shutdown" []));
              (try Client.close c with _ -> ()))))

let test_sigterm_drain () =
  with_seed_file (fun seed ->
      with_temp_dir (fun data_dir ->
          let socket = temp_socket () in
          let pid =
            spawn_serve
              [
                "--socket"; socket; "--db"; "g=" ^ seed;
                "--data-dir"; data_dir; "--workers"; "1"; "--debug-sleep";
              ]
          in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
              if Sys.file_exists socket then Sys.remove socket)
            (fun () ->
              let c1 = Client.connect_retry socket in
              let c2 = Client.connect_retry socket in
              (* Hold the single worker, queue a mutation behind it,
                 then ask for termination: the drain must still answer
                 the queued insert before the process exits 0. *)
              let sleeper =
                Thread.create
                  (fun () ->
                    try ignore (rpc c1 (op "sleep" [ ("ms", J.Num 400.) ]))
                    with _ -> ())
                  ()
              in
              Thread.delay 0.15;
              let insert_resp = ref None in
              let inserter =
                Thread.create
                  (fun () ->
                    try
                      insert_resp :=
                        Some
                          (rpc c2
                             (op "insert"
                                [
                                  ("db", J.Str "g");
                                  ("fact", J.Str "TEACHES(mystery, socrates)");
                                ]))
                    with _ -> ())
                  ()
              in
              Thread.delay 0.15;
              Unix.kill pid Sys.sigterm;
              let _, status = Unix.waitpid [] pid in
              Thread.join sleeper;
              Thread.join inserter;
              (try Client.close c1 with _ -> ());
              (try Client.close c2 with _ -> ());
              (match status with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED n -> Alcotest.failf "exit %d, expected 0" n
              | Unix.WSIGNALED n ->
                Alcotest.failf "killed by signal %d, expected exit 0" n
              | Unix.WSTOPPED _ -> Alcotest.fail "stopped, expected exit 0");
              Alcotest.(check bool) "drain removed the socket file" false
                (Sys.file_exists socket);
              (match !insert_resp with
              | Some r ->
                Alcotest.(check string) "queued mutation answered during drain"
                  "ok" (code r)
              | None -> Alcotest.fail "queued mutation lost in drain");
              (* the drained, checkpointed directory replays the ack *)
              let r =
                Recovery.recover (Recovery.db_dir ~data_dir ~name:"g")
              in
              Alcotest.(check int) "acked mutation durable after drain" 1
                r.Recovery.r_seq)))

let suite =
  [
    Alcotest.test_case "wal: records round-trip through scan" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail at every byte boundary" `Quick
      test_wal_torn_every_byte;
    Alcotest.test_case "wal: mid-log corruption refused, tail damage torn"
      `Quick test_wal_midlog_corrupt;
    Alcotest.test_case "recovery: empty log, snapshot-only, auto-checkpoint"
      `Quick test_recovery_edges;
    Alcotest.test_case "store: no-ops unlogged, invalid mutations clean"
      `Quick test_noops_and_invalid;
    Alcotest.test_case "sync modes round-trip and recover equally" `Quick
      test_sync_modes;
    Alcotest.test_case "merge and distinct replay faithfully" `Quick
      test_merge_distinct_replay;
    Alcotest.test_case "database names encode into directory names" `Quick
      test_name_encoding;
    Alcotest.test_case "directed append crash loses only the in-flight record"
      `Quick test_directed_append_crash;
    Alcotest.test_case "recovered sessions answer identically per kernel"
      `Quick test_recovery_kernel_parity;
    Alcotest.test_case "ldb recover: verify and compact" `Quick
      test_recover_cli;
    Alcotest.test_case "checked-in corpus: good, torn, corrupt" `Quick
      test_corpus;
    Alcotest.test_case "kill -9 mid-traffic: acked mutations replay" `Quick
      test_kill9_replay;
    Alcotest.test_case "SIGTERM drains the queue, checkpoints, exits 0"
      `Quick test_sigterm_drain;
  ]
