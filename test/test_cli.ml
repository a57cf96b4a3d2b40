(* End-to-end exit-code taxonomy of bin/ldb.exe (documented in
   README.md): 0 affirmative, 1 refuted/empty, 2 usage/file/parse
   errors, 124 budget exhausted under --on-budget fail, 130
   interrupted by SIGINT. *)

open Logicaldb

let exe = "../bin/ldb.exe"

(* Run the binary with stdin/stderr on /dev/null, returning the exit
   code and captured stdout. *)
let run_ldb args =
  let out_file = Filename.temp_file "ldb_cli" ".out" in
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

let with_db f =
  let path = Filename.temp_file "ldb_cli" ".ldb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Ldb_format.print (Support.socrates_db ()));
      close_out oc;
      f path)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_exit msg expected (code, _) = Alcotest.(check int) msg expected code

let test_exit_ok () =
  with_db (fun db ->
      let code, out = run_ldb [ "query"; db; "(). TEACHES(socrates, plato)" ] in
      Alcotest.(check int) "affirmative verdict" 0 code;
      Alcotest.(check bool) "prints true" true (contains out "true"))

let test_exit_refuted () =
  with_db (fun db ->
      check_exit "false verdict" 1
        (run_ldb [ "query"; db; "(). TEACHES(plato, socrates)" ]);
      check_exit "empty relation" 1
        (run_ldb [ "query"; db; "(x). TEACHES(x, socrates)" ]))

let test_exit_usage () =
  with_db (fun db ->
      check_exit "query syntax error" 2 (run_ldb [ "query"; db; "((" ]);
      check_exit "missing database file" 2
        (run_ldb [ "query"; "/nonexistent.ldb"; "(). P(a)" ]);
      check_exit "unknown option" 2 (run_ldb [ "query"; db; "(). P(a)"; "--nonsense" ]);
      (* the scan is sequential: the worker-domain flag is gone *)
      check_exit "query --domains" 2
        (run_ldb [ "query"; db; "(). TEACHES(socrates, plato)"; "--domains"; "2" ]);
      check_exit "fuzz --domains" 2
        (run_ldb [ "fuzz"; "--count"; "0"; "--domains"; "2" ]);
      (* kernel partitions are the one exact algorithm: the selector is
         gone *)
      check_exit "query --algorithm" 2
        (run_ldb
           [ "query"; db; "(). TEACHES(socrates, plato)"; "--algorithm"; "naive" ]);
      (* the optimized plan is the one join strategy: the fast path's
         detection floor is gone *)
      check_exit "fuzz --min-acq-detected" 2
        (run_ldb [ "fuzz"; "--count"; "0"; "--min-acq-detected"; "50" ]);
      (* the algebra backends compile first-order queries only, for
         answers and sentences alike *)
      check_exit "second-order sentence on --backend optimized" 2
        (run_ldb
           [
             "query"; db; "(). exists2 P/1. forall x. P(x)"; "-e"; "approx";
             "--backend"; "optimized";
           ]);
      check_exit "budget with a budgetless engine" 2
        (run_ldb
           [ "query"; db; "(). TEACHES(socrates, plato)"; "-e"; "approx"; "--timeout"; "1" ]))

let test_exit_budget_exhausted () =
  with_db (fun db ->
      (* Certainly true, so the countermodel search must visit every
         structure — a one-structure cap always trips, and under the
         fail policy that is exit 124. *)
      check_exit "budget exhausted" 124
        (run_ldb
           [
             "query"; db; "(). TEACHES(socrates, plato)";
             "--max-structures"; "1"; "--on-budget"; "fail";
           ]))

let test_budget_approx_degrades () =
  with_db (fun db ->
      let code, out =
        run_ldb
          [
            "query"; db; "(). TEACHES(socrates, plato)";
            "--timeout"; "3600"; "--max-structures"; "1";
            "--on-budget"; "approx"; "--stats";
          ]
      in
      Alcotest.(check int) "sound fallback verdict" 0 code;
      Alcotest.(check bool) "qualified as a lower bound" true
        (contains out "lower bound");
      Alcotest.(check bool) "provenance in stats" true
        (contains out "Theorem-11 approximation"))

let test_kernel_flag () =
  with_db (fun db ->
      (* The flag is a deprecated no-op: every kernel name answers
         identically; an unknown name is still a cmdliner enum error,
         exit 2. *)
      let reference = run_ldb [ "query"; db; "(x, y). TEACHES(x, y)" ] in
      List.iter
        (fun kernel ->
          let code, out =
            run_ldb
              [ "query"; db; "(x, y). TEACHES(x, y)"; "--kernel"; kernel ]
          in
          Alcotest.(check int) (kernel ^ " exit code") (fst reference) code;
          Alcotest.(check string)
            (kernel ^ " answer") (snd reference) out)
        [ "strings"; "interned"; "compiled" ];
      let code, out =
        run_ldb
          [
            "query"; db; "(). TEACHES(socrates, plato)";
            "--kernel"; "compiled"; "--stats";
          ]
      in
      Alcotest.(check int) "compiled verdict" 0 code;
      Alcotest.(check bool) "compiled prints stats" true
        (contains out "structures:");
      check_exit "unknown kernel name" 2
        (run_ldb
           [ "query"; db; "(). TEACHES(socrates, plato)"; "--kernel"; "jit" ]);
      check_exit "mutate accepts --kernel compiled" 0
        (run_ldb
           [
             "mutate"; db; "--insert"; "TEACHES(plato, mystery)";
             "--query"; "(x). exists y. TEACHES(x, y)";
             "--kernel"; "compiled";
           ]);
      check_exit "mutate rejects unknown kernel" 2
        (run_ldb
           [
             "mutate"; db; "--insert"; "TEACHES(plato, mystery)";
             "--query"; "(x). exists y. TEACHES(x, y)";
             "--kernel"; "jit";
           ]))

(* --explain describes the backend that runs, and a sentence runs on
   the selected backend too: only the algebra backends count the D^k
   build of an unbound NE. *)
let test_explain_backend () =
  with_db (fun db ->
      let explain text backend =
        let code, out =
          run_ldb
            [
              "query"; db; text; "-e"; "approx"; "--explain";
              "--backend"; backend;
            ]
        in
        Alcotest.(check int) (backend ^ " exit code") 0 code;
        out
      in
      Alcotest.(check bool) "direct is Tarskian" true
        (contains
           (explain "(x). exists y. TEACHES(x, y) /\\ ~TEACHES(y, x)" "direct")
           "plan: Tarskian evaluator");
      (* the compiled plan pads ~TEACHES(y, y) with a DOM column; the
         optimizer turns it into a semijoin *)
      let text = "(x). exists y. TEACHES(x, y) /\\ ~TEACHES(y, y)" in
      let compiled = explain text "algebra" in
      Alcotest.(check bool) "algebra is the compiled plan" true
        (contains compiled "plan: compiled relational algebra"
        && contains compiled "x DOM");
      let optimized = explain text "optimized" in
      Alcotest.(check bool) "optimized is the optimized plan" true
        (contains optimized "plan: optimized relational algebra"
        && contains optimized "semijoin["
        && not (contains optimized "x DOM"));
      let sentence = "(). exists x. exists y. ~(x = y)" in
      let counts backend =
        let code, out =
          run_ldb
            [
              "query"; db; sentence; "-e"; "approx"; "--metrics";
              "--backend"; backend;
            ]
        in
        Alcotest.(check int) (backend ^ " sentence exit code") 0 code;
        contains out "relational.virtual_full"
      in
      Alcotest.(check bool) "direct sentence is Tarskian" false
        (counts "direct");
      Alcotest.(check bool) "optimized sentence runs the plan" true
        (counts "optimized"))

let test_exit_sigint () =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "fuzz"; "--count"; "100000000"; "--no-typed"; "--no-shrink" |]
      null_in null_out null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  (* Give the campaign time to be mid-scan, then interrupt it. *)
  Unix.sleepf 1.0;
  Unix.kill pid Sys.sigint;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 130 -> ()
  | Unix.WEXITED n -> Alcotest.failf "exit %d, expected 130" n
  | Unix.WSIGNALED n -> Alcotest.failf "killed by signal %d, expected exit 130" n
  | Unix.WSTOPPED _ -> Alcotest.fail "stopped, expected exit 130"

let suite =
  [
    Alcotest.test_case "exit 0: affirmative" `Quick test_exit_ok;
    Alcotest.test_case "exit 1: refuted or empty" `Quick test_exit_refuted;
    Alcotest.test_case "exit 2: usage and file errors" `Quick test_exit_usage;
    Alcotest.test_case "exit 124: budget exhausted under fail" `Quick
      test_exit_budget_exhausted;
    Alcotest.test_case "--on-budget approx prints a qualified answer" `Quick
      test_budget_approx_degrades;
    Alcotest.test_case "--kernel is a no-op; unknown names exit 2"
      `Quick test_kernel_flag;
    Alcotest.test_case "exit 130: SIGINT" `Quick test_exit_sigint;
    Alcotest.test_case "approx --explain follows --backend" `Quick
      test_explain_backend;
  ]
