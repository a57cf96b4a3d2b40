(* The serve workloads: an [ldb serve] daemon in its own process, driven
   over its wire protocol by one closed-loop client.

   One client, not two: on a two-core machine two clients, the daemon's
   workers and the harness oversubscribe the cores, and the scheduler's
   placement then sets the latency tails more than the program does.

   [serve-read] is the resident steady state the daemon exists for.
   Two queried databases: [narrow] (16 constants, 3 unknowns, 2,787
   partitions) fits the session's 4096-entry structure cache, [wide]
   (10 constants, 6 unknowns, 29,371 partitions) does not. About 500 distinct query
   texts — twice the 256-entry plan cache — drawn Zipf within each
   request family, so plans are evicted and rebuilt while the session
   memos stay warm. Full scans stay on [narrow]. One request in 25 is
   budgeted under policy [approx] and answered by the Theorem-11
   approximation, and one in ten is a write: mostly re-asserting a fact
   the database already holds, which changes nothing and leaves every
   cache warm.

   [serve-write] puts writes beside reads on one durable session
   (16 constants, 2 unknowns, 226 partitions; [--data-dir] with the
   default [--sync always --snapshot-every 64]). A third of the requests
   are writes, nearly all toggling a [P] fact, so the database stays
   within two states. Half the query texts read [P] and miss their memo
   after every delta; the other half do not.

   Tail percentiles sit in designated heavy classes. A tail percentile
   of cheap requests is set by the rare stalls of a shared machine, and
   it moves between runs by more than any bound allows. So in each
   population a [p]-th percentile measures, 2(1 - p) of the requests
   are a heavier class, and the percentile falls near that class's
   median: full-scan answers on [narrow], or a 2-ary answer on the
   durable session, for [read_p99_ms]; a costlier 2-ary budgeted query
   for [approx_p90_ms]; and a fact toggle on a third, bulk database
   that no request reads for [write_p99_ms]. *)

module L = Logicaldb
module Json = L.Serve_json
module Client = L.Serve_client

type cls = Read | Approx | Write

let cls_index = function Read -> 0 | Approx -> 1 | Write -> 2

(* One request: the line sent and the check its response must pass. *)
type req = { line : string; cls : cls; check : Json.t -> bool }

type spec = {
  dbs : (string * Gen.db) list;  (* name, generated database *)
  durable : bool;
  warmup : req list;
  stream : int -> unit -> req;  (* per client, deterministic in the seed *)
  final_check : unit -> bool * float;
      (* after the load: is the recovered state right, and the recovery ms *)
}

let obj fields = Json.to_string (Json.Obj fields)
let str s = Json.Str s

let code_ok j = Json.str_field "code" j = Some "ok"

let rows_of j =
  match Json.member "rows" j with
  | Some (Json.List rows) ->
    Some
      (List.map
         (function Json.List cells -> List.filter_map Json.to_str cells | _ -> [])
         rows)
  | _ -> None

(* [matches j expected]: the response carries one of the [expected]
   answers, with the qualification the request class implies. *)
let matches ~qualified j expected =
  code_ok j
  && Json.str_field "qualified" j = Some qualified
  && List.exists
       (function
         | Reference.Rows rows -> (
           match rows_of j with
           | Some got -> Reference.equal_rows got rows
           | None -> false)
         | Reference.Bool v -> Json.bool_field "value" j = Some v)
       expected

let query_req ~db ?budget text expected =
  let is_bool = String.length text > 2 && String.sub text 0 3 = "()." in
  let fields =
    [ ("op", str (if is_bool then "boolean" else "query")); ("db", str db); ("query", str text) ]
  in
  match budget with
  | None ->
    { line = obj fields; cls = Read; check = (fun j -> matches ~qualified:"exact" j expected) }
  | Some n ->
    {
      line =
        obj (fields @ [ ("policy", str "approx"); ("max_structures", Json.Num (float_of_int n)) ]);
      cls = Approx;
      check = (fun j -> matches ~qualified:"lower_bound" j expected);
    }

(* Every workload drives the daemon from this many connections. *)
let clients = 1

(* A toggle of [U(c)] on the bulk database, [c] owned by [client]: the
   [n]th toggle inserts when [n] is odd. *)
let bulk_toggle ~db ~durable (bulk : Gen.db) client n =
  let fact = ("U", [ List.nth bulk.constants client ]) in
  let insert = n mod 2 = 1 in
  let facts = List.length bulk.facts + if insert then 1 else 0 in
  {
    line =
      obj
        [
          ("op", str (if insert then "insert" else "retract"));
          ("db", str db);
          ("fact", str (Gen.fact_text fact));
        ];
    cls = Write;
    check =
      (fun j ->
        code_ok j
        && Json.num_field "facts" j = Some (float_of_int facts)
        && ((not durable) || Json.bool_field "durable" j = Some true));
  }

(* The bulk database after [toggles.(client)] toggles by each client. *)
let bulk_state (bulk : Gen.db) toggles =
  let extra =
    List.concat
      (List.init (Array.length toggles) (fun client ->
           if toggles.(client) mod 2 = 1 then [ ("U", [ List.nth bulk.constants client ]) ]
           else []))
  in
  { bulk with facts = bulk.facts @ extra }

(* --- serve-read ------------------------------------------------------- *)

let serve_read ~seed =
  let st = Gen.shapes 1 in
  let narrow = Gen.exact st ~prefix:"n" ~constants:16 ~unknowns:3 in
  let wide = Gen.exact st ~prefix:"w" ~constants:10 ~unknowns:6 in
  let bulk = Gen.bulk (Gen.shapes 5) ~prefix:"b" ~constants:300 ~facts:8000 in
  let fn = Gen.relabel seed 1 narrow.db.constants in
  let fw = Gen.relabel seed 2 wide.db.constants in
  let cs (e : Gen.exact) = Array.of_list e.db.constants in
  let ncs = cs narrow and wcs = cs wide in
  let few = Array.sub (Gen.shuffle st (Array.copy ncs)) 0 4 in
  let pairs xs ys =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) (Array.to_list ys)) (Array.to_list xs)
  in
  let open Printf in
  let families =
    [
      ( "nfa", "narrow", None,
        List.map (fun (a, b) -> sprintf "(x). P(x) \\/ R(x, %s) \\/ R(%s, x)" a b) (pairs ncs few) );
      ( "nfb", "narrow", None,
        List.map
          (fun (a, b) -> sprintf "(). exists x. P(x) \\/ R(x, %s) \\/ R(%s, x)" a b)
          (pairs ncs few) );
      ( "neb", "narrow", None,
        List.map
          (fun (a, b) -> sprintf "(). forall x. P(x) \\/ R(x, %s) \\/ R(%s, x)" a b)
          (pairs ncs ncs) );
      ( "web", "wide", None,
        List.map
          (fun (a, b) -> sprintf "(). forall x. P(x) \\/ R(x, %s) \\/ R(%s, x)" a b)
          (pairs wcs wcs) );
      ( "nap", "narrow", Some 64,
        List.map
          (fun a -> sprintf "(x). P(x) \\/ (exists y. R(x, y) /\\ R(y, %s))" a)
          (Array.to_list ncs) );
      ( "hap", "narrow", Some 64,
        [
          "(x, y). exists z. R(x, z) /\\ R(z, y)";
          "(x, y). exists z. R(z, x) /\\ R(z, y)";
          "(x, y). exists z. R(x, z) /\\ R(y, z)";
          "(x, y). exists z. R(x, z) /\\ R(z, y) /\\ P(z)";
        ] );
    ]
  in
  let expected_for db texts =
    let cw = Gen.to_cw db in
    Reference.certain cw (Array.of_list (List.map L.Parser.query texts))
  in
  let narrow0 = narrow.db and wide0 = wide.db in
  let narrow = Gen.rename_exact fn narrow and wide = Gen.rename_exact fw wide in
  let reqs_of (_, db_name, budget, texts) =
    let db, texts =
      if db_name = "narrow" then (narrow.db, List.map (Gen.rename_text fn narrow0) texts)
      else (wide.db, List.map (Gen.rename_text fw wide0) texts)
    in
    let exp = expected_for db texts in
    Gen.shuffle st
      (Array.of_list (List.mapi (fun i t -> query_req ~db:db_name ?budget t [ exp.(i) ]) texts))
  in
  let fam = Array.of_list (List.map reqs_of families) in
  let zipfs = Array.map (fun a -> Gen.zipf (Array.length a)) fam in
  let noops =
    Array.of_list
      (List.concat_map
         (fun (name, (e : Gen.exact)) ->
           List.map
             (fun f ->
               {
                 line = obj [ ("op", str "insert"); ("db", str name); ("fact", str (Gen.fact_text f)) ];
                 cls = Write;
                 check = (fun j -> code_ok j && Json.num_field "delta" j = Some 0.);
               })
             e.db.facts)
         [ ("narrow", narrow); ("wide", wide) ])
  in
  (* Shares per 500-request cycle, for families nfa nfb neb web nap hap,
     no-op writes and bulk toggles. Each percentile falls near the
     median of one class: the median read in [neb]; [exact_p90_ms] in
     the full scans of [nfb] and the early exits of [web], 16% of the
     exact reads; [read_p99_ms] in [nfa], 1.8% of the reads;
     [approx_p90_ms] in [hap], a fifth of the budgeted requests; and
     [write_p99_ms] in the bulk toggles, 2% of the writes. *)
  let weights =
    [ (0, 8); (1, 45); (2, 353); (3, 24); (4, 16); (5, 4); (6, 49); (7, 1) ]
  in
  let stream client =
    let st = Gen.rng seed (100 + client) in
    let next_slot = Gen.cycler st weights in
    let toggles = ref 0 in
    fun () ->
      match next_slot () with
      | 6 -> noops.(Random.State.int st (Array.length noops))
      | 7 ->
        incr toggles;
        bulk_toggle ~db:"bulk" ~durable:false bulk client !toggles
      | slot -> fam.(slot).(Gen.draw st zipfs.(slot))
  in
  {
    dbs = [ ("narrow", narrow.db); ("wide", wide.db); ("bulk", bulk) ];
    durable = false;
    warmup = List.concat_map Array.to_list (Array.to_list fam);
    stream;
    final_check = (fun () -> (true, 0.));
  }

(* --- serve-write ------------------------------------------------------ *)

let serve_write ~seed ~data_dir =
  let st = Gen.shapes 2 in
  let e = Gen.exact st ~prefix:"s" ~constants:16 ~unknowns:2 in
  let bulk = Gen.bulk (Gen.shapes 6) ~prefix:"b" ~constants:300 ~facts:20000 in
  let f = Gen.relabel seed 3 e.db.constants in
  let c = Array.of_list (List.map f (Gen.pick st 4 e.db.constants)) in
  let toggles = Array.of_list (List.map (fun t -> ("P", [ f t ])) (Gen.pick st clients e.spare)) in
  let e = Gen.rename_exact f e in
  let open Printf in
  let p_readers =
    [
      sprintf "(x). P(x) \\/ R(x, %s)" c.(0);
      sprintf "(x). P(x) \\/ R(x, %s)" c.(1);
      sprintf "(x). P(x) \\/ R(%s, x)" c.(2);
      sprintf "(). exists x. P(x) /\\ R(x, %s)" c.(3);
      "(). forall x. P(x) \\/ (exists y. R(x, y))";
      "(x). ~P(x) /\\ (exists y. R(x, y))";
    ]
  and r_readers =
    [
      sprintf "(x). exists y. R(x, y) /\\ R(y, %s)" c.(0);
      sprintf "(x). R(x, %s) \\/ R(%s, x)" c.(1) c.(1);
      "(x). exists y. R(x, y)";
      sprintf "(). exists x. R(x, %s)" c.(2);
      "(). forall x. exists y. R(x, y) \\/ R(y, x)";
      "(x). ~(exists y. R(x, y))";
    ]
  and heavy = "(x, y). P(x) \\/ R(x, y) \\/ R(y, x)"
  and approx =
    [
      sprintf "(x). P(x) \\/ R(%s, x)" c.(3);
      sprintf "(x). R(x, %s) \\/ (exists y. R(y, x))" c.(2);
    ]
  and heavy_approx = "(x, y). exists z. P(z) /\\ R(x, z) /\\ R(z, y)" in
  let texts = Array.of_list (p_readers @ r_readers @ [ heavy ] @ approx @ [ heavy_approx ]) in
  let n_light = List.length p_readers + List.length r_readers in
  let n_exact = n_light + 1 in
  (* The database with the [P] toggles of the clients in [held]. *)
  let state_db held =
    { e.db with facts = e.db.facts @ List.filteri (fun i _ -> List.mem i held) (Array.to_list toggles) }
  in
  let qs = Array.map L.Parser.query texts in
  (* Subsets of the clients whose fact is held, with their answers. *)
  let subsets =
    List.fold_left
      (fun acc i -> acc @ List.map (fun s -> i :: s) acc)
      [ [] ]
      (List.init clients Fun.id)
  in
  let expected =
    List.map (fun held -> (held, Reference.certain (Gen.to_cw (state_db held)) qs)) subsets
  in
  (* A read by [client] while its own fact is [own]: every other
     client's fact may be in either state while the read runs. *)
  let read_req ~client ~own k =
    let exp =
      List.filter_map
        (fun (held, ans) -> if List.mem client held = own then Some ans.(k) else None)
        expected
    in
    query_req ~db:"w" ?budget:(if k >= n_exact then Some 16 else None) texts.(k) exp
  in
  let toggle_req client ~insert =
    {
      line =
        obj
          [
            ("op", str (if insert then "insert" else "retract"));
            ("db", str "w");
            ("fact", str (Gen.fact_text toggles.(client)));
          ];
      cls = Write;
      check = (fun j -> code_ok j && Json.bool_field "durable" j = Some true);
    }
  in
  let final_toggles = Array.make clients 0 and final_bulk = Array.make clients 0 in
  (* Shares per 300-request cycle: light reads, the heavy read (1.5% of
     reads, where [read_p99_ms] falls), light and heavy budgeted reads
     (the heavy a fifth, where [approx_p90_ms] falls), [P] toggles and
     bulk toggles (2% of the writes, where [write_p99_ms] falls). *)
  let weights = [ (0, 177); (1, 3); (2, 16); (3, 4); (4, 98); (5, 2) ] in
  let stream client =
    let st = Gen.rng seed (200 + client) in
    let next_slot = Gen.cycler st weights in
    let toggled = ref 0 and bulked = ref 0 in
    fun () ->
      let own = !toggled mod 2 = 1 in
      match next_slot () with
      | 0 -> read_req ~client ~own (Random.State.int st n_light)
      | 1 -> read_req ~client ~own n_light
      | 2 -> read_req ~client ~own (n_exact + Random.State.int st (List.length approx))
      | 3 -> read_req ~client ~own (Array.length texts - 1)
      | 4 ->
        incr toggled;
        final_toggles.(client) <- !toggled;
        toggle_req client ~insert:(not own)
      | _ ->
        incr bulked;
        final_bulk.(client) <- !bulked;
        bulk_toggle ~db:"bulk" ~durable:true bulk client !bulked
  in
  (* Kill -9 leaves the data directory exactly as the acknowledged
     commits wrote it: recovery must rebuild each initial database with
     every acknowledged toggle applied. *)
  let final_check () =
    let recovered name = L.Incr_session.db (L.Recovery.verify (L.Recovery.db_dir ~data_dir ~name)).L.Recovery.r_session in
    let t0 = Measure.now () in
    let w = recovered "w" in
    let recover_ms = (Measure.now () -. t0) *. 1e3 in
    let held = List.filter (fun i -> final_toggles.(i) mod 2 = 1) (List.init clients Fun.id) in
    ( L.Cw_database.equal w (Gen.to_cw (state_db held))
      && L.Cw_database.equal (recovered "bulk") (Gen.to_cw (bulk_state bulk final_bulk)),
      recover_ms )
  in
  {
    dbs = [ ("w", e.db); ("bulk", bulk) ];
    durable = true;
    warmup = List.init (Array.length texts) (fun k -> read_req ~client:0 ~own:false k);
    stream;
    final_check;
  }

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let spawn ~ldb ~socket ~data_dir =
  let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ ldb; "serve"; "--socket"; socket ]
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let pid = Unix.create_process ldb (Array.of_list args) devnull log log in
  Unix.close devnull;
  Unix.close log;
  { pid; socket }

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if Measure.now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait_exit pid deadline
    end
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let shutdown d =
  (try
     let c = Client.connect d.socket in
     ignore (Client.request_line c (obj [ ("op", str "shutdown") ]));
     Client.close c
   with _ -> ());
  wait_exit d.pid (Measure.now () +. 10.)

let kill9 d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_exit d.pid (Measure.now () +. 10.)

(* Every daemon this process started is stopped on every exit path. *)
let live : daemon list ref = ref []

let stop_all () =
  List.iter kill9 !live;
  live := []

let request_exn c line =
  let j = Client.request_line c line in
  if not (code_ok j) then failwith ("setup request failed: " ^ Json.to_string j);
  j

(* Start a daemon, load the databases and warm every request once:
   the work between a workload's start and its first timed request. *)
let setup ~ldb spec ~socket ~data_dir =
  List.iter
    (fun (name, db) ->
      let oc = open_out (name ^ ".ldb") in
      output_string oc (Gen.to_text db);
      close_out oc)
    spec.dbs;
  let t0 = Measure.now () in
  let d = spawn ~ldb ~socket ~data_dir:(if spec.durable then Some data_dir else None) in
  live := d :: !live;
  let c = Client.connect_retry ~attempts:400 ~delay:0.01 socket in
  List.iter
    (fun (name, _) ->
      ignore
        (request_exn c
           (obj [ ("op", str "load"); ("db", str name); ("path", str (name ^ ".ldb")) ])))
    spec.dbs;
  List.iter
    (fun r ->
      let j = Client.request_line c r.line in
      if not (r.check j) then failwith ("warm-up answer failed its check: " ^ r.line))
    spec.warmup;
  Client.close c;
  (d, Measure.now () -. t0)

type result = {
  samples : Measure.sample array;  (* by [cls_index] *)
  elapsed : float;
  stats_before : Json.t;  (* the daemon's [stats] as the load starts *)
  stats : Json.t;  (* and as it ends *)
  rss_mb : float;
}

(* Closed loop: each client sends its next request only after the
   previous response arrived. *)
let daemon_stats d =
  let c = Client.connect d.socket in
  let stats = Client.request_line c (obj [ ("op", str "stats") ]) in
  Client.close c;
  stats

let load spec d ~clients ~seconds tally =
  let stats_before = daemon_stats d in
  let samples = Array.init clients (fun _ -> Array.init 3 (fun _ -> Measure.sample ())) in
  let t_start = Measure.now () in
  let deadline = t_start +. seconds in
  let last = Array.make clients t_start in
  let client i () =
    let c = Client.connect_retry d.socket in
    let next = spec.stream i in
    let rec loop () =
      let t0 = Measure.now () in
      if t0 < deadline then begin
        let r = next () in
        Atomic.incr tally.Measure.attempted;
        match Client.request_line c r.line with
        | j ->
          let t1 = Measure.now () in
          last.(i) <- t1;
          if r.check j then Measure.add samples.(i).(cls_index r.cls) ((t1 -. t0) *. 1000.)
          else Measure.fail tally "unexpected response to %s: %s" r.line (Json.to_string j);
          loop ()
        | exception e -> Measure.fail tally "request %s raised %s" r.line (Printexc.to_string e)
      end
    in
    loop ();
    Client.close c
  in
  let threads = List.init clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let elapsed = Array.fold_left max t_start last -. t_start in
  let stats = daemon_stats d in
  let rss_mb = Measure.peak_rss_mb (string_of_int d.pid) in
  {
    samples = Array.init 3 (fun k -> Measure.merge (List.init clients (fun i -> samples.(i).(k))));
    elapsed;
    stats_before;
    stats;
    rss_mb;
  }

let remove_tree path =
  let rec go p =
    match Unix.lstat p with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Sys.remove p
  in
  go path
