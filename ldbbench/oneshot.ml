(* The oneshot workload: [ldb query] and [ldb mutate] with no resident
   state, run in-process and back to back on one thread, because
   process start would dominate the smallest requests.

   Each request parses the .ldb text, parses the query (or fact),
   evaluates it and renders the output the CLI prints. Exact requests
   run the default engine; approx requests pass [--backend optimized],
   the relational path of Theorem 14. Writes are [ldb mutate]: parse,
   apply one insert or retract, print the database. *)

module L = Logicaldb

type kind = Exact | Approx | Write

type req = {
  kind : kind;
  text : string;  (* the .ldb text *)
  arg : string;  (* the query, or the fact a write inserts or retracts *)
  insert : bool;
  check : string -> bool;  (* on the rendered output *)
}

(* --- what the CLI prints ------------------------------------------------ *)

let render_relation r =
  let b = Buffer.create 256 in
  L.Relation.iter (fun t -> Buffer.add_string b (String.concat ", " t ^ "\n")) r;
  Buffer.add_string b (Printf.sprintf "(%d tuples)\n" (L.Relation.cardinal r));
  Buffer.contents b

let render_bool v = Printf.sprintf "%b\n" v

let note = function
  | L.Approx.Complete_fully_specified -> "(exact: database fully specified — Theorem 12)\n"
  | L.Approx.Complete_positive -> "(exact: positive query — Theorem 13)\n"
  | L.Approx.Sound_only -> "(sound but possibly incomplete — Theorem 11)\n"

let completeness_note db q = note (L.Approx.completeness db q)

let ground_fact text =
  match L.Parser.formula text with
  | L.Formula.Atom (pred, ts) ->
    {
      L.Cw_database.pred;
      args = List.filter_map (function L.Term.Const c -> Some c | L.Term.Var _ -> None) ts;
    }
  | _ -> invalid_arg ("not a ground atom: " ^ text)

let backend = L.Approx.Algebra_optimized

(* Each CLI request starts with a fresh heap. Between timed requests the
   harness finishes the collection work a large request left behind
   (parsing a 600 KB text, say), so the next request does not pay for
   it; small requests leave too little to matter. *)
let settle =
  let mark = ref (Gc.allocated_bytes ()) in
  fun () ->
    let now = Gc.allocated_bytes () in
    if now -. !mark > 1e6 then Gc.full_major ();
    mark := Gc.allocated_bytes ()

(* --- untraced: exactly the calls the CLI makes ------------------------ *)

let run r =
  match r.kind with
  | Exact ->
    let db = L.Ldb_format.parse r.text in
    let q = L.Parser.query r.arg in
    if L.Query.is_boolean q then render_bool (fst (L.Certain.certain_boolean_stats db q))
    else render_relation (fst (L.Certain.answer_stats db q))
  | Approx ->
    let db = L.Ldb_format.parse r.text in
    let q = L.Parser.query r.arg in
    let out = render_relation (L.Approx.answer ~backend db q) in
    out ^ completeness_note db q
  | Write ->
    let session = L.Incr_session.create (L.Ldb_format.parse r.text) in
    let fact = ground_fact r.arg in
    if r.insert then L.Incr_session.insert session fact
    else L.Incr_session.retract session fact;
    L.Ldb_format.print (L.Incr_session.db session)

(* --- traced: the same work, split at each layer's public calls -------- *)

type scan_stats = { mutable scans : int; mutable structures : int; mutable early : int;
                    mutable fastpath : int; mutable fallback : int }

let scan_stats () = { scans = 0; structures = 0; early = 0; fastpath = 0; fallback = 0 }

let timed acc f x =
  let t0 = Trace.now () in
  match f x with
  | v ->
    acc := Int64.add !acc (Int64.sub (Trace.now ()) t0);
    v
  | exception e ->
    acc := Int64.add !acc (Int64.sub (Trace.now ()) t0);
    raise e

let note_scan ss (st : L.Certain.stats) =
  ss.scans <- ss.scans + 1;
  ss.structures <- ss.structures + st.L.Certain.structures;
  if st.L.Certain.early_exit then ss.early <- ss.early + 1

let approx_stages = [ "approx.translate"; "approx.ph2"; "approx.evaluate" ]

let run_traced ss ctx r =
  let span name f = Trace.span ctx name f in
  match r.kind with
  | Exact ->
    let db = span "format.parse" (fun () -> L.Ldb_format.parse r.text) in
    let q = span "logic.parse" (fun () -> L.Parser.query r.arg) in
    let plan = span "interned.intern" (fun () -> L.Iscan.prepare db) in
    let quotient = ref 0L and eval = ref 0L in
    let fresh = L.Certain.source_of_plan plan in
    let source =
      {
        fresh with
        L.Certain.source_thunks =
          (fun a o -> Seq.map (fun th () -> timed quotient th ()) (fresh.source_thunks a o));
        source_discrete = (fun () -> timed quotient fresh.source_discrete ());
      }
    in
    let p =
      span "certain.prepare" (fun () ->
          L.Certain.prepare_with ~source
            ~wrap_answer:(fun f s -> timed eval f s)
            ~wrap_check:(fun f s -> timed eval f s)
            db q)
    in
    let result =
      span "certain.scan" (fun () ->
          let result =
            if L.Query.is_boolean q then begin
              let v, st = L.Certain.prepared_certain_boolean_stats p in
              note_scan ss st;
              `Bool v
            end
            else begin
              let rel, st = L.Certain.prepared_answer_stats p in
              note_scan ss st;
              `Rel rel
            end
          in
          Trace.child ctx "interned.quotient" !quotient;
          Trace.child ctx "interned.eval" !eval;
          result)
    in
    span "relational.decode" (fun () ->
        match result with `Bool v -> render_bool v | `Rel rel -> render_relation rel)
  | Approx ->
    let db = span "format.parse" (fun () -> L.Ldb_format.parse r.text) in
    let q = span "logic.parse" (fun () -> L.Parser.query r.arg) in
    let rel =
      span "approx.answer" (fun () ->
          let buf = L.Obs.buffer () in
          let rel =
            L.Obs.with_sink (L.Obs.buffer_sink buf) (fun () -> L.Approx.answer ~backend db q)
          in
          List.iter
            (function
              | L.Obs.Span_close { name; elapsed_ns; _ } when List.mem name approx_stages ->
                Trace.child ctx name elapsed_ns
              | L.Obs.Count { name = "approx.acq_fastpath"; value; _ } ->
                ss.fastpath <- ss.fastpath + value
              | L.Obs.Count { name = "approx.acq_fallback"; value; _ } ->
                ss.fallback <- ss.fallback + value
              | _ -> ())
            (L.Obs.events buf);
          (rel, completeness_note db q))
    in
    span "relational.decode" (fun () -> render_relation (fst rel) ^ snd rel)
  | Write ->
    let db = span "format.parse" (fun () -> L.Ldb_format.parse r.text) in
    let fact = span "logic.parse" (fun () -> ground_fact r.arg) in
    let session = span "incr.create" (fun () -> L.Incr_session.create db) in
    span "incr.apply" (fun () ->
        if r.insert then L.Incr_session.insert session fact
        else L.Incr_session.retract session fact);
    span "format.print" (fun () -> L.Ldb_format.print (L.Incr_session.db session))

(* --- inputs and references ----------------------------------------------- *)

let parse_rows out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> l <> "" && l.[0] <> '(')
  |> List.map (fun l -> String.split_on_char ',' l |> List.map String.trim)

let expect_answer (e : Reference.expected) out =
  match e with
  | Reference.Bool v -> out = render_bool v
  | Reference.Rows rows ->
    Reference.equal_rows (parse_rows out) rows
    && List.mem (Printf.sprintf "(%d tuples)" (List.length rows)) (String.split_on_char '\n' out)

let fact_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "fact ")
  |> List.sort compare

type inputs = {
  exact : req array;  (* one cycle, in seeded order *)
  approx : req array;
  writes : req array;
  references : unit Lazy.t list;  (* forced after set-up, before timing *)
}

(* One request per distinct database text: the untimed pass that
   warms the heap before the first timed request. *)
let warm_up inputs =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem seen (r.kind, r.text)) then begin
        Hashtbl.replace seen (r.kind, r.text) ();
        ignore (run r)
      end)
    (Array.concat [ inputs.exact; inputs.approx; inputs.writes ])

(* Exact requests per cycle of 40: fourteen early exits, twelve scans
   of 226 structures, thirteen of 2,787 and one of all 38,699 — so the
   median falls in the middle of the 226-structure scans and p90 among
   the 2,787 ones, never on a step between tiers. *)
let generate ~seed =
  let st = Gen.shapes 3 in
  let relabeled tag (e : Gen.exact) = (e, Gen.relabel seed tag e.db.constants) in
  let e226 = relabeled 1 (Gen.exact st ~prefix:"a" ~constants:16 ~unknowns:2) in
  let e2787 = relabeled 2 (Gen.exact st ~prefix:"b" ~constants:16 ~unknowns:3) in
  let e29371 = relabeled 3 (Gen.exact st ~prefix:"c" ~constants:10 ~unknowns:6) in
  let e38699 = relabeled 4 (Gen.exact st ~prefix:"d" ~constants:12 ~unknowns:5) in
  let any ((e : Gen.exact), _) =
    List.nth e.db.constants (Random.State.int st (List.length e.db.constants))
  in
  let open Printf in
  let full_answer e = sprintf "(x). P(x) \\/ R(x, %s)" (any e) in
  let full_bool e = sprintf "(). exists x. P(x) \\/ R(%s, x)" (any e) in
  let early e = sprintf "(). forall x. P(x) \\/ R(x, %s) \\/ R(%s, x)" (any e) (any e) in
  let exact_specs =
    List.concat_map
      (fun (e, n) -> List.init n (fun _ -> (e, early e)))
      [ (e226, 4); (e2787, 4); (e29371, 3); (e38699, 3) ]
    @ List.init 2 (fun _ -> (e226, "(x). ~P(x) /\\ (exists y. R(x, y))"))
    @ List.init 5 (fun _ -> (e226, full_answer e226))
    @ List.init 5 (fun _ -> (e226, full_bool e226))
    @ List.init 7 (fun _ -> (e2787, full_answer e2787))
    @ List.init 6 (fun _ -> (e2787, full_bool e2787))
    @ [ (e38699, full_bool e38699) ]
  in
  let references = ref [] in
  let reference f =
    let l = lazy (f ()) in
    references := lazy (ignore (Lazy.force l)) :: !references;
    l
  in
  let exact =
    List.map
      (fun (((e : Gen.exact), f), q) ->
        let q = Gen.rename_text f e.db q in
        let db = Gen.rename f e.db in
        let expected =
          reference (fun () -> (Reference.certain (Gen.to_cw db) [| L.Parser.query q |]).(0))
        in
        {
          kind = Exact;
          text = Gen.to_text db;
          arg = q;
          insert = false;
          check = (fun out -> expect_answer (Lazy.force expected) out);
        })
      exact_specs
  in
  let approx_db n =
    let db = Gen.approx st ~constants:n ~unknowns:3 ~block:24 in
    Gen.rename (Gen.relabel seed n db.constants) db
  in
  let a128 = approx_db 128 and a192 = approx_db 192 and a256 = approx_db 256 in
  let cqs =
    Reference.
      [
        { head = [ "x"; "w" ]; exists = [ "y"; "z" ];
          atoms = [ pos "R" [ "x"; "y" ]; pos "S" [ "y"; "z" ]; pos "T" [ "z"; "w" ] ] };
        { head = [ "h" ]; exists = [ "a"; "b"; "c" ];
          atoms = [ pos "R" [ "h"; "a" ]; pos "S" [ "h"; "b" ]; pos "T" [ "h"; "c" ] ] };
        { head = [ "x" ]; exists = [ "y"; "z" ];
          atoms = [ pos "R" [ "x"; "y" ]; pos "S" [ "y"; "z" ]; pos "T" [ "z"; "x" ] ] };
        { head = [ "s"; "t" ]; exists = [ "x"; "y" ];
          atoms = [ pos "A" [ "s"; "x" ]; pos "M" [ "x"; "y" ]; pos "B" [ "y"; "t" ] ] };
        { head = [ "x" ]; exists = [ "y" ]; atoms = [ pos "R" [ "x"; "y" ]; neg "U" [ "y" ] ] };
      ]
  in
  (* A negated binary atom is the costly alpha/NE case: on the
     optimized backend it takes seconds per request at 128 constants,
     so it runs once per cycle on a database of 40, where it costs
     about as much as the other requests. *)
  let negated_binary =
    Reference.
      { head = [ "x" ]; exists = [ "y" ]; atoms = [ pos "R" [ "x"; "y" ]; neg "S" [ "x"; "y" ] ] }
  in
  let a40 =
    let db = Gen.approx st ~constants:40 ~unknowns:3 ~block:4 in
    Gen.rename (Gen.relabel seed 40 db.constants) db
  in
  (* Approx requests per cycle of 21: each positive or unary-negated
     query on one database of 128 constants, two of 192 and one of 256,
     and the negated binary one on 40, so the median falls in the
     middle of the 192s and p90 in the middle of the 256s. *)
  let approx =
    List.concat_map
      (fun (db, cqs) ->
        let text = Gen.to_text db in
        List.map
          (fun cq ->
            let expected = reference (fun () -> Reference.approx db cq) in
            let q = Reference.cq_text cq in
            (* The databases have unknowns, so only a positive query is
               answered completely (Theorem 13). *)
            let note =
              note
                (if List.exists (fun a -> a.Reference.negated) cq.Reference.atoms then
                   L.Approx.Sound_only
                 else L.Approx.Complete_positive)
            in
            {
              kind = Approx;
              text;
              arg = q;
              insert = false;
              check =
                (fun out ->
                  expect_answer (Lazy.force expected) out
                  && String.ends_with ~suffix:note out);
            })
          cqs)
      [ (a128, cqs); (a192, cqs); (a192, cqs); (a256, cqs); (a40, [ negated_binary ]) ]
  in
  let writes =
    List.concat_map
      (fun (e, f) ->
        let e = Gen.rename_exact f e in
        let text = Gen.to_text e.db in
        let lines facts = List.sort compare (List.map (fun f -> "fact " ^ Gen.fact_text f) facts) in
        let write ~insert fact facts =
          let want = lines facts in
          {
            kind = Write;
            text;
            arg = Gen.fact_text fact;
            insert;
            check = (fun out -> fact_lines out = want);
          }
        in
        let added = ("P", [ List.hd e.spare ]) in
        let removed = List.nth e.db.facts (Random.State.int st (List.length e.db.facts)) in
        [
          write ~insert:true added (added :: e.db.facts);
          write ~insert:false removed (List.filter (fun f -> f <> removed) e.db.facts);
        ])
      [ e226; e2787 ]
  in
  {
    exact = Gen.shuffle st (Array.of_list exact);
    approx = Gen.shuffle st (Array.of_list approx);
    writes = Array.of_list writes;
    references = !references;
  }

(* One super-cycle: one approx cycle, four exact cycles and five writes
   per eight exact requests, interleaved in seeded order. [ldb query] is
   the workload; writes are there only so that [write_p50_ms] and
   [write_p99_ms] exist, at the smallest share that still leaves ten
   samples above p99 in a 30 s run: about 1,000 writes, a third of the
   requests, beside about 200 approx and 1,700 exact requests. *)
let stream ~seed inputs =
  let st = Gen.rng seed 4 in
  let n_exact = Array.length inputs.exact in
  let cycle =
    Gen.schedule st [ (0, Array.length inputs.approx); (1, 4 * n_exact); (2, 5 * n_exact / 2) ]
  in
  let pos = ref 0 and na = ref 0 and ne = ref 0 and nw = ref 0 in
  fun () ->
    let slot = cycle.(!pos mod Array.length cycle) in
    incr pos;
    let next a n =
      let r = a.(!n mod Array.length a) in
      incr n;
      r
    in
    match slot with
    | 0 -> next inputs.approx na
    | 1 -> next inputs.exact ne
    | _ -> next inputs.writes nw
