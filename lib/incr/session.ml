module Cw_database = Vardi_cwdb.Cw_database
module Query = Vardi_logic.Query
module Formula = Vardi_logic.Formula
module Symtab = Vardi_interned.Symtab
module Irel = Vardi_interned.Irel
module Idb = Vardi_interned.Idb
module Iscan = Vardi_interned.Iscan
module Icode = Vardi_interned.Icode
module Certain = Vardi_certain.Engine
module Obs = Vardi_obs.Obs

(* Renaming arrays as hash keys. The generic [Hashtbl.hash] only
   inspects a bounded prefix, and restricted-growth arrays share long
   prefixes (they differ mostly in the later positions), so the cache
   needs a full-array hash to avoid degenerate buckets. *)
module Rkey = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (a : int array) =
    Array.fold_left (fun h x -> (h * 31) + x + 1) (Array.length a) a
    land max_int
end

module Rtbl = Hashtbl.Make (Rkey)

(* One immutable snapshot of the resident database. Mutations swap the
   session's current view; a prepared query captures the view it was
   prepared against, so in-flight scans are never disturbed. *)
type view = {
  v_db : Cw_database.t;
  v_plan : Iscan.plan;
  v_tab_epoch : int;  (* bumped when the constant coding changes (merge) *)
  v_slot_epochs : int array;  (* per relation slot; bumped by fact deltas *)
  v_delta_epoch : int;  (* bumped by every mutation; outer caches key on it *)
}

(* One cached quotient structure: the universe depends only on the
   renaming; each relation slot carries the slot epoch it was derived
   at ([-1] = never built). *)
type centry = {
  c_universe : int array;
  c_slots : (int * Irel.t) array;
}

(* One memo per query, from a structure's renaming to its result: the
   image answer as the compiled kernel produced it (packed keys, not
   unpacked rows, so a warm memo costs one int per answer tuple) or
   the Boolean check. Every entry was computed at the one dependency
   signature [qe_sig]; a prepare at another signature empties both
   tables and claims them ([claim]). A query is Boolean or not, so
   one of the two tables stays empty. *)
type query_entry = {
  qe_deps : int array;  (* relation slots the query reads, sorted *)
  mutable qe_sig : int array;
  qe_answers : Icode.answer Rtbl.t;
  qe_bools : bool Rtbl.t;
}

(* A materialized renaming stream. The partition enumeration depends
   only on the symtab (the constant count and the uniqueness bit matrix
   it reads), never on the facts, so across fact deltas — which keep
   the symtab physically intact — the stream is bit-identical and the
   tree walk can be paid once. Keyed on physical symtab identity: a
   distinct-closure or a merge installs a new symtab and the entry
   simply stops matching. [re_reprs = None] is a negative entry: the
   stream is longer than the capacity, so scans stream it afresh
   instead of forcing [capacity + 1] renamings to find that out. *)
type ren_entry = {
  re_tab : Symtab.t;
  re_order : Certain.order;
  re_reprs : int array array option;
}

type t = {
  lock : Mutex.t;  (* guards view, cache, queries and the memo tables *)
  capacity : int;
  mutable view : view;
  mutable cache_era : int;  (* tab epoch the structure cache speaks *)
  cache : centry Rtbl.t;
  mutable ren_cache : ren_entry list;  (* at most one per live (tab, order) *)
  queries : (Query.t, query_entry) Hashtbl.t;
  memo_hits : int Atomic.t;
  memo_misses : int Atomic.t;
  slot_reuses : int Atomic.t;
  slot_rebuilds : int Atomic.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Empty [entry]'s memo for [signature]. *)
let retag entry signature =
  Rtbl.reset entry.qe_answers;
  Rtbl.reset entry.qe_bools;
  entry.qe_sig <- signature

let create ?(cache_capacity = 4096) ?(delta_epoch = 0) db =
  let plan = Iscan.prepare db in
  let k = Symtab.rel_count (Iscan.symtab plan) in
  {
    lock = Mutex.create ();
    capacity = max 1 cache_capacity;
    view =
      {
        v_db = db;
        v_plan = plan;
        v_tab_epoch = 0;
        v_slot_epochs = Array.make (max k 1) 0;
        v_delta_epoch = delta_epoch;
      };
    cache_era = 0;
    cache = Rtbl.create 256;
    ren_cache = [];
    queries = Hashtbl.create 16;
    memo_hits = Atomic.make 0;
    memo_misses = Atomic.make 0;
    slot_reuses = Atomic.make 0;
    slot_rebuilds = Atomic.make 0;
  }

let db t = locked t (fun () -> t.view.v_db)
let delta_epoch t = locked t (fun () -> t.view.v_delta_epoch)

(* --- mutations ------------------------------------------------------ *)

(* Fact deltas keep the symtab: inserting or retracting a fact changes
   neither the constant set nor the distinct pairs, so the codes (and
   every code array in the caches) stay valid; only the touched
   predicate's slot epoch moves, and [plan] is the old plan patched
   with the one fact ([Iscan.add_fact] / [Iscan.remove_fact]). *)
let install_fact_delta t v db plan pred =
  let tab = Iscan.symtab v.v_plan in
  let slot =
    match Symtab.rel_slot tab pred with
    | Some s -> s
    | None -> assert false (* the fact was validated against the vocabulary *)
  in
  let slot_epochs = Array.copy v.v_slot_epochs in
  slot_epochs.(slot) <- slot_epochs.(slot) + 1;
  t.view <-
    {
      v_db = db;
      v_plan = plan;
      v_tab_epoch = v.v_tab_epoch;
      v_slot_epochs = slot_epochs;
      v_delta_epoch = v.v_delta_epoch + 1;
    };
  Obs.count "incr.mutation" 1

let insert t fact =
  locked t (fun () ->
      let v = t.view in
      (* Adding a present fact is a no-op: skip the epoch bump so warm
         caches stay warm. A present fact is valid; a new one is
         checked by [add_fact] before the plan is touched. *)
      if not (Cw_database.mem_fact v.v_db fact) then begin
        let db = Cw_database.add_fact v.v_db fact in
        install_fact_delta t v db
          (Iscan.add_fact v.v_plan fact)
          fact.Cw_database.pred
      end)

let retract t fact =
  locked t (fun () ->
      let v = t.view in
      let db = Cw_database.remove_fact v.v_db fact in
      install_fact_delta t v db
        (Iscan.remove_fact v.v_plan fact)
        fact.Cw_database.pred)

let close_unknown t c d ~to_ =
  locked t (fun () ->
      let v = t.view in
      match to_ with
      | `Distinct ->
        (* An axiom already present is a no-op; a new one is checked by
           [add_distinct]. *)
        if not (Cw_database.are_distinct v.v_db c d) then begin
          let db = Cw_database.add_distinct v.v_db c d in
          (* Codes and facts are unchanged — the new uniqueness axiom
             only prunes the partition enumeration. The symtab is
             rebuilt over the new database's bit matrix, which
             [add_distinct] copied, and every coded fact is kept
             ([Iscan.with_axioms]); every cached structure and memo
             entry stays valid: quotient structures and their per-query
             answers never consult the distinct pairs. *)
          t.view <-
            {
              v_db = db;
              v_plan = Iscan.with_axioms v.v_plan db;
              v_tab_epoch = v.v_tab_epoch;
              v_slot_epochs = v.v_slot_epochs;
              v_delta_epoch = v.v_delta_epoch + 1;
            };
          Obs.count "incr.mutation" 1
        end
      | `Equal ->
        let db = Cw_database.merge_constants v.v_db ~keep:c ~drop:d in
        (* The merge re-codes the constants: every cached code array is
           orphaned, so this is the one mutation that resets the world. *)
        let plan = Iscan.prepare db in
        let k = Symtab.rel_count (Iscan.symtab plan) in
        let tab_epoch = v.v_tab_epoch + 1 in
        Rtbl.reset t.cache;
        (* Queries prepared before the merge may still hold these
           memos: emptied, and tagged with a signature no scan holds,
           they serve and keep nothing. *)
        Hashtbl.iter (fun _ entry -> retag entry [||]) t.queries;
        Hashtbl.reset t.queries;
        t.cache_era <- tab_epoch;
        t.view <-
          {
            v_db = db;
            v_plan = plan;
            v_tab_epoch = tab_epoch;
            v_slot_epochs = Array.make (max k 1) 0;
            v_delta_epoch = v.v_delta_epoch + 1;
          };
        Obs.count "incr.mutation" 1)

(* --- mutations as data (the durable layer's replay entry point) ----- *)

type mutation =
  | Insert of Cw_database.fact
  | Retract of Cw_database.fact
  | Close of { left : string; right : string; equal : bool }

let apply t m =
  let before = delta_epoch t in
  (match m with
  | Insert fact -> insert t fact
  | Retract fact -> retract t fact
  | Close { left; right; equal } ->
    close_unknown t left right ~to_:(if equal then `Equal else `Distinct));
  delta_epoch t > before

(* --- the structure cache -------------------------------------------- *)

(* The quotient under [repr], built from the cache: run only when the
   memo misses (see [source_for]). [needed] marks the slots the
   consuming prepared query reads. Stale non-needed slots are passed
   through as-is: the compiled answer plan and the Boolean check only
   ever dereference the query's own predicates, and the store-back
   below records true epochs, so a stale pass-through can never be
   mistaken for fresh data by anyone else. *)
let structure_for t view needed repr =
  let plan = view.v_plan in
  let tab = Iscan.symtab plan in
  let nslots = Symtab.rel_count tab in
  let cached =
    locked t (fun () ->
        if t.cache_era <> view.v_tab_epoch then `Bypass
        else
          match Rtbl.find_opt t.cache repr with
          | Some e -> `Hit (e.c_universe, e.c_slots)
          | None -> `Miss)
  in
  match cached with
  | `Bypass ->
    (* A scan whose view predates a merge: the shared cache now speaks
       a different constant coding, so build fresh and leave it be. *)
    Lazy.force (Iscan.image plan repr).Iscan.idb
  | (`Hit _ | `Miss) as c ->
    let universe =
      match c with
      | `Hit (u, _) -> u
      | `Miss -> Iscan.universe plan repr
    in
    let slots =
      match c with
      | `Hit (_, s) -> Array.copy s
      | `Miss -> Array.make nslots (-1, Irel.empty 0)
    in
    let reused = ref 0 in
    let rebuilt = ref 0 in
    let rels =
      Array.init nslots (fun slot ->
          let want = view.v_slot_epochs.(slot) in
          let have, rel = slots.(slot) in
          if have = want then begin
            incr reused;
            rel
          end
          else if not needed.(slot) then rel
          else begin
            let rel = Iscan.image_slot plan repr slot in
            slots.(slot) <- (want, rel);
            incr rebuilt;
            rel
          end)
    in
    if !reused > 0 then begin
      ignore (Atomic.fetch_and_add t.slot_reuses !reused);
      Obs.count "incr.slot_reuse" !reused
    end;
    if !rebuilt > 0 then begin
      ignore (Atomic.fetch_and_add t.slot_rebuilds !rebuilt);
      Obs.count "incr.slot_rebuild" !rebuilt
    end;
    (* Nothing to publish on a rebuild-free hit — skip the lock. *)
    (if !rebuilt > 0 || c = `Miss then
       locked t (fun () ->
           if t.cache_era = view.v_tab_epoch then
             match Rtbl.find_opt t.cache repr with
             | Some entry ->
               (* Monotonic store-back: never clobber a slot a newer
                  view already refreshed. *)
               Array.iteri
                 (fun slot ((ep, _) as cell) ->
                   let cur, _ = entry.c_slots.(slot) in
                   if ep > cur then entry.c_slots.(slot) <- cell)
                 slots
             | None ->
               if Rtbl.length t.cache < t.capacity then
                 Rtbl.replace t.cache repr
                   { c_universe = universe; c_slots = slots }));
    { Idb.tab; interp = repr; universe; rels }

(* --- engine integration --------------------------------------------- *)

(* Force at most [bound + 1] elements; [None] means the stream is too
   long to be worth materializing (fall back to streaming it). *)
let materialize_bounded seq bound =
  let acc = ref [] in
  let n = ref 0 in
  let rec go s =
    if !n > bound then None
    else
      match s () with
      | Seq.Nil -> Some (Array.of_list (List.rev !acc))
      | Seq.Cons (x, rest) ->
        incr n;
        acc := x :: !acc;
        go rest
  in
  go seq

let cached_renamings t view order =
  let tab = Iscan.symtab view.v_plan in
  let find () =
    List.find_opt
      (fun e -> e.re_tab == tab && e.re_order = order)
      t.ren_cache
  in
  match locked t find with
  | Some e -> e.re_reprs
  | None ->
    let reprs =
      materialize_bounded (Iscan.renamings ~order view.v_plan) t.capacity
    in
    locked t (fun () ->
        if Option.is_none (find ()) then begin
          if Option.is_none reprs then Obs.count "incr.renamings_uncached" 1;
          t.ren_cache <-
            { re_tab = tab; re_order = order; re_reprs = reprs }
            :: List.filteri (fun i _ -> i < 3) t.ren_cache
        end);
    reprs

(* Memo first: a structure is handed out as its renaming with the
   quotient deferred, and only an evaluation the memo misses forces
   it. *)
let source_for t view needed =
  let plan = view.v_plan in
  let structure repr =
    { Iscan.idb = lazy (structure_for t view needed repr); rename = repr }
  in
  {
    Certain.source_plan = plan;
    source_thunks =
      (fun Certain.Kernel_partitions order ->
        let reprs =
          match cached_renamings t view order with
          | Some arr -> Array.to_seq arr
          | None -> Iscan.renamings ~order plan
        in
        Seq.map (fun repr () -> structure repr) reprs);
    source_discrete =
      (fun () ->
        let n = Symtab.size (Iscan.symtab plan) in
        structure (Array.init (max n 1) Fun.id));
  }

let deps_of tab q =
  Formula.free_preds (Query.body q)
  |> List.filter_map (fun (name, _arity) -> Symtab.rel_slot tab name)
  |> List.sort_uniq Int.compare
  |> Array.of_list

(* The dependency signature of a query's memo: the tab epoch plus the
   slot epochs of exactly the predicates the query reads. A delta on
   any other predicate leaves it unchanged, so the memo keeps hitting
   across it. *)
let signature_of view deps =
  Array.append
    [| view.v_tab_epoch |]
    (Array.map (fun slot -> view.v_slot_epochs.(slot)) deps)

(* The current view and [q]'s memo, claimed for the view's signature,
   under one lock. A claim at a signature the memo does not hold
   empties the memo; at the one it holds, it keeps it. The returned
   signature is the memo's own array, which scans compare by identity:
   signatures only grow, so a prepared query whose array is no longer
   the memo's was prepared before a dependent delta. *)
let claim t q =
  locked t (fun () ->
      let view = t.view in
      let entry =
        match Hashtbl.find_opt t.queries q with
        | Some e -> e
        | None ->
          let e =
            {
              qe_deps = deps_of (Iscan.symtab view.v_plan) q;
              qe_sig = [||];
              qe_answers = Rtbl.create 64;
              qe_bools = Rtbl.create 64;
            }
          in
          if Hashtbl.length t.queries < t.capacity then
            Hashtbl.replace t.queries q e;
          e
      in
      let signature = signature_of view entry.qe_deps in
      if not (Rkey.equal signature entry.qe_sig) then retag entry signature;
      (view, entry, entry.qe_sig))

(* [base] behind [table], one of [entry]'s memos. A scan whose
   signature is no longer the memo's neither reads nor writes it, so
   it never sees a newer view's results, and a prepared query left in
   an outer cache keeps no stale entries alive. *)
let memoized t entry signature table base (s : Iscan.structure) =
  let key = s.Iscan.rename in
  let hit =
    locked t (fun () ->
        if entry.qe_sig == signature then Rtbl.find_opt table key else None)
  in
  match hit with
  | Some r ->
    Atomic.incr t.memo_hits;
    Obs.count "incr.memo_hit" 1;
    r
  | None ->
    let r = base s in
    Atomic.incr t.memo_misses;
    Obs.count "incr.memo_miss" 1;
    locked t (fun () ->
        if entry.qe_sig == signature && Rtbl.length table < t.capacity then
          Rtbl.replace table key r);
    r

let prepare ?kernel:_ t q =
  let view, entry, signature = claim t q in
  let needed =
    let n = Symtab.rel_count (Iscan.symtab view.v_plan) in
    let a = Array.make (max n 1) false in
    Array.iter (fun slot -> a.(slot) <- true) entry.qe_deps;
    a
  in
  Certain.prepare_with
    ~source:(source_for t view needed)
    ~wrap_answer:(memoized t entry signature entry.qe_answers)
    ~wrap_check:(memoized t entry signature entry.qe_bools)
    view.v_db q

(* --- stats ----------------------------------------------------------- *)

type stats = {
  s_delta_epoch : int;
  s_tab_epoch : int;
  s_memo_hits : int;
  s_memo_misses : int;
  s_slot_reuses : int;
  s_slot_rebuilds : int;
  s_structures_cached : int;
  s_queries_tracked : int;
}

let stats t =
  locked t (fun () ->
      {
        s_delta_epoch = t.view.v_delta_epoch;
        s_tab_epoch = t.view.v_tab_epoch;
        s_memo_hits = Atomic.get t.memo_hits;
        s_memo_misses = Atomic.get t.memo_misses;
        s_slot_reuses = Atomic.get t.slot_reuses;
        s_slot_rebuilds = Atomic.get t.slot_rebuilds;
        s_structures_cached = Rtbl.length t.cache;
        s_queries_tracked = Hashtbl.length t.queries;
      })
