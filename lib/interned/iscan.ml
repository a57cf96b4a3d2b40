module Cw_database = Vardi_cwdb.Cw_database
module Partition = Vardi_cwdb.Partition

type structure = {
  idb : Idb.t Lazy.t;
  rename : int array;  (* constant code -> representative code *)
}

type plan = {
  tab : Symtab.t;
  n : int;
  (* Root relations: empty except for nullary facts, which no renaming
     can touch. *)
  base : Irel.t array;
  (* Per-depth fact buckets, grouped by relation slot: the facts whose
     maximum argument code is [d] become final the moment constant [d]
     is assigned a representative, and are folded into the image
     exactly once, at that depth of the enumeration tree. *)
  pending : (int * int array list) list array;
  (* All facts as (slot, arg codes), for paths that build whole images
     at once (the discrete seed, and a session's cached structures). *)
  facts_by_slot : int array list array;
}

(* The depth at which a fact with these codes becomes final: its
   largest code, or -1 for a nullary fact (a root relation's). *)
let depth codes = Array.fold_left max (-1) codes

(* [groups] with [codes] filed under [slot]. *)
let add_to_group groups slot codes =
  match List.assoc_opt slot groups with
  | Some rows -> (slot, codes :: rows) :: List.remove_assoc slot groups
  | None -> (slot, [ codes ]) :: groups

let prepare db =
  let tab = Symtab.make db in
  let n = Symtab.size tab in
  let k = Symtab.rel_count tab in
  let base = Array.init k (fun s -> Irel.empty (Symtab.rel_arity tab s)) in
  let raw_pending = Array.make (max n 1) [] in
  let facts_by_slot = Array.make k [] in
  List.iter
    (fun { Cw_database.pred; args } ->
      let slot =
        match Symtab.rel_slot tab pred with
        | Some s -> s
        | None -> assert false (* facts are checked against the vocabulary *)
      in
      let codes = Symtab.code_tuple tab args in
      facts_by_slot.(slot) <- codes :: facts_by_slot.(slot);
      let d = depth codes in
      if d < 0 then base.(slot) <- Irel.add_rows base.(slot) [ codes ]
      else raw_pending.(d) <- (slot, codes) :: raw_pending.(d))
    (Cw_database.facts db);
  (* Group each bucket by slot once, here, so [extend] touches each
     affected relation exactly once with a ready-made batch. *)
  let pending =
    Array.map
      (List.fold_left
         (fun groups (slot, codes) -> add_to_group groups slot codes)
         [])
      raw_pending
  in
  { tab; n; base; pending; facts_by_slot }

(* --- fact deltas ---------------------------------------------------- *)

(* [fact]'s slot and codes under the plan's symtab. *)
let locate plan { Cw_database.pred; args } =
  let tab = plan.tab in
  match Symtab.rel_slot tab pred with
  | Some slot
    when Symtab.rel_arity tab slot = List.length args
         && List.for_all (fun c -> Symtab.code_opt tab c <> None) args ->
    (slot, Symtab.code_tuple tab args)
  | _ ->
    invalid_arg
      (Printf.sprintf "Iscan: fact %s(%s) is not over the plan's vocabulary"
         pred (String.concat ", " args))

let same_row a b = Irel.compare_rows a b = 0

(* A copy of [plan] whose [slot] holds [facts] and whose bucket for
   [codes] goes through [base] (nullary facts) or [bucket]; every
   other slot, bucket and array cell is shared with [plan], which is
   left as it was. *)
let patch plan slot codes facts ~base ~bucket =
  let facts_by_slot = Array.copy plan.facts_by_slot in
  facts_by_slot.(slot) <- facts;
  let d = depth codes in
  if d < 0 then begin
    let b = Array.copy plan.base in
    b.(slot) <- base b.(slot);
    { plan with base = b; facts_by_slot }
  end
  else begin
    let pending = Array.copy plan.pending in
    pending.(d) <- bucket pending.(d);
    { plan with pending; facts_by_slot }
  end

let add_fact plan fact =
  let slot, codes = locate plan fact in
  let facts = plan.facts_by_slot.(slot) in
  if List.exists (same_row codes) facts then plan
  else
    patch plan slot codes (codes :: facts)
      ~base:(fun rel -> Irel.add_rows rel [ codes ])
      ~bucket:(fun groups -> add_to_group groups slot codes)

let remove_fact plan fact =
  let slot, codes = locate plan fact in
  let facts = plan.facts_by_slot.(slot) in
  if not (List.exists (same_row codes) facts) then
    invalid_arg
      (Printf.sprintf "Iscan: fact %s(%s) is not in the plan"
         fact.Cw_database.pred
         (String.concat ", " fact.Cw_database.args));
  let keep rows = List.filter (fun r -> not (same_row codes r)) rows in
  patch plan slot codes (keep facts)
    ~base:(fun _ -> Irel.empty 0)
    ~bucket:
      (List.filter_map (fun (s, rows) ->
           if s <> slot then Some (s, rows)
           else match keep rows with [] -> None | rows -> Some (s, rows)))

(* --- axiom deltas ---------------------------------------------------- *)

(* Codes, slots and facts are untouched by a uniqueness axiom; only the
   bit matrix the symtab reads, which the enumeration consults,
   changes. *)
let with_axioms plan db =
  let tab = Symtab.make db in
  if not (Symtab.same_coding plan.tab tab) then
    invalid_arg
      "Iscan.with_axioms: the database's constants or vocabulary differ \
       from the plan's";
  { plan with tab }

let symtab plan = plan.tab

(* --- the restricted-growth enumeration ------------------------------ *)

(* One node of the restricted-growth enumeration tree: constants
   [0 .. depth-1] have representatives; [blocks] mirrors
   [Partition.all_valid]'s block list exactly (newest block first,
   members in descending insertion order) so the streams visit
   partitions in the same order — the positional budget-cap contract
   depends on it. [load] is what a stream carries down the tree besides
   the renaming: for [structure_thunks], the interned image of the
   facts finalized so far; for [renamings], nothing. *)
type 'a node = {
  depth : int;
  repr : int array;
  blocks : (int * int list) list;  (* (representative, members) *)
  load : 'a;
}

type choice =
  | Fresh
  | Join of int

(* The renaming of [node] extended by [choice]: constant [depth] is
   represented by itself (a fresh block) or by the [i]th block's
   representative. A leaf of the renaming stream needs nothing more. *)
let assign node choice =
  let c = node.depth in
  let repr = Array.copy node.repr in
  (repr.(c) <-
     (match choice with Fresh -> c | Join i -> fst (List.nth node.blocks i)));
  repr

(* The child of [node] for [choice]; [grow c repr load] carries the
   load over to the extended renaming. *)
let extend ~grow node choice =
  let c = node.depth in
  let repr = assign node choice in
  let blocks =
    match choice with
    | Fresh -> (c, [ c ]) :: node.blocks
    | Join i ->
      List.mapi
        (fun j (br, ms) -> if j = i then (br, c :: ms) else (br, ms))
        node.blocks
  in
  { depth = c + 1; repr; blocks; load = grow c repr node.load }

let root plan load =
  { depth = 0; repr = Array.make (max plan.n 1) (-1); blocks = []; load }

(* The one recursion behind both streams: the same [Fresh]/[Join]
   choice points as [Partition.all_valid], under the same uniqueness
   filter (constant [c] joins a block only if no member carries an
   axiom with it). The last constant's choices are handed to
   [leaf node choice] unextended, so each stream decides what its
   leaves compute and when. Branches are eta-expanded: nothing about a
   sibling subtree is computed until the stream actually reaches it.
   Needs at least one constant. *)
let enumerate ~order plan ~grow ~leaf load =
  let n = plan.n in
  let coding = Symtab.coding plan.tab in
  let rec expand node () =
    let c = node.depth in
    let child choice =
      if c = n - 1 then Seq.return (leaf node choice)
      else fun () -> expand (extend ~grow node choice) ()
    in
    let fresh = child Fresh in
    let joins =
      List.mapi
        (fun i (_, members) ->
          if Cw_database.Coding.distinct_from_any coding c members then None
          else Some (child (Join i)))
        node.blocks
      |> List.filter_map Fun.id
    in
    let join_seq = Seq.concat (List.to_seq joins) in
    match order with
    | Partition.Fresh_first -> Seq.append fresh join_seq ()
    | Partition.Merge_first -> Seq.append join_seq fresh ()
  in
  expand (root plan load)

(* --- the two streams ------------------------------------------------- *)

(* Copy-on-extend: the facts whose largest code is [c] become final
   when [c] is assigned, so extending a node copies only the relation
   slots that depth's bucket touches, sharing every other slot with the
   parent. *)
let grow_rels plan c repr rels =
  match plan.pending.(c) with
  | [] -> rels
  | groups ->
    let rels = Array.copy rels in
    List.iter
      (fun (slot, argss) ->
        let rows =
          List.map
            (fun args -> Array.map (fun a -> Array.unsafe_get repr a) args)
            argss
        in
        rels.(slot) <- Irel.add_rows rels.(slot) rows)
      groups;
    rels

(* Blocks are created with strictly increasing representatives (a fresh
   block's representative is the current constant), and the list is
   newest-first, so reversing it yields the universe already sorted. *)
let finish plan node =
  let universe = Array.of_list (List.rev_map fst node.blocks) in
  let idb =
    { Idb.tab = plan.tab; interp = node.repr; universe; rels = node.load }
  in
  { idb = Lazy.from_val idb; rename = node.repr }

(* The enumeration step (node extension bookkeeping) runs wherever the
   sequence is forced, while the last extension and [finish] are
   deferred into the returned thunk, so a consumer that forces the
   stream without calling the thunk — a positional budget cap probing
   for one more structure, or a session serving the position from its
   cache — pays no per-leaf relation work. *)
let structure_thunks ?(order = Partition.Fresh_first) plan =
  if plan.n = 0 then Seq.return (fun () -> finish plan (root plan plan.base))
  else
    let grow = grow_rels plan in
    enumerate ~order plan ~grow
      ~leaf:(fun node choice () -> finish plan (extend ~grow node choice))
      plan.base

(* The same recursion carrying nothing: position [i] names the same
   renaming as position [i] of [structure_thunks], which is what lets
   an incremental session substitute cached structures for stream
   positions without disturbing positional budget caps. *)
let renamings ?(order = Partition.Fresh_first) plan =
  if plan.n = 0 then Seq.return (root plan ()).repr
  else enumerate ~order plan ~grow:(fun _ _ () -> ()) ~leaf:assign ()

(* --- whole images --------------------------------------------------- *)

(* The sorted set of codes [map] maps onto. An unassigned entry ([-1],
   the root renaming of a database without constants) maps nowhere. *)
let universe plan map =
  let n = plan.n in
  let seen = Array.make (max n 1) false in
  Array.iter (fun e -> if e >= 0 then seen.(e) <- true) map;
  let count = ref 0 in
  for i = 0 to n - 1 do
    if seen.(i) then incr count
  done;
  let universe = Array.make !count 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if seen.(i) then begin
      universe.(!w) <- i;
      incr w
    end
  done;
  universe

let image plan map =
  let tab = plan.tab in
  let universe = universe plan map in
  let rels =
    Array.init (Symtab.rel_count tab) (fun slot ->
        Irel.of_rows
          (Symtab.rel_arity tab slot)
          (List.map
             (fun args -> Array.map (fun a -> Array.unsafe_get map a) args)
             plan.facts_by_slot.(slot)))
  in
  {
    idb = Lazy.from_val { Idb.tab; interp = map; universe; rels };
    rename = map;
  }

let image_slot plan map slot =
  Irel.of_rows
    (Symtab.rel_arity plan.tab slot)
    (List.map
       (fun args -> Array.map (fun a -> Array.unsafe_get map a) args)
       plan.facts_by_slot.(slot))

let discrete plan = image plan (Array.init (max plan.n 1) Fun.id)
