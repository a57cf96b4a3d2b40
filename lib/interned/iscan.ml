module Cw_database = Vardi_cwdb.Cw_database
module Partition = Vardi_cwdb.Partition

type structure = {
  idb : Idb.t;
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
     at once (the discrete seed and the naive-mapping algorithm). *)
  facts_by_slot : int array list array;
}

let mapping_cap = 1 lsl 24

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
   symtab's distinct matrix, which the enumeration consults, changes. *)
let with_axioms plan db =
  let tab = Symtab.make db in
  if not (Symtab.same_coding plan.tab tab) then
    invalid_arg
      "Iscan.with_axioms: the database's constants or vocabulary differ \
       from the plan's";
  { plan with tab }

let symtab plan = plan.tab

(* --- the kernel-partition stream ----------------------------------- *)

(* One node of the restricted-growth enumeration tree: constants
   [0 .. depth-1] have representatives; [blocks] mirrors
   [Partition.all_valid]'s block list exactly (newest block first,
   members in descending insertion order) so the two streams visit
   partitions in the same order — the positional budget-cap contract
   depends on it. [rels] is the interned image of the facts finalized
   so far; extending a node copies only the relation slots its depth's
   fact bucket touches, sharing every other slot with the parent. *)
type node = {
  depth : int;
  repr : int array;
  blocks : (int * int list) list;  (* (representative, members) *)
  rels : Irel.t array;
}

type choice =
  | Fresh
  | Join of int

let root plan =
  {
    depth = 0;
    repr = Array.make (max plan.n 1) (-1);
    blocks = [];
    rels = plan.base;
  }

let extend plan node choice =
  let c = node.depth in
  let repr = Array.copy node.repr in
  let blocks =
    match choice with
    | Fresh ->
      repr.(c) <- c;
      (c, [ c ]) :: node.blocks
    | Join i ->
      let r, _ = List.nth node.blocks i in
      repr.(c) <- r;
      List.mapi
        (fun j (br, ms) -> if j = i then (br, c :: ms) else (br, ms))
        node.blocks
  in
  let rels =
    match plan.pending.(c) with
    | [] -> node.rels
    | groups ->
      let rels = Array.copy node.rels in
      List.iter
        (fun (slot, argss) ->
          let rows =
            List.map
              (fun args ->
                Array.map (fun a -> Array.unsafe_get repr a) args)
              argss
          in
          rels.(slot) <- Irel.add_rows rels.(slot) rows)
        groups;
      rels
  in
  { depth = c + 1; repr; blocks; rels }

(* Blocks are created with strictly increasing representatives (a fresh
   block's representative is the current constant), and the list is
   newest-first, so reversing it yields the universe already sorted. *)
let finish plan node =
  let universe = Array.of_list (List.rev_map fst node.blocks) in
  let idb =
    { Idb.tab = plan.tab; interp = node.repr; universe; rels = node.rels }
  in
  { idb; rename = node.repr }

(* The enumeration step (node extension bookkeeping) runs wherever the
   sequence is forced, while the last extension and [finish] are
   deferred into the returned thunk, so a consumer that forces the
   stream without calling the thunk — a positional budget cap probing
   for one more structure, or a session serving the position from its
   cache — pays no per-leaf relation work. Branches are eta-expanded:
   nothing about a sibling subtree is computed until the stream
   actually reaches it. *)
let structure_thunks ?(order = Partition.Fresh_first) plan =
  let n = plan.n in
  if n = 0 then Seq.return (fun () -> finish plan (root plan))
  else
    let rec expand node () =
      let c = node.depth in
      let child choice : (unit -> structure) Seq.t =
        if c = n - 1 then
          Seq.return (fun () -> finish plan (extend plan node choice))
        else fun () -> expand (extend plan node choice) ()
      in
      let fresh = child Fresh in
      let joins =
        List.mapi
          (fun i (_, members) ->
            if
              List.for_all
                (fun d -> not (Symtab.distinct plan.tab c d))
                members
            then Some (child (Join i))
            else None)
          node.blocks
        |> List.filter_map Fun.id
      in
      let join_seq = Seq.concat (List.to_seq joins) in
      match order with
      | Partition.Fresh_first -> Seq.append fresh join_seq ()
      | Partition.Merge_first -> Seq.append join_seq fresh ()
    in
    expand (root plan)

(* --- the renaming stream -------------------------------------------- *)

(* [structure_thunks] with the image construction stripped out: the
   same restricted-growth recursion, the same [Fresh]/[Join] choice
   points, the same uniqueness filter — yielding only the completed
   representative arrays. Position [i] of this stream names the same
   renaming as position [i] of [structure_thunks], which is what lets
   an incremental session substitute cached structures for stream
   positions without disturbing positional budget caps. Kept textually
   parallel to [expand] above; any change to one must mirror into the
   other. *)
type light_node = {
  l_depth : int;
  l_repr : int array;
  l_blocks : (int * int list) list;
}

let renamings ?(order = Partition.Fresh_first) plan =
  let n = plan.n in
  if n = 0 then Seq.return (Array.make (max n 1) (-1))
  else
    let light_root =
      { l_depth = 0; l_repr = Array.make (max n 1) (-1); l_blocks = [] }
    in
    let light_extend node choice =
      let c = node.l_depth in
      let repr = Array.copy node.l_repr in
      let blocks =
        match choice with
        | Fresh ->
          repr.(c) <- c;
          (c, [ c ]) :: node.l_blocks
        | Join i ->
          let r, _ = List.nth node.l_blocks i in
          repr.(c) <- r;
          List.mapi
            (fun j (br, ms) -> if j = i then (br, c :: ms) else (br, ms))
            node.l_blocks
      in
      { l_depth = c + 1; l_repr = repr; l_blocks = blocks }
    in
    let rec expand node () =
      let c = node.l_depth in
      let child choice : int array Seq.t =
        if c = n - 1 then Seq.return (light_extend node choice).l_repr
        else fun () -> expand (light_extend node choice) ()
      in
      let fresh = child Fresh in
      let joins =
        List.mapi
          (fun i (_, members) ->
            if
              List.for_all
                (fun d -> not (Symtab.distinct plan.tab c d))
                members
            then Some (child (Join i))
            else None)
          node.l_blocks
        |> List.filter_map Fun.id
      in
      let join_seq = Seq.concat (List.to_seq joins) in
      match order with
      | Partition.Fresh_first -> Seq.append fresh join_seq ()
      | Partition.Merge_first -> Seq.append join_seq fresh ()
    in
    expand light_root

(* --- whole images --------------------------------------------------- *)

let image plan map =
  let tab = plan.tab in
  let n = plan.n in
  let seen = Array.make (max n 1) false in
  Array.iter (fun e -> seen.(e) <- true) map;
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
  let rels =
    Array.init (Symtab.rel_count tab) (fun slot ->
        Irel.of_rows
          (Symtab.rel_arity tab slot)
          (List.map
             (fun args -> Array.map (fun a -> Array.unsafe_get map a) args)
             plan.facts_by_slot.(slot)))
  in
  { idb = { Idb.tab; interp = map; universe; rels }; rename = map }

let image_slot plan map slot =
  Irel.of_rows
    (Symtab.rel_arity plan.tab slot)
    (List.map
       (fun args -> Array.map (fun a -> Array.unsafe_get map a) args)
       plan.facts_by_slot.(slot))

let discrete plan = image plan (Array.init (max plan.n 1) Fun.id)

(* --- the naive-mapping stream --------------------------------------- *)

(* Mirrors [Mapping.all_respecting]: base-[n] counters enumerated in
   index order (digit [i] of the counter gives [h(c_i)]), filtered by
   the uniqueness axioms, with the cap checked in the same integer
   arithmetic and raising the same message. The respecting filter runs
   during enumeration; image construction is deferred to the thunk. *)
let mapping_thunks plan =
  let n = plan.n in
  if n = 0 then Seq.return (fun () -> discrete plan)
  else begin
    let total =
      let rec go acc i =
        if i = 0 then acc
        else if acc > mapping_cap / n then
          invalid_arg
            (Printf.sprintf
               "Mapping.all: %d^%d mappings exceeds the enumeration cap" n n)
        else go (acc * n) (i - 1)
      in
      go 1 n
    in
    let distinct = Symtab.distinct_pairs plan.tab in
    let of_index index =
      let map = Array.make n 0 in
      let v = ref index in
      for i = 0 to n - 1 do
        map.(i) <- !v mod n;
        v := !v / n
      done;
      map
    in
    let respects map =
      Array.for_all (fun (i, j) -> map.(i) <> map.(j)) distinct
    in
    Seq.init total of_index
    |> Seq.filter respects
    |> Seq.map (fun map () -> image plan map)
  end

(* The renaming mirror of [mapping_thunks]: the same counters, cap and
   filter, yielding the maps themselves. *)
let mapping_renamings plan =
  let n = plan.n in
  if n = 0 then Seq.return (Array.init (max n 1) Fun.id)
  else begin
    let total =
      let rec go acc i =
        if i = 0 then acc
        else if acc > mapping_cap / n then
          invalid_arg
            (Printf.sprintf
               "Mapping.all: %d^%d mappings exceeds the enumeration cap" n n)
        else go (acc * n) (i - 1)
      in
      go 1 n
    in
    let distinct = Symtab.distinct_pairs plan.tab in
    let of_index index =
      let map = Array.make n 0 in
      let v = ref index in
      for i = 0 to n - 1 do
        map.(i) <- !v mod n;
        v := !v / n
      done;
      map
    in
    let respects map =
      Array.for_all (fun (i, j) -> map.(i) <> map.(j)) distinct
    in
    Seq.init total of_index |> Seq.filter respects
  end
