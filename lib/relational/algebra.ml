module Obs = Vardi_obs.Obs

type selection =
  | Cols_eq of int * int
  | Cols_neq of int * int
  | Col_eq_const of int * string
  | Col_neq_const of int * string
  | Consts_eq of string * string
  | Consts_neq of string * string

type t =
  | Base of string
  | Virtual of string * int
  | Domain
  | Empty of int
  | Select of selection * t
  | Project of int list * t
  | Product of t * t
  | Join of (int * int) list * t * t
  | Semijoin of (int * int) list * t * t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t

let error fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

let check_join_pairs ~ka ~kb pairs =
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= ka then
        error "Algebra: join column $%d out of range (left arity %d)" i ka;
      if j < 0 || j >= kb then
        error "Algebra: join column $%d out of range (right arity %d)" j kb)
    pairs

let rec arity db = function
  | Base p -> (
    match Database.relation_opt db p with
    | Some r -> Relation.arity r
    | None -> error "Algebra: unknown base relation %s" p)
  | Virtual (_, k) -> k
  | Domain -> 1
  | Empty k -> k
  | Select (sel, e) ->
    let k = arity db e in
    let check i =
      if i < 0 || i >= k then
        error "Algebra: selection column %d out of range (arity %d)" i k
    in
    (match sel with
    | Cols_eq (i, j) | Cols_neq (i, j) ->
      check i;
      check j
    | Col_eq_const (i, _) | Col_neq_const (i, _) -> check i
    | Consts_eq _ | Consts_neq _ -> ());
    k
  | Project (cols, e) ->
    let k = arity db e in
    List.iter
      (fun i ->
        if i < 0 || i >= k then
          error "Algebra: projection column %d out of range (arity %d)" i k)
      cols;
    List.length cols
  | Product (a, b) -> arity db a + arity db b
  | Join (pairs, a, b) ->
    let ka = arity db a and kb = arity db b in
    check_join_pairs ~ka ~kb pairs;
    ka + kb
  | Semijoin (pairs, a, b) ->
    let ka = arity db a and kb = arity db b in
    check_join_pairs ~ka ~kb pairs;
    ka
  | Union (a, b) | Inter (a, b) | Diff (a, b) ->
    let ka = arity db a and kb = arity db b in
    if ka <> kb then
      error "Algebra: set operation on arities %d and %d" ka kb;
    ka

let constant_of db c =
  try Database.constant db c
  with Not_found -> error "Algebra: unknown constant %s" c

let run ?(virtuals = Eval.no_virtuals) db expr =
  (* Validate the whole tree (arities, column ranges) up front so run
     failures always surface as Eval_error. *)
  let _ = arity db expr in
  let rec go expr =
    match expr with
    | Base p -> (
      match Database.relation_opt db p with
      | Some r -> r
      | None -> error "Algebra: unknown base relation %s" p)
    | Virtual (name, k) -> (
      match virtuals name with
      | None -> error "Algebra: no implementation for virtual relation %s" name
      | Some check ->
        Obs.count "relational.virtual_full" 1;
        Relation.filter check (Relation.full ~domain:(Database.domain db) k))
    | Domain ->
      Relation.of_tuples 1 (List.map (fun e -> [ e ]) (Database.domain db))
    | Empty k -> Relation.empty k
    | Select (sel, e) ->
      let r = go e in
      let keep row =
        let arr = Array.of_list row in
        match sel with
        | Cols_eq (i, j) -> String.equal arr.(i) arr.(j)
        | Cols_neq (i, j) -> not (String.equal arr.(i) arr.(j))
        | Col_eq_const (i, c) -> String.equal arr.(i) (constant_of db c)
        | Col_neq_const (i, c) -> not (String.equal arr.(i) (constant_of db c))
        | Consts_eq (c, d) -> String.equal (constant_of db c) (constant_of db d)
        | Consts_neq (c, d) ->
          not (String.equal (constant_of db c) (constant_of db d))
      in
      Relation.filter keep r
    | Project (cols, e) ->
      let r = go e in
      Relation.fold
        (fun row acc ->
          let arr = Array.of_list row in
          Relation.add (List.map (fun i -> arr.(i)) cols) acc)
        r
        (Relation.empty (List.length cols))
    | Product (a, b) -> Relation.product (go a) (go b)
    | Join (pairs, a, b) ->
      let ra = go a and rb = go b in
      let lcols = List.map fst pairs and rcols = List.map snd pairs in
      let key arr cols = List.map (fun i -> arr.(i)) cols in
      let table : (string list, string list list) Hashtbl.t =
        Hashtbl.create 64
      in
      Relation.fold
        (fun row () ->
          let k = key (Array.of_list row) rcols in
          let prev = try Hashtbl.find table k with Not_found -> [] in
          Hashtbl.replace table k (row :: prev))
        rb ();
      let out = Relation.arity ra + Relation.arity rb in
      Relation.fold
        (fun row acc ->
          let k = key (Array.of_list row) lcols in
          match Hashtbl.find_opt table k with
          | None -> acc
          | Some matches ->
            List.fold_left
              (fun acc rrow -> Relation.add (row @ rrow) acc)
              acc matches)
        ra (Relation.empty out)
    | Semijoin (pairs, a, b) ->
      let ra = go a and rb = go b in
      let lcols = List.map fst pairs and rcols = List.map snd pairs in
      let key arr cols = List.map (fun i -> arr.(i)) cols in
      let keys : (string list, unit) Hashtbl.t = Hashtbl.create 64 in
      Relation.fold
        (fun row () -> Hashtbl.replace keys (key (Array.of_list row) rcols) ())
        rb ();
      Relation.filter
        (fun row -> Hashtbl.mem keys (key (Array.of_list row) lcols))
        ra
    | Union (a, b) -> Relation.union (go a) (go b)
    | Inter (a, b) -> Relation.inter (go a) (go b)
    | Diff (a, b) -> Relation.diff (go a) (go b)
  in
  go expr

let rec size = function
  | Base _ | Virtual _ | Domain | Empty _ -> 1
  | Select (_, e) | Project (_, e) -> 1 + size e
  | Product (a, b)
  | Join (_, a, b)
  | Semijoin (_, a, b)
  | Union (a, b)
  | Inter (a, b)
  | Diff (a, b) -> 1 + size a + size b

let pp_selection ppf = function
  | Cols_eq (i, j) -> Fmt.pf ppf "$%d = $%d" i j
  | Cols_neq (i, j) -> Fmt.pf ppf "$%d != $%d" i j
  | Col_eq_const (i, c) -> Fmt.pf ppf "$%d = %s" i c
  | Col_neq_const (i, c) -> Fmt.pf ppf "$%d != %s" i c
  | Consts_eq (c, d) -> Fmt.pf ppf "%s = %s" c d
  | Consts_neq (c, d) -> Fmt.pf ppf "%s != %s" c d

let pp_pairs =
  Fmt.(list ~sep:comma (fun ppf (i, j) -> pf ppf "$%d=$%d" i j))

let rec pp ppf = function
  | Base p -> Fmt.string ppf p
  | Virtual (name, k) -> Fmt.pf ppf "virtual(%s/%d)" name k
  | Domain -> Fmt.string ppf "DOM"
  | Empty k -> Fmt.pf ppf "empty/%d" k
  | Select (sel, e) -> Fmt.pf ppf "select[%a](%a)" pp_selection sel pp e
  | Project (cols, e) ->
    Fmt.pf ppf "project[%a](%a)" Fmt.(list ~sep:comma int) cols pp e
  | Product (a, b) -> Fmt.pf ppf "(%a x %a)" pp a pp b
  | Join (pairs, a, b) ->
    Fmt.pf ppf "join[%a](%a, %a)" pp_pairs pairs pp a pp b
  | Semijoin (pairs, a, b) ->
    Fmt.pf ppf "semijoin[%a](%a, %a)" pp_pairs pairs pp a pp b
  | Union (a, b) -> Fmt.pf ppf "(%a U %a)" pp a pp b
  | Inter (a, b) -> Fmt.pf ppf "(%a n %a)" pp a pp b
  | Diff (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
