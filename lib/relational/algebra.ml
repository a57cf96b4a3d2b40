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

(* A [Virtual] operand, or a column permutation of one: its name and,
   for each operand column, the virtual column it holds. *)
let virtual_operand = function
  | Virtual (name, k) -> Some (name, Array.init k Fun.id)
  | Project (cols, Virtual (name, k))
    when List.sort compare cols = List.init k Fun.id ->
    Some (name, Array.of_list cols)
  | _ -> None

(* For an operand of width [k] that meets the other operand on [pairs]
   (other column, operand column), the other column fixing each operand
   column; [None] when some operand column is left free. *)
let fixing k pairs =
  let src = Array.make k (-1) in
  List.iter (fun (o, c) -> src.(c) <- o) pairs;
  if Array.mem (-1) src then None else Some (Array.to_list src)

let project cols r =
  Relation.fold
    (fun row acc ->
      let arr = Array.of_list row in
      Relation.add (List.map (fun i -> arr.(i)) cols) acc)
    r
    (Relation.empty (List.length cols))

let run ?(virtuals = Eval.no_virtuals) db expr =
  (* Validate the whole tree (arities, column ranges) up front so run
     failures always surface as Eval_error. *)
  let _ = arity db expr in
  let hook name =
    match virtuals name with
    | Some check -> check
    | None -> error "Algebra: no implementation for virtual relation %s" name
  in
  (* The rows of a virtual operand that can meet a row of [other], when
     [src] names the column of [other] that fixes each operand column:
     [other] projected onto [src], kept where the hook holds, so the
     hook runs once per distinct row. Inter, Join and Semijoin give the
     same answer on these rows as on the operand built over D^k, since
     every operand row they keep is such a projection. *)
  let bounded (name, cols, src) other =
    let check = hook name in
    let args = Array.make (Array.length cols) "" in
    Relation.filter
      (fun row ->
        List.iteri (fun i v -> args.(cols.(i)) <- v) row;
        check (Array.to_list args))
      (project src other)
  in
  let rec go expr =
    match expr with
    | Base p -> (
      match Database.relation_opt db p with
      | Some r -> r
      | None -> error "Algebra: unknown base relation %s" p)
    | Virtual (name, k) ->
      let check = hook name in
      Obs.count "relational.virtual_full" 1;
      Relation.filter check (Relation.full ~domain:(Database.domain db) k)
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
    | Project (cols, e) -> project cols (go e)
    | Product (a, b) -> Relation.product (go a) (go b)
    | Join (pairs, a, b) ->
      let ra, rb = operands ~pairs a b in
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
      let ra, rb = operands ~pairs a b in
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
    | Inter (a, b) ->
      let ra, rb = operands a b in
      Relation.inter ra rb
    | Diff (a, b) -> Relation.diff (go a) (go b)
  (* Both operands of a binary node whose rows meet on [pairs] (left
     column, right column), or column by column when [pairs] is absent
     ([Inter]). A virtual operand whose every column the other operand
     fixes is built by [bounded] from the other operand's rows. *)
  and operands ?pairs a b =
    let fixed operand pairs =
      Option.bind (virtual_operand operand) (fun (name, cols) ->
          let k = Array.length cols in
          let pairs =
            Option.value pairs ~default:(List.init k (fun i -> (i, i)))
          in
          Option.map (fun src -> (name, cols, src)) (fixing k pairs))
    in
    let swapped = Option.map (List.map (fun (i, j) -> (j, i))) pairs in
    match (fixed b pairs, fixed a swapped) with
    | Some v, _ ->
      let ra = go a in
      (ra, bounded v ra)
    | None, Some v ->
      let rb = go b in
      (bounded v rb, rb)
    | None, None -> (go a, go b)
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
