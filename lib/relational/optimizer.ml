open Algebra

(* Columns inspected by a selection, or [] for row-independent ones. *)
let selection_columns = function
  | Cols_eq (i, j) | Cols_neq (i, j) -> [ i; j ]
  | Col_eq_const (i, _) | Col_neq_const (i, _) -> [ i ]
  | Consts_eq _ | Consts_neq _ -> []

let shift_selection offset = function
  | Cols_eq (i, j) -> Cols_eq (i - offset, j - offset)
  | Cols_neq (i, j) -> Cols_neq (i - offset, j - offset)
  | Col_eq_const (i, c) -> Col_eq_const (i - offset, c)
  | Col_neq_const (i, c) -> Col_neq_const (i - offset, c)
  | (Consts_eq _ | Consts_neq _) as s -> s

(* Remap a selection's columns through a projection list: output column
   [i] of [Project (cols, e)] is input column [List.nth cols i]. *)
let remap_selection cols = function
  | Cols_eq (i, j) -> Cols_eq (List.nth cols i, List.nth cols j)
  | Cols_neq (i, j) -> Cols_neq (List.nth cols i, List.nth cols j)
  | Col_eq_const (i, c) -> Col_eq_const (List.nth cols i, c)
  | Col_neq_const (i, c) -> Col_neq_const (List.nth cols i, c)
  | (Consts_eq _ | Consts_neq _) as s -> s

let is_identity_projection cols k =
  List.length cols = k && List.mapi (fun i c -> i = c) cols |> List.for_all Fun.id

(* Universal expressions denote the full relation D^k. Every expression
   evaluates to a subset of D^k (database validation keeps all stored
   and virtual tuples inside the domain), which justifies absorbing
   universals in set operations and cancelling double complements. *)
let rec is_universal = function
  | Domain -> true
  | Product (a, b) -> is_universal a && is_universal b
  | Base _ | Virtual _ | Empty _ | Select _ | Project _ | Join _ | Semijoin _
  | Union _ | Inter _ | Diff _ ->
    false

(* --- cylinder recognition, the shape {!Compile} emits for atoms ---

   A "cylinder" is an expression of the form: a core expression, padded
   with full-domain [Domain] columns via [Product], with the columns
   possibly permuted by a [Project]. Column [i] of the cylinder is
   either [Core j] (column [j] of the core) or [Pad] (free over the
   domain). [Inter] of two cylinders is exactly an equi-join of their
   cores — fusing it avoids materializing the padded operands. *)
type cyl_col = Core of int | Pad

let rec cylinder db e =
  match e with
  | Product (a, Domain) ->
    Option.map
      (fun (core, cols) -> (core, Array.append cols [| Pad |]))
      (cylinder db a)
  | Product (Domain, a) ->
    Option.map
      (fun (core, cols) -> (core, Array.append [| Pad |] cols))
      (cylinder db a)
  | Project (cols, inner) -> (
    match cylinder db inner with
    | None -> None
    | Some (core, ccols) ->
      (* A projection of a cylinder is a cylinder: dropping or
         duplicating core columns projects the core, and dropped pad
         columns are full over a nonempty domain. Only a pad column
         used more than once breaks the shape — two copies of one pad
         are correlated, not independent. *)
      let seen = Array.make (Array.length ccols) 0 in
      List.iter (fun i -> seen.(i) <- seen.(i) + 1) cols;
      let pads_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i c ->
               match c with Pad -> seen.(i) <= 1 | Core _ -> true)
             ccols)
      in
      if not pads_ok then None
      else begin
        (* core column indices used by the output, in output order *)
        let used =
          List.filter_map
            (fun i -> match ccols.(i) with Core j -> Some j | Pad -> None)
            cols
        in
        let core_arity = Algebra.arity db core in
        let core' =
          if is_identity_projection used core_arity then core
          else Project (used, core)
        in
        let next = ref 0 in
        let out =
          Array.of_list
            (List.map
               (fun i ->
                 match ccols.(i) with
                 | Core _ ->
                   let j = !next in
                   incr next;
                   Core j
                 | Pad -> Pad)
               cols)
        in
        Some (core', out)
      end)
  | Base _ | Virtual _ | Domain | Empty _ | Select _ | Join _ | Semijoin _
  | Product _ | Union _ | Inter _ | Diff _ ->
    let k = Algebra.arity db e in
    Some (e, Array.init k (fun i -> Core i))

(* Fuse [Inter (a, b)] of two cylinders into an equi-join of their
   cores. Output column classes: Core/Core becomes a join pair,
   Core/Pad takes the core value, Pad/Pad stays a fresh Domain pad.
   Only fires when at least one side actually has pads (otherwise the
   [Inter] is already as good) and the domain is nonempty (dropped pad
   columns are only exact over a nonempty domain). *)
let fuse_inter db a b =
  if Database.domain db = [] then None
  else
    match (cylinder db a, cylinder db b) with
    | Some (core_a, ca), Some (core_b, cb)
      when Array.exists (fun c -> c = Pad) ca
           || Array.exists (fun c -> c = Pad) cb ->
      let ma = Algebra.arity db core_a and mb = Algebra.arity db core_b in
      let k = Array.length ca in
      let pairs = ref [] and padpads = ref 0 in
      let out = Array.make k 0 in
      for i = 0 to k - 1 do
        match (ca.(i), cb.(i)) with
        | Core x, Core y ->
          pairs := (x, y) :: !pairs;
          out.(i) <- x
        | Core x, Pad -> out.(i) <- x
        | Pad, Core y -> out.(i) <- ma + y
        | Pad, Pad ->
          out.(i) <- ma + mb + !padpads;
          incr padpads
      done;
      let joined = Join (List.rev !pairs, core_a, core_b) in
      let padded = ref joined in
      for _ = 1 to !padpads do
        padded := Product (!padded, Domain)
      done;
      Some (Project (Array.to_list out, !padded))
    | _ -> None

(* One top-level rewrite step; [None] when no rule applies. Children
   are already in normal form when this is called. *)
let step db expr =
  let arity e = Algebra.arity db e in
  match expr with
  (* --- trivial selections --- *)
  | Select (Cols_eq (i, j), e) when i = j -> Some e
  | Select (Cols_neq (i, j), e) when i = j -> Some (Empty (arity e))
  | Select (_, (Empty _ as e)) -> Some e
  (* --- selection pushdown --- *)
  | Select (sel, Project (cols, e)) ->
    Some (Project (cols, Select (remap_selection cols sel, e)))
  | Select (sel, Union (a, b)) -> Some (Union (Select (sel, a), Select (sel, b)))
  | Select (sel, Inter (a, b)) -> Some (Inter (Select (sel, a), b))
  | Select (sel, Diff (a, b)) -> Some (Diff (Select (sel, a), b))
  | Select (sel, Product (a, b)) ->
    let ka = arity a in
    let cols = selection_columns sel in
    if List.for_all (fun c -> c < ka) cols then
      Some (Product (Select (sel, a), b))
    else if List.for_all (fun c -> c >= ka) cols then
      Some (Product (a, Select (shift_selection ka sel, b)))
    else (
      (* spanning equality: fuse the product into an equi-join *)
      match sel with
      | Cols_eq (i, j) when i < ka && j >= ka ->
        Some (Join ([ (i, j - ka) ], a, b))
      | Cols_eq (i, j) when j < ka && i >= ka ->
        Some (Join ([ (j, i - ka) ], a, b))
      | _ -> None)
  | Select (sel, Join (pairs, a, b)) -> (
    let ka = arity a in
    let cols = selection_columns sel in
    if List.for_all (fun c -> c < ka) cols then
      Some (Join (pairs, Select (sel, a), b))
    else if List.for_all (fun c -> c >= ka) cols then
      Some (Join (pairs, a, Select (shift_selection ka sel, b)))
    else
      match sel with
      | Cols_eq (i, j) when i < ka && j >= ka ->
        Some (Join ((i, j - ka) :: pairs, a, b))
      | Cols_eq (i, j) when j < ka && i >= ka ->
        Some (Join ((j, i - ka) :: pairs, a, b))
      | _ -> None)
  | Select (sel, Semijoin (pairs, a, b)) ->
    (* a semijoin's output columns are exactly the left operand's *)
    Some (Semijoin (pairs, Select (sel, a), b))
  (* --- projections --- *)
  | Project (cols, e) when is_identity_projection cols (arity e) -> Some e
  | Project (cols1, Project (cols2, e)) ->
    let cols2 = Array.of_list cols2 in
    Some (Project (List.map (fun i -> cols2.(i)) cols1, e))
  | Project (cols, Empty _) -> Some (Empty (List.length cols))
  | Project (cols, Join (pairs, a, b)) ->
    let ka = arity a in
    if List.for_all (fun c -> c < ka) cols then
      Some (Project (cols, Semijoin (pairs, a, b)))
    else if List.for_all (fun c -> c >= ka) cols then
      Some
        (Project
           ( List.map (fun c -> c - ka) cols,
             Semijoin (List.map (fun (i, j) -> (j, i)) pairs, b, a) ))
    else None
  (* --- join folding --- *)
  | Join ([], a, b) -> Some (Product (a, b))
  | Join (_, (Empty _ as a), b) | Join (_, a, (Empty _ as b)) ->
    Some (Empty (arity a + arity b))
  | Semijoin (_, (Empty _ as e), _) -> Some e
  | Semijoin (_, a, Empty _) -> Some (Empty (arity a))
  | Semijoin (pairs, a, u) when is_universal u && Database.domain db <> [] ->
    (* A universal right side is nonempty and contains every key whose
       right columns are distinct. Left columns paired with one right
       column must still be equal, so each keeps a selection against
       the first left column of its group. *)
    Some
      (List.fold_left
         (fun e (i, j) ->
           let first, _ = List.find (fun (_, j') -> j' = j) pairs in
           if first = i then e else Select (Cols_eq (first, i), e))
         a pairs)
  (* --- constant folding on set operations --- *)
  | Union (Empty _, e) | Union (e, Empty _) -> Some e
  | Inter ((Empty _ as e), _) | Inter (_, (Empty _ as e)) -> Some e
  | Diff ((Empty _ as e), _) -> Some e
  | Diff (e, Empty _) -> Some e
  | Product ((Empty _ as a), b) -> Some (Empty (arity a + arity b))
  | Product (a, (Empty _ as b)) -> Some (Empty (arity a + arity b))
  (* --- idempotence (syntactic) --- *)
  | Union (a, b) when a = b -> Some a
  | Inter (a, b) when a = b -> Some a
  | Diff (a, b) when a = b -> Some (Empty (arity a))
  (* --- universal absorption and double complement --- *)
  | Inter (u, e) when is_universal u -> Some e
  | Inter (e, u) when is_universal u -> Some e
  | Union (u, _) when is_universal u -> Some u
  | Union (_, u) when is_universal u -> Some u
  | Diff (e, u) when is_universal u -> Some (Empty (arity e))
  | Diff (u1, Diff (u2, e)) when is_universal u1 && is_universal u2 -> Some e
  (* --- join fusion on padded conjunctions --- *)
  | Inter (a, b) -> fuse_inter db a b
  | Base _ | Virtual _ | Domain | Empty _ | Select _ | Project _ | Product _
  | Join _ | Semijoin _ | Union _ | Diff _ ->
    None

let optimize db expr =
  (* Validate once up front so rewrites can assume well-formedness. *)
  let _ = Algebra.arity db expr in
  let rec normalize expr =
    let expr' =
      match expr with
      | Base _ | Virtual _ | Domain | Empty _ -> expr
      | Select (sel, e) -> Select (sel, normalize e)
      | Project (cols, e) -> Project (cols, normalize e)
      | Product (a, b) -> Product (normalize a, normalize b)
      | Join (pairs, a, b) -> Join (pairs, normalize a, normalize b)
      | Semijoin (pairs, a, b) -> Semijoin (pairs, normalize a, normalize b)
      | Union (a, b) -> Union (normalize a, normalize b)
      | Inter (a, b) -> Inter (normalize a, normalize b)
      | Diff (a, b) -> Diff (normalize a, normalize b)
    in
    match step db expr' with
    | Some rewritten -> normalize rewritten
    | None -> expr'
  in
  normalize expr
