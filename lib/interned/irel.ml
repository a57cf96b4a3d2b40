module Relation = Vardi_relational.Relation

type row = int array

type t = {
  arity : int;
  rows : row array;  (* strictly increasing in [compare_rows] *)
}

let max_enumeration = 1 lsl 20

(* Monomorphic lexicographic comparison. Rows inside one relation all
   share its arity, so the length tie-break only matters for stray
   caller-supplied rows — kept for total-order safety. *)
let compare_rows (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal_rows a b = compare_rows a b = 0

let empty k =
  if k < 0 then invalid_arg "Irel.empty: negative arity";
  { arity = k; rows = [||] }

let arity t = t.arity
let cardinal t = Array.length t.rows
let is_empty t = Array.length t.rows = 0
let rows t = t.rows

(* Sort then squeeze out duplicates in place; returns a fresh array
   only when duplicates were present. *)
let sort_dedup arr =
  let n = Array.length arr in
  if n <= 1 then arr
  else begin
    Array.sort compare_rows arr;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if not (equal_rows arr.(r) arr.(!w - 1)) then begin
        arr.(!w) <- arr.(r);
        incr w
      end
    done;
    if !w = n then arr else Array.sub arr 0 !w
  end

let check_row t row =
  if Array.length row <> t.arity then
    invalid_arg
      (Printf.sprintf "Irel: row has arity %d, expected %d" (Array.length row)
         t.arity)

let of_rows k rows_list =
  let t = empty k in
  List.iter (check_row t) rows_list;
  { arity = k; rows = sort_dedup (Array.of_list rows_list) }

let of_row_array k arr =
  let t = empty k in
  Array.iter (check_row t) arr;
  { arity = k; rows = sort_dedup (Array.copy arr) }

(* Trusted constructor for producers that guarantee order themselves
   (the compiled kernel's unpack step): arities are still checked, the
   sort and the defensive copy are skipped. *)
let of_sorted k arr =
  let t = empty k in
  Array.iter (check_row t) arr;
  { arity = k; rows = arr }

let mem row t =
  let rows = t.rows in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = compare_rows row (Array.unsafe_get rows mid) in
      if c = 0 then true
      else if c < 0 then search lo mid
      else search (mid + 1) hi
  in
  Array.length row = t.arity && search 0 (Array.length rows)

let same_arity a b =
  if a.arity <> b.arity then
    invalid_arg
      (Printf.sprintf "Relation: arity mismatch (%d vs %d)" a.arity b.arity)

(* Linear merges over the sorted row arrays: one pass, one result
   allocation, no per-element boxing. *)

let union a b =
  same_arity a b;
  if is_empty a then b
  else if is_empty b then a
  else begin
    let ra = a.rows and rb = b.rows in
    let la = Array.length ra and lb = Array.length rb in
    let out = Array.make (la + lb) ra.(0) in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let c = compare_rows ra.(!i) rb.(!j) in
      if c < 0 then begin
        out.(!w) <- ra.(!i);
        incr i
      end
      else if c > 0 then begin
        out.(!w) <- rb.(!j);
        incr j
      end
      else begin
        out.(!w) <- ra.(!i);
        incr i;
        incr j
      end;
      incr w
    done;
    while !i < la do
      out.(!w) <- ra.(!i);
      incr i;
      incr w
    done;
    while !j < lb do
      out.(!w) <- rb.(!j);
      incr j;
      incr w
    done;
    { a with rows = (if !w = la + lb then out else Array.sub out 0 !w) }
  end

let inter a b =
  same_arity a b;
  if is_empty a || is_empty b then { a with rows = [||] }
  else begin
    let ra = a.rows and rb = b.rows in
    let la = Array.length ra and lb = Array.length rb in
    let out = Array.make (min la lb) ra.(0) in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let c = compare_rows ra.(!i) rb.(!j) in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        out.(!w) <- ra.(!i);
        incr i;
        incr j;
        incr w
      end
    done;
    { a with rows = Array.sub out 0 !w }
  end

let diff a b =
  same_arity a b;
  if is_empty a || is_empty b then a
  else begin
    let ra = a.rows and rb = b.rows in
    let la = Array.length ra and lb = Array.length rb in
    let out = Array.make la ra.(0) in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let c = compare_rows ra.(!i) rb.(!j) in
      if c < 0 then begin
        out.(!w) <- ra.(!i);
        incr i;
        incr w
      end
      else if c > 0 then incr j
      else begin
        incr i;
        incr j
      end
    done;
    while !i < la do
      out.(!w) <- ra.(!i);
      incr i;
      incr w
    done;
    if !w = la then a else { a with rows = Array.sub out 0 !w }
  end

let subset a b =
  same_arity a b;
  Array.for_all (fun row -> mem row b) a.rows

let equal a b =
  a.arity = b.arity
  && Array.length a.rows = Array.length b.rows
  && Array.for_all2 equal_rows a.rows b.rows

let add_rows t extra =
  match extra with
  | [] -> t
  | _ ->
    List.iter (check_row t) extra;
    let batch = sort_dedup (Array.of_list extra) in
    union t { t with rows = batch }

let fold f t acc =
  Array.fold_left (fun acc row -> f row acc) acc t.rows

let iter f t = Array.iter f t.rows
let exists p t = Array.exists p t.rows
let for_all p t = Array.for_all p t.rows

(* Rows up to the first dropped one are kept without copying, so a
   filter that keeps every row returns [t] and allocates nothing. *)
let filter p t =
  let rows = t.rows in
  let n = Array.length rows in
  let rec first_dropped i =
    if i = n || not (p (Array.unsafe_get rows i)) then i
    else first_dropped (i + 1)
  in
  let d = first_dropped 0 in
  if d = n then t
  else begin
    let out = Array.make (n - 1) rows.(0) in
    Array.blit rows 0 out 0 d;
    let w = ref d in
    for i = d + 1 to n - 1 do
      let row = Array.unsafe_get rows i in
      if p row then begin
        out.(!w) <- row;
        incr w
      end
    done;
    { t with rows = (if !w = n - 1 then out else Array.sub out 0 !w) }
  end

let map k f t =
  let out = Array.map f t.rows in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Irel.map: arity not preserved")
    out;
  { arity = k; rows = sort_dedup out }

let project cols t =
  Array.iter
    (fun i ->
      if i < 0 || i >= t.arity then
        invalid_arg
          (Printf.sprintf "Irel.project: column %d out of range (arity %d)" i
             t.arity))
    cols;
  let k = Array.length cols in
  let out =
    Array.map (fun row -> Array.map (fun i -> Array.unsafe_get row i) cols)
      t.rows
  in
  { arity = k; rows = sort_dedup out }

let product a b =
  let k = a.arity + b.arity in
  let la = Array.length a.rows and lb = Array.length b.rows in
  if la = 0 || lb = 0 then empty k
  else begin
    let out = Array.make (la * lb) [||] in
    for i = 0 to la - 1 do
      let ra = a.rows.(i) in
      for j = 0 to lb - 1 do
        out.((i * lb) + j) <- Array.append ra b.rows.(j)
      done
    done;
    (* Row-major over two sorted factors is already sorted and
       duplicate-free. *)
    { arity = k; rows = out }
  end

(* Exact integer cap check: [acc > cap / n] implies [acc * n > cap],
   and the converse product never overflows because it stays below the
   cap. Mirrors the string-side [Relation.full] so the engine and the
   string-keyed reference trip (or don't) on identical inputs with
   identical messages. *)
let full_over_cap n k =
  k > 0 && n > 0
  &&
  let rec go acc i =
    if i = 0 then false
    else if acc > max_enumeration / n then true
    else go (acc * n) (i - 1)
  in
  go 1 k

let full ~domain k =
  if k < 0 then invalid_arg "Relation.full: negative arity";
  let n = Array.length domain in
  if full_over_cap n k then
    invalid_arg
      (Printf.sprintf "Relation.full: %d^%d tuples exceeds the enumeration cap"
         n k);
  if k = 0 then { arity = 0; rows = [| [||] |] }
  else if n = 0 then empty k
  else begin
    let total =
      let rec go acc i = if i = 0 then acc else go (acc * n) (i - 1) in
      go 1 k
    in
    let out = Array.make total [||] in
    (* Row index read in base n, most-significant digit first, keeps
       the output sorted as long as [domain] is ascending. *)
    for idx = 0 to total - 1 do
      let row = Array.make k 0 in
      let v = ref idx in
      for pos = k - 1 downto 0 do
        row.(pos) <- domain.(!v mod n);
        v := !v / n
      done;
      out.(idx) <- row
    done;
    { arity = k; rows = out }
  end

let subsets t =
  let n = cardinal t in
  if n > 20 then
    invalid_arg
      (Printf.sprintf
         "Relation.subsets: 2^%d subsets exceeds the enumeration cap" n);
  let total = 1 lsl n in
  let subset_of_mask mask =
    let size = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr size
    done;
    let out = Array.make !size [||] in
    let w = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        out.(!w) <- t.rows.(i);
        incr w
      end
    done;
    { t with rows = out }
  in
  Seq.map subset_of_mask (Seq.init total Fun.id)

(* --- boundary conversions ------------------------------------------ *)

let to_relation tab t =
  Relation.of_tuples t.arity
    (Array.to_list (Array.map (Symtab.name_tuple tab) t.rows))

let of_relation tab r =
  let rows =
    List.map (Symtab.code_tuple tab) (Relation.tuples r)
  in
  of_rows (Relation.arity r) rows

let pp ppf t =
  let pp_row ppf row =
    Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") int) row
  in
  Fmt.pf ppf "{%a}" Fmt.(array ~sep:(any "; ") pp_row) t.rows
