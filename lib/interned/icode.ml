module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Eval = Vardi_relational.Eval

(* Compiled mirror of [Iplan.run] and [Ieval]. Two halves:

   - relational plans flatten to a postfix instruction array executed
     over a stack of *packed* relations: a row of arity k over a
     symtab of n codes is the single integer Σ row.(i)·n^(k-1-i).
     Packing is strictly monotone in [Irel.compare_rows] (fixed radix,
     fixed arity), so sorted row arrays pack to sorted int arrays and
     every set operation becomes an immediate-int merge — no row
     allocation, no comparison closure, no AST dispatch per structure.
   - formulas compile to closure chains over a register file indexed
     by binder depth, replacing the interpreter's assoc-list
     environments.

   Parity with the interpreters is the overriding contract: the tests
   diff answers and error messages against [Iplan.run] and [Ieval], and
   the fuzz battery diffs the engine against a string-keyed reference,
   so anything this module cannot compile *identically*
   (packing overflow, malformed plans whose interpreted failure mode is
   lazy) falls back to the interpreter rather than approximating. *)

(* --- arity-specialized row comparators ----------------------------- *)

let compare_rows1 (a : int array) (b : int array) = Int.compare a.(0) b.(0)

let compare_rows2 (a : int array) (b : int array) =
  let c = Int.compare a.(0) b.(0) in
  if c <> 0 then c else Int.compare a.(1) b.(1)

let compare_rows3 (a : int array) (b : int array) =
  let c = Int.compare a.(0) b.(0) in
  if c <> 0 then c
  else
    let c = Int.compare a.(1) b.(1) in
    if c <> 0 then c else Int.compare a.(2) b.(2)

let search_with cmp rows row =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = cmp row (Array.unsafe_get rows mid) in
      if c = 0 then true else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length rows)

let mem_row row rel =
  Array.length row = Irel.arity rel
  &&
  let rows = Irel.rows rel in
  match Array.length row with
  | 1 -> search_with compare_rows1 rows row
  | 2 -> search_with compare_rows2 rows row
  | 3 -> search_with compare_rows3 rows row
  | _ -> Irel.mem row rel

(* Scalar variants for the atom hot path: no probe-row allocation. *)

let mem1 rows v0 =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare v0 (Array.unsafe_get rows mid).(0) in
      if c = 0 then true else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length rows)

let mem2 rows v0 v1 =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let r = Array.unsafe_get rows mid in
      let c = Int.compare v0 r.(0) in
      let c = if c <> 0 then c else Int.compare v1 r.(1) in
      if c = 0 then true else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length rows)

let mem3 rows v0 v1 v2 =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let r = Array.unsafe_get rows mid in
      let c = Int.compare v0 r.(0) in
      let c = if c <> 0 then c else Int.compare v1 r.(1) in
      let c = if c <> 0 then c else Int.compare v2 r.(2) in
      if c = 0 then true else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length rows)

(* --- compiled relational plans ------------------------------------- *)

type instr =
  | Load of { slot : int; arity : int }
  | Load_domain
  | Load_empty of { arity : int }
  | Sel_cols of { div_i : int; div_j : int; keep_equal : bool }
  | Sel_col_const of { div : int; code : int; keep_equal : bool }
  | Sel_consts of { code_c : int; code_d : int; keep_equal : bool }
  | Proj of { divs : int array; arity : int }
  | Prod of { mult : int; arity : int }
  | Union
  | Inter
  | Diff

type packed = {
  p_code : instr array;
  p_n : int;  (* packing radix = symtab size *)
  p_out : int;  (* output arity *)
  p_stack : int;  (* operand-stack high-water mark *)
}

type prog =
  | Packed of packed
  | Interp of { plan : Iplan.t; out : int }

exception Unpackable

(* n^k, refusing to overflow the packed-int range. Requires n >= 1. *)
let pow_exn n k =
  let rec go acc i =
    if i = 0 then acc
    else if acc > max_int / n then raise Unpackable
    else go (acc * n) (i - 1)
  in
  go 1 k

(* Best-effort output arity for the fallback program (tests only; the
   interpreter itself never consults it). *)
let rec fallback_arity tab = function
  | Iplan.Base s ->
    if s >= 0 && s < Symtab.rel_count tab then Symtab.rel_arity tab s else 0
  | Iplan.Domain -> 1
  | Iplan.Empty k -> k
  | Iplan.Select (_, e) -> fallback_arity tab e
  | Iplan.Project (cols, _) -> Array.length cols
  | Iplan.Product (a, b) | Iplan.Join (_, a, b) ->
    fallback_arity tab a + fallback_arity tab b
  | Iplan.Semijoin (_, a, _)
  | Iplan.Union (a, _)
  | Iplan.Inter (a, _)
  | Iplan.Diff (a, _) ->
    fallback_arity tab a

(* One walk: validates (slot/column ranges, arity agreement, packing
   feasibility — [Unpackable] punts to the interpreter, preserving the
   interpreter's failure behavior for malformed plans), resolves
   operands, and emits postfix code with stack-depth accounting. *)
let compile_plan tab plan =
  let n = Symtab.size tab in
  match
    if n < 1 then raise Unpackable;
    let code = ref [] in
    let depth = ref 0 and maxd = ref 0 in
    let emit ins delta =
      code := ins :: !code;
      depth := !depth + delta;
      if !depth > !maxd then maxd := !depth
    in
    let rec go p =
      match p with
      | Iplan.Base s ->
        if s < 0 || s >= Symtab.rel_count tab then raise Unpackable;
        let k = Symtab.rel_arity tab s in
        ignore (pow_exn n k);
        emit (Load { slot = s; arity = k }) 1;
        k
      | Iplan.Domain ->
        emit Load_domain 1;
        1
      | Iplan.Empty k ->
        if k < 0 then raise Unpackable;
        ignore (pow_exn n k);
        emit (Load_empty { arity = k }) 1;
        k
      | Iplan.Select (sel, e) ->
        let k = go e in
        let div i =
          if i < 0 || i >= k then raise Unpackable;
          pow_exn n (k - 1 - i)
        in
        (match sel with
        | Iplan.Cols_eq (i, j) ->
          emit (Sel_cols { div_i = div i; div_j = div j; keep_equal = true }) 0
        | Iplan.Cols_neq (i, j) ->
          emit (Sel_cols { div_i = div i; div_j = div j; keep_equal = false }) 0
        | Iplan.Col_eq_const (i, c) ->
          emit (Sel_col_const { div = div i; code = c; keep_equal = true }) 0
        | Iplan.Col_neq_const (i, c) ->
          emit (Sel_col_const { div = div i; code = c; keep_equal = false }) 0
        | Iplan.Consts_eq (c, d) ->
          emit (Sel_consts { code_c = c; code_d = d; keep_equal = true }) 0
        | Iplan.Consts_neq (c, d) ->
          emit (Sel_consts { code_c = c; code_d = d; keep_equal = false }) 0);
        k
      | Iplan.Project (cols, e) ->
        let k = go e in
        let divs =
          Array.map
            (fun i ->
              if i < 0 || i >= k then raise Unpackable;
              pow_exn n (k - 1 - i))
            cols
        in
        let ka = Array.length cols in
        ignore (pow_exn n ka);
        emit (Proj { divs; arity = ka }) 0;
        ka
      | Iplan.Product (a, b) ->
        let ka = go a in
        let kb = go b in
        ignore (pow_exn n (ka + kb));
        emit (Prod { mult = pow_exn n kb; arity = ka + kb }) (-1);
        ka + kb
      | Iplan.Union (a, b) ->
        let ka = go a in
        let kb = go b in
        if ka <> kb then raise Unpackable;
        emit Union (-1);
        ka
      | Iplan.Inter (a, b) ->
        let ka = go a in
        let kb = go b in
        if ka <> kb then raise Unpackable;
        emit Inter (-1);
        ka
      | Iplan.Diff (a, b) ->
        let ka = go a in
        let kb = go b in
        if ka <> kb then raise Unpackable;
        emit Diff (-1);
        ka
      | Iplan.Join _ | Iplan.Semijoin _ ->
        (* Hash joins need materialized row access, not packed ints;
           run the whole plan on the interpreter instead. *)
        raise Unpackable
    in
    let out = go plan in
    Packed
      {
        p_code = Array.of_list (List.rev !code);
        p_n = n;
        p_out = out;
        p_stack = !maxd;
      }
  with
  | prog -> prog
  | exception Unpackable -> Interp { plan; out = fallback_arity tab plan }

let instrs = function
  | Packed p -> Some p.p_code
  | Interp _ -> None

let out_arity = function Packed p -> p.p_out | Interp i -> i.out

let max_stack = function Packed p -> p.p_stack | Interp _ -> 0

(* Packed-set primitives. All outputs are fresh arrays (or an operand
   passed through untouched), so operands are never mutated and the
   universe array can be pushed directly for [Load_domain]. *)

let pack_rel n rel =
  let rows = Irel.rows rel in
  let len = Array.length rows in
  let out = Array.make len 0 in
  for i = 0 to len - 1 do
    let row = Array.unsafe_get rows i in
    let k = Array.length row in
    let acc = ref 0 in
    for j = 0 to k - 1 do
      acc := (!acc * n) + Array.unsafe_get row j
    done;
    Array.unsafe_set out i !acc
  done;
  out

let filter_cols src div_i div_j n keep =
  let len = Array.length src in
  if len = 0 then src
  else begin
    let out = Array.make len 0 in
    let w = ref 0 in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get src i in
      if (v / div_i mod n = v / div_j mod n) = keep then begin
        Array.unsafe_set out !w v;
        incr w
      end
    done;
    if !w = len then src else Array.sub out 0 !w
  end

let filter_col_const src div e n keep =
  let len = Array.length src in
  if len = 0 then src
  else begin
    let out = Array.make len 0 in
    let w = ref 0 in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get src i in
      if (v / div mod n = e) = keep then begin
        Array.unsafe_set out !w v;
        incr w
      end
    done;
    if !w = len then src else Array.sub out 0 !w
  end

(* In-place sort + dedup over a fresh int array (projection output). *)
let sort_dedup_ints (a : int array) =
  let len = Array.length a in
  if len <= 1 then a
  else begin
    if len <= 32 then
      for i = 1 to len - 1 do
        let v = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get a !j > v do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) v
      done
    else Array.sort Int.compare a;
    let w = ref 1 in
    for r = 1 to len - 1 do
      if Array.unsafe_get a r <> Array.unsafe_get a (!w - 1) then begin
        Array.unsafe_set a !w (Array.unsafe_get a r);
        incr w
      end
    done;
    if !w = len then a else Array.sub a 0 !w
  end

let project_packed src divs n =
  let k = Array.length divs in
  let len = Array.length src in
  let out = Array.make len 0 in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get src i in
    let acc = ref 0 in
    for j = 0 to k - 1 do
      acc := (!acc * n) + (v / Array.unsafe_get divs j mod n)
    done;
    Array.unsafe_set out i !acc
  done;
  sort_dedup_ints out

(* Row-major product over sorted factors is sorted and duplicate-free:
   b's values are < mult, so a.(i)*mult blocks are disjoint. *)
let product_packed a b mult =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la * lb) 0 in
    for i = 0 to la - 1 do
      let base = Array.unsafe_get a i * mult in
      let off = i * lb in
      for j = 0 to lb - 1 do
        Array.unsafe_set out (off + j) (base + Array.unsafe_get b j)
      done
    done;
    out
  end

let union_ints a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then begin
        Array.unsafe_set out !w x;
        incr i
      end
      else if x > y then begin
        Array.unsafe_set out !w y;
        incr j
      end
      else begin
        Array.unsafe_set out !w x;
        incr i;
        incr j
      end;
      incr w
    done;
    while !i < la do
      Array.unsafe_set out !w (Array.unsafe_get a !i);
      incr i;
      incr w
    done;
    while !j < lb do
      Array.unsafe_set out !w (Array.unsafe_get b !j);
      incr j;
      incr w
    done;
    if !w = la + lb then out else Array.sub out 0 !w
  end

let inter_ints a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (min la lb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then incr i
      else if x > y then incr j
      else begin
        Array.unsafe_set out !w x;
        incr i;
        incr j;
        incr w
      end
    done;
    Array.sub out 0 !w
  end

let diff_ints a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then a
  else begin
    let out = Array.make la 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then begin
        Array.unsafe_set out !w x;
        incr i;
        incr w
      end
      else if x > y then incr j
      else begin
        incr i;
        incr j
      end
    done;
    while !i < la do
      Array.unsafe_set out !w (Array.unsafe_get a !i);
      incr i;
      incr w
    done;
    if !w = la then a else Array.sub out 0 !w
  end

let exec_packed_raw idb p =
  let n = p.p_n in
  let code = p.p_code in
  let stack = Array.make (max p.p_stack 1) [||] in
  let sp = ref 0 in
  for ip = 0 to Array.length code - 1 do
    (match Array.unsafe_get code ip with
    | Load { slot; arity = _ } ->
      stack.(!sp) <- pack_rel n (Idb.relation idb slot);
      incr sp
    | Load_domain ->
      (* Ascending element codes are already the packed arity-1 set. *)
      stack.(!sp) <- Idb.universe idb;
      incr sp
    | Load_empty _ ->
      stack.(!sp) <- [||];
      incr sp
    | Sel_cols { div_i; div_j; keep_equal } ->
      let top = !sp - 1 in
      stack.(top) <- filter_cols stack.(top) div_i div_j n keep_equal
    | Sel_col_const { div; code; keep_equal } ->
      let e = Idb.interp idb code in
      let top = !sp - 1 in
      stack.(top) <- filter_col_const stack.(top) div e n keep_equal
    | Sel_consts { code_c; code_d; keep_equal } ->
      if (Idb.interp idb code_c = Idb.interp idb code_d) <> keep_equal then
        stack.(!sp - 1) <- [||]
    | Proj { divs; arity = _ } ->
      let top = !sp - 1 in
      stack.(top) <- project_packed stack.(top) divs n
    | Prod { mult; arity = _ } ->
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      decr sp;
      stack.(!sp - 1) <- product_packed a b mult
    | Union ->
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      decr sp;
      stack.(!sp - 1) <- union_ints a b
    | Inter ->
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      decr sp;
      stack.(!sp - 1) <- inter_ints a b
    | Diff ->
      let b = stack.(!sp - 1) and a = stack.(!sp - 2) in
      decr sp;
      stack.(!sp - 1) <- diff_ints a b)
  done;
  stack.(0)

(* --- per-structure answers ------------------------------------------ *)

type answer =
  | Keys of int array
  | Rows of Irel.t

let exec idb = function
  | Packed p -> Keys (exec_packed_raw idb p)
  | Interp { plan; _ } -> Rows (Iplan.run idb plan)

let rows ~radix:n ~arity:k = function
  | Rows r -> r
  | Keys keys ->
    let len = Array.length keys in
    let rows = Array.make len [||] in
    for i = 0 to len - 1 do
      let row = Array.make k 0 in
      let v = ref (Array.unsafe_get keys i) in
      for pos = k - 1 downto 0 do
        Array.unsafe_set row pos (!v mod n);
        v := !v / n
      done;
      Array.unsafe_set rows i row
    done;
    Irel.of_sorted k rows

(* Packing is injective at fixed radix and arity, so a candidate row
   renames and packs to a single key searched in the sorted keys — no
   row is materialized on either side. *)
let mem ~radix:n answer ~rename (row : int array) =
  match answer with
  | Keys keys ->
    let key = ref 0 in
    for i = 0 to Array.length row - 1 do
      key := (!key * n) + Array.unsafe_get rename (Array.unsafe_get row i)
    done;
    let key = !key in
    let rec go lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        let v = Array.unsafe_get keys mid in
        if key = v then true else if key < v then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length keys)
  | Rows r -> mem_row (Array.map (fun c -> Array.unsafe_get rename c) row) r

(* --- compiled formulas --------------------------------------------- *)

type rt = {
  r_idb : Idb.t;
  regs : int array;  (* first-order binders, indexed by depth *)
  sos : Irel.t array;  (* second-order binders *)
}

type check = {
  c_head : int;  (* head arity (0 for sentences) *)
  c_regs : int;
  c_sos : int;
  c_slots : int list;
  c_run : rt -> bool;
}

(* Compile-time-detectable errors become closures that raise the
   interpreter's exact error at the same evaluation point, so
   short-circuiting hides exactly the errors [Ieval] would hide. *)
let msg fmt = Format.asprintf fmt

let eval_error m = raise (Eval.Eval_error m)

type cstate = {
  st_tab : Symtab.t;
  mutable st_regs : int;
  mutable st_sos : int;
  mutable st_slots : int list;
}

let cterm st vars = function
  | Term.Var x -> (
    match List.assoc_opt x vars with
    | Some r -> fun rt -> Array.unsafe_get rt.regs r
    | None ->
      let m = msg "unbound variable %s" x in
      fun (_ : rt) -> eval_error m)
  | Term.Const c -> (
    match Symtab.code_opt st.st_tab c with
    | Some code -> fun rt -> Idb.interp rt.r_idb code
    | None ->
      let m = msg "unknown constant %s" c in
      fun (_ : rt) -> eval_error m)

(* [Ieval] evaluates every argument (left to right) before the
   predicate lookup, so an erroring argument outranks an unknown
   predicate — the raising path below preserves that order. *)
let eval_args_then_raise args m =
  let arr = Array.of_list args in
  fun rt ->
    Array.iter (fun a -> ignore (a rt : int)) arr;
    eval_error m

let compile_atom st vars sos p ts =
  let args = List.map (cterm st vars) ts in
  let nargs = List.length args in
  let row_of arr rt =
    let row = Array.make nargs 0 in
    for i = 0 to nargs - 1 do
      row.(i) <- (Array.unsafe_get arr i) rt
    done;
    row
  in
  match List.assoc_opt p sos with
  | Some (sreg, k) ->
    if nargs <> k then
      eval_args_then_raise args
        (msg "predicate variable %s used with arity %d" p nargs)
    else
      let arr = Array.of_list args in
      fun rt -> mem_row (row_of arr rt) rt.sos.(sreg)
  | None -> (
    match Symtab.rel_slot st.st_tab p with
    | Some slot ->
      let declared = Symtab.rel_arity st.st_tab slot in
      if nargs <> declared then
        eval_args_then_raise args
          (msg "predicate %s used with arity %d, declared %d" p nargs declared)
      else begin
        st.st_slots <- slot :: st.st_slots;
        match args with
        | [ a0 ] ->
          fun rt ->
            let v0 = a0 rt in
            mem1 (Irel.rows (Idb.relation rt.r_idb slot)) v0
        | [ a0; a1 ] ->
          fun rt ->
            let v0 = a0 rt in
            let v1 = a1 rt in
            mem2 (Irel.rows (Idb.relation rt.r_idb slot)) v0 v1
        | [ a0; a1; a2 ] ->
          fun rt ->
            let v0 = a0 rt in
            let v1 = a1 rt in
            let v2 = a2 rt in
            mem3 (Irel.rows (Idb.relation rt.r_idb slot)) v0 v1 v2
        | _ ->
          let arr = Array.of_list args in
          fun rt -> mem_row (row_of arr rt) (Idb.relation rt.r_idb slot)
      end
    | None -> eval_args_then_raise args (msg "unknown predicate %s" p))

(* [vars]/[sos] map names to registers; [depth]/[sdepth] are the next
   free registers. Sibling binders deliberately share a register —
   allocation is by depth, and the state records the high-water mark. *)
let rec compile st vars sos depth sdepth f =
  match f with
  | Formula.True -> fun (_ : rt) -> true
  | Formula.False -> fun (_ : rt) -> false
  | Formula.Eq (s, t) ->
    let es = cterm st vars s and et = cterm st vars t in
    fun rt -> es rt = et rt
  | Formula.Atom (p, ts) -> compile_atom st vars sos p ts
  | Formula.Not f ->
    let cf = compile st vars sos depth sdepth f in
    fun rt -> not (cf rt)
  | Formula.And (f, g) ->
    let cf = compile st vars sos depth sdepth f in
    let cg = compile st vars sos depth sdepth g in
    fun rt -> cf rt && cg rt
  | Formula.Or (f, g) ->
    let cf = compile st vars sos depth sdepth f in
    let cg = compile st vars sos depth sdepth g in
    fun rt -> cf rt || cg rt
  | Formula.Implies (f, g) ->
    let cf = compile st vars sos depth sdepth f in
    let cg = compile st vars sos depth sdepth g in
    fun rt -> (not (cf rt)) || cg rt
  | Formula.Iff (f, g) ->
    let cf = compile st vars sos depth sdepth f in
    let cg = compile st vars sos depth sdepth g in
    fun rt -> Bool.equal (cf rt) (cg rt)
  | Formula.Exists (x, f) ->
    let r = depth in
    if depth + 1 > st.st_regs then st.st_regs <- depth + 1;
    let body = compile st ((x, r) :: vars) sos (depth + 1) sdepth f in
    fun rt ->
      let u = Idb.universe rt.r_idb in
      let len = Array.length u in
      let rec go i =
        i < len
        && ((rt.regs.(r) <- Array.unsafe_get u i;
             body rt)
           || go (i + 1))
      in
      go 0
  | Formula.Forall (x, f) ->
    let r = depth in
    if depth + 1 > st.st_regs then st.st_regs <- depth + 1;
    let body = compile st ((x, r) :: vars) sos (depth + 1) sdepth f in
    fun rt ->
      let u = Idb.universe rt.r_idb in
      let len = Array.length u in
      let rec go i =
        i >= len
        || ((rt.regs.(r) <- Array.unsafe_get u i;
             body rt)
           && go (i + 1))
      in
      go 0
  | Formula.Exists2 (p, k, f) ->
    let s = sdepth in
    if sdepth + 1 > st.st_sos then st.st_sos <- sdepth + 1;
    let body = compile st vars ((p, (s, k)) :: sos) depth (sdepth + 1) f in
    fun rt ->
      Seq.exists
        (fun rel ->
          rt.sos.(s) <- rel;
          body rt)
        (Irel.subsets (Irel.full ~domain:(Idb.universe rt.r_idb) k))
  | Formula.Forall2 (p, k, f) ->
    let s = sdepth in
    if sdepth + 1 > st.st_sos then st.st_sos <- sdepth + 1;
    let body = compile st vars ((p, (s, k)) :: sos) depth (sdepth + 1) f in
    fun rt ->
      Seq.for_all
        (fun rel ->
          rt.sos.(s) <- rel;
          body rt)
        (Irel.subsets (Irel.full ~domain:(Idb.universe rt.r_idb) k))

let compile_body tab vars depth f =
  let st = { st_tab = tab; st_regs = depth; st_sos = 0; st_slots = [] } in
  let run = compile st vars [] depth 0 f in
  (st, run)

let failing_check head m =
  {
    c_head = head;
    c_regs = head;
    c_sos = 0;
    c_slots = [];
    c_run = (fun (_ : rt) -> eval_error m);
  }

let compile_sentence tab f =
  match Formula.free_vars f with
  | [] ->
    let st, run = compile_body tab [] 0 f in
    {
      c_head = 0;
      c_regs = st.st_regs;
      c_sos = st.st_sos;
      c_slots = st.st_slots;
      c_run = run;
    }
  | x :: _ -> failing_check 0 (msg "sentence has free variable %s" x)

let fresh_rt idb c regs =
  { r_idb = idb; regs; sos = Array.make c.c_sos (Irel.empty 0) }

let run_sentence idb c = c.c_run (fresh_rt idb c (Array.make c.c_regs 0))

(* Head registers 0..k-1. For [member] the env is built head-first so a
   duplicated head variable resolves to its FIRST occurrence; for
   [answer] the interpreter prepends per position so the LAST wins —
   both mirrored here by list order. *)
let compile_member tab q =
  let head = Query.head q in
  let k = List.length head in
  let vars = List.mapi (fun i x -> (x, i)) head in
  let st, run = compile_body tab vars k (Query.body q) in
  {
    c_head = k;
    c_regs = st.st_regs;
    c_sos = st.st_sos;
    c_slots = st.st_slots;
    c_run = run;
  }

let run_member idb c row =
  if Array.length row <> c.c_head then
    eval_error "Eval.member: tuple arity differs from the query head";
  let regs = Array.make c.c_regs 0 in
  Array.blit row 0 regs 0 c.c_head;
  c.c_run (fresh_rt idb c regs)

let compile_answer tab q =
  let head = Query.head q in
  let k = List.length head in
  let vars = List.rev (List.mapi (fun i x -> (x, i)) head) in
  let st, run = compile_body tab vars k (Query.body q) in
  {
    c_head = k;
    c_regs = st.st_regs;
    c_sos = st.st_sos;
    c_slots = st.st_slots;
    c_run = run;
  }

let run_answer idb c =
  let k = c.c_head in
  let domain = Idb.universe idb in
  let n = Array.length domain in
  let rt = fresh_rt idb c (Array.make c.c_regs 0) in
  let rows = ref [] in
  let rec assign pos =
    if pos = k then begin
      if c.c_run rt then rows := Array.sub rt.regs 0 k :: !rows
    end
    else
      for i = 0 to n - 1 do
        rt.regs.(pos) <- Array.unsafe_get domain i;
        assign (pos + 1)
      done
  in
  assign 0;
  Irel.of_rows k !rows

let check_regs c = c.c_regs
let check_sos c = c.c_sos
let check_slots c = c.c_slots
