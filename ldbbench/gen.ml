(* Seeded inputs. Every database and request the benchmark sends is a
   pure function of the workload seed; the program only ever sees the
   rendered .ldb text and the request lines.

   Each workload's databases and query templates have one fixed shape,
   drawn from a generator that does not depend on the seed; the seed
   renames the constants and drives the request stream. Renaming keeps
   the constants' sorted order, because the exact engine enumerates
   partitions in that order and its cost depends on where the unknowns
   fall in it: over 40 random placements of the unknowns, one full
   answer scan of a 2,787-partition database took 7.9 to 18.7 ms. Two
   seeds thus give isomorphic inputs of equal cost, and a run's spread
   is the program's, not the inputs'. README.md says where in that
   range each fixed shape sits. The references in [Reference] are
   computed from the lists kept here, never from the program's parse
   of the text. *)

module L = Logicaldb

let rng seed tag = Random.State.make [| seed; tag; 1985 |]

(* The seed-independent generator of a workload's shapes. *)
let shapes tag = Random.State.make [| tag; 1985 |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [pick st k xs] draws [k] distinct elements of [xs]. *)
let pick st k xs =
  let a = shuffle st (Array.of_list xs) in
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

type fact = string * string list

type db = {
  constants : string list;
  unknowns : string list;
  predicates : (string * int) list;
  facts : fact list;
}

let knowns db = List.filter (fun c -> not (List.mem c db.unknowns)) db.constants

(* Every pair of known constants carries a uniqueness axiom; unknowns
   carry none, so the partition space depends only on the constant and
   unknown counts. *)
let distinct_pairs db =
  let ks = Array.of_list (knowns db) in
  let n = Array.length ks in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      acc := (ks.(i), ks.(j)) :: !acc
    done
  done;
  !acc

let fact_text (p, args) = Printf.sprintf "%s(%s)" p (String.concat ", " args)

let to_text db =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "predicate %s\n"
       (String.concat " "
          (List.map (fun (p, k) -> Printf.sprintf "%s/%d" p k) db.predicates)));
  Buffer.add_string b
    (Printf.sprintf "constant %s\n" (String.concat " " db.constants));
  List.iter
    (fun f -> Buffer.add_string b ("fact " ^ fact_text f ^ "\n"))
    db.facts;
  List.iter
    (fun (c, d) -> Buffer.add_string b (Printf.sprintf "distinct %s %s\n" c d))
    (distinct_pairs db);
  Buffer.contents b

let to_cw db =
  L.Cw_database.make
    ~vocabulary:
      (L.Vocabulary.make ~constants:db.constants ~predicates:db.predicates)
    ~facts:(List.map (fun (pred, args) -> { L.Cw_database.pred; args }) db.facts)
    ~distinct:(distinct_pairs db)

(* [relabel seed tag names] gives each name a seeded new name, keeping
   their sorted order: the prefix, then four digits. *)
let relabel seed tag names =
  let st = rng seed tag in
  let sorted = List.sort compare names in
  let n = List.length sorted in
  let fresh = Hashtbl.create n in
  while Hashtbl.length fresh < n do
    Hashtbl.replace fresh (Random.State.int st 10000) ()
  done;
  let codes = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) fresh []) in
  let tbl = Hashtbl.create n in
  List.iter2
    (fun name code ->
      let prefix = String.sub name 0 1 in
      Hashtbl.replace tbl name (Printf.sprintf "%s%04d" prefix code))
    sorted codes;
  fun x -> Hashtbl.find tbl x

(* [rename f db]: the same database with constant [c] renamed [f c]. *)
let rename f db =
  {
    db with
    constants = List.map f db.constants;
    unknowns = List.map f db.unknowns;
    facts = List.map (fun (p, args) -> (p, List.map f args)) db.facts;
  }

(* --- parametric databases for the exact engine -----------------------

   [n] constants with unary [P] and binary [R]; [u] random constants are
   unknown. One known constant, the witness, has no facts at all, so
   the workloads' universal sentences [forall x. P(x) \/ ...] are false
   in the discrete structure and exit at the first structure. [P] holds
   of [n/2] constants and [R] of [n] pairs, never on the witness. *)

type exact = {
  db : db;
  spare : string list;  (* known, non-witness constants without a P fact *)
}

let exact st ~prefix ~constants:n ~unknowns:u =
  let names = List.init n (fun i -> Printf.sprintf "%s%d" prefix i) in
  let order = shuffle st (Array.of_list names) in
  let unknowns = Array.to_list (Array.sub order 0 u) in
  let witness = order.(u) in
  let active = List.filter (fun c -> c <> witness) names in
  let p_holders = pick st (n / 2) active in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a <> b then Some [ a; b ] else None) active)
      active
  in
  let r_pairs = pick st n pairs in
  let facts =
    List.map (fun c -> ("P", [ c ])) p_holders
    @ List.map (fun args -> ("R", args)) r_pairs
  in
  let db =
    { constants = names; unknowns; predicates = [ ("P", 1); ("R", 2) ]; facts }
  in
  let spare =
    List.filter
      (fun c -> (not (List.mem c p_holders)) && not (List.mem c unknowns))
      active
  in
  { db; spare }

(* [rename_text f db text] renames the constants of [db] in a query or
   fact text. *)
let rename_text f db text =
  let b = Buffer.create (String.length text) in
  let word = Buffer.create 8 in
  let flush () =
    let w = Buffer.contents word in
    Buffer.add_string b (if List.mem w db.constants then f w else w);
    Buffer.clear word
  in
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char word ch
      | _ ->
        flush ();
        Buffer.add_char b ch)
    text;
  flush ();
  Buffer.contents b

let rename_exact f e =
  { db = rename f e.db; spare = List.map f e.spare }

(* --- bulk databases for the heavy writes -----------------------------

   [n] constants, none declared distinct from another, and [m] random
   [R] facts. Writes toggle a [U] fact and no request reads the
   database, so it is never scanned; a fact delta re-interns every
   fact, so a toggle costs time that grows with [m]. *)

let bulk st ~prefix ~constants:n ~facts:m =
  let names = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i) in
  let pairs = Hashtbl.create m in
  while Hashtbl.length pairs < m do
    Hashtbl.replace pairs (Random.State.int st n, Random.State.int st n) ()
  done;
  let facts =
    List.sort compare
      (Hashtbl.fold (fun (a, b) () acc -> ("R", [ names.(a); names.(b) ]) :: acc) pairs [])
  in
  let constants = Array.to_list names in
  { constants; unknowns = constants; predicates = [ ("R", 2); ("U", 1) ]; facts }

(* --- CW databases for the approximation ------------------------------

   [n] constants, [u] unknown. [R], [S], [T] are successor chains with
   shifts 1, 2, 3 (path and star conjunctive queries), plus four planted
   [R]/[S]/[T] triangles for the cyclic query. [A]-[M]-[B] is the
   adversarial block: [M] is the complete bipartite relation between
   two blocks of [m] constants, and only two sources reach it through
   [A] and two targets leave it through [B], so the answer is tiny while
   joining [M] early multiplies intermediates. [U] marks half the known
   constants; negated [U] and [S] atoms are the alpha/NE case of
   Section 5. A negated binary atom costs seconds per request on the
   optimized backend at 128 constants, so the workload asks it only of
   a small database. *)

let approx st ~constants:n ~unknowns:u ~block:m =
  let names = Array.init n (fun i -> Printf.sprintf "a%d" i) in
  let perm = shuffle st (Array.copy names) in
  let at i = perm.(((i mod n) + n) mod n) in
  let unknowns = List.init u (fun i -> at ((3 * i) + 2)) in
  let chain p shift = List.init n (fun i -> (p, [ at i; at (i + shift) ])) in
  let triangles =
    List.concat_map
      (fun k ->
        let a = at (7 * k + 1) and b = at (7 * k + 3) and c = at (7 * k + 5) in
        [ ("R", [ a; b ]); ("S", [ b; c ]); ("T", [ c; a ]) ])
      [ 1; 2; 3; 4 ]
  in
  let left = List.init m (fun i -> at (n / 2 + i)) in
  let right = List.init m (fun i -> at (n / 2 + m + i)) in
  let block =
    List.concat_map (fun x -> List.map (fun y -> ("M", [ x; y ])) right) left
  in
  let sources = [ at (n - 1); at (n - 2) ] and targets = [ at (n - 3); at (n - 4) ] in
  let ends =
    List.concat_map (fun s -> [ ("A", [ s; List.nth left (Random.State.int st m) ]) ]) sources
    @ List.concat_map
        (fun t -> [ ("B", [ List.nth right (Random.State.int st m); t ]) ])
        targets
  in
  let known = List.filter (fun c -> not (List.mem c unknowns)) (Array.to_list names) in
  let marked = List.map (fun c -> ("U", [ c ])) (pick st (n / 2) known) in
  let facts =
    List.sort_uniq compare
      (chain "R" 1 @ chain "S" 2 @ chain "T" 3 @ triangles @ block @ ends @ marked)
  in
  {
    constants = Array.to_list names;
    unknowns;
    predicates =
      [ ("R", 2); ("S", 2); ("T", 2); ("A", 2); ("M", 2); ("B", 2); ("U", 1) ];
    facts;
  }

(* --- Zipf draws -------------------------------------------------------- *)

type zipf = float array (* cumulative weights, last = 1 *)

let zipf m : zipf =
  let w = Array.init m (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw st (z : zipf) =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* [schedule st weights] is one cycle of class labels holding each
   label [w] times, in seeded order — fixed class shares per cycle keep
   every run's mix the same whatever the seed. *)
let schedule st weights =
  shuffle st
    (Array.of_list (List.concat_map (fun (c, w) -> List.init w (fun _ -> c)) weights))

(* [cycler st weights] draws labels cycle by cycle, reshuffling every
   cycle: the shares stay fixed, and which class follows which varies
   within a run instead of being fixed by the seed. *)
let cycler st weights =
  let cycle = schedule st weights in
  let pos = ref 0 in
  fun () ->
    if !pos = Array.length cycle then begin
      ignore (shuffle st cycle);
      pos := 0
    end;
    let c = cycle.(!pos) in
    incr pos;
    c
