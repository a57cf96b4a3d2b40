module Vocabulary = Vardi_logic.Vocabulary

type fact = {
  pred : string;
  args : string list;
}

module Fact_set = Set.Make (struct
  type t = fact

  let compare a b =
    let c = String.compare a.pred b.pred in
    if c <> 0 then c else List.compare String.compare a.args b.args
end)

module Ranks = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* The uniqueness axioms over the [n] sorted constants are one bit per
   unordered pair of ranks [i < j], row by row: the bits of row [i] are
   contiguous, and a walk in bit order visits the pairs sorted by
   [(names.(i), names.(j))]. Padding bits in the last byte stay zero,
   so two matrices over one constant set are equal iff their bytes
   are. [ranks] is built with [names] and never mutated afterwards:
   databases that share a constant set share it, across domains too.
   [bits] is never mutated once the database is returned.
   [fact_count] is the cardinal of [facts], kept so that counting them
   is O(1). *)
type t = {
  vocabulary : Vocabulary.t;
  names : string array;
  ranks : int Ranks.t;
  facts : Fact_set.t;
  fact_count : int;
  bits : Bytes.t;
  pairs : int;
}

let pair_count n = n * (n - 1) / 2

(* Bit of the pair [i < j]: rows 0..i-1 hold (n-1) + ... + (n-i) bits.
   The product is never negative, so a shift halves it. *)
let bit_index n i j = ((i * ((2 * n) - i - 1)) lsr 1) + (j - i - 1)

let test_bit bits k =
  Char.code (Bytes.get bits (k lsr 3)) land (1 lsl (k land 7)) <> 0

(* Sets bit [k]; [true] when it was clear. *)
let set_bit bits k =
  let byte = Char.code (Bytes.get bits (k lsr 3)) in
  let mask = 1 lsl (k land 7) in
  byte land mask = 0
  && begin
    Bytes.set bits (k lsr 3) (Char.chr (byte lor mask));
    true
  end

let constant_count db = Array.length db.names

(* Whether the ranks [i] and [j] of [n] constants carry an axiom in
   [bits]. *)
let distinct_in n bits i j =
  if i < j then test_bit bits (bit_index n i j)
  else j < i && test_bit bits (bit_index n j i)

let distinct_ranks db i j = distinct_in (constant_count db) db.bits i j

let check_constant ranks msg c =
  if not (Ranks.mem ranks c) then invalid_arg (Printf.sprintf msg c)

let check_fact db { pred; args } =
  (match Vocabulary.arity_opt db.vocabulary pred with
  | None ->
    invalid_arg (Printf.sprintf "Cw_database: undeclared predicate %s" pred)
  | Some k ->
    if List.length args <> k then
      invalid_arg
        (Printf.sprintf "Cw_database: fact %s has %d arguments, declared %d"
           pred (List.length args) k));
  List.iter
    (check_constant db.ranks "Cw_database: fact argument %s is not a constant")
    args

let inconsistent c =
  invalid_arg
    (Printf.sprintf "Cw_database: uniqueness axiom ~(%s = %s) is inconsistent"
       c c)

(* The ranks [(i, j)], [i < j], of a uniqueness axiom's two
   constants, after [make]'s checks. *)
let pair_ranks db c d =
  if String.equal c d then inconsistent c;
  let rank x =
    match Ranks.find_opt db.ranks x with
    | Some r -> r
    | None ->
      invalid_arg (Printf.sprintf "Cw_database: %s is not a constant" x)
  in
  let i = rank c in
  let j = rank d in
  if i < j then (i, j) else (j, i)

(* A database over [names], the vocabulary's constants sorted: checks
   [facts], then sets the bit of each pair of ranks [i < j] that [fill]
   passes to its second argument. *)
let build vocabulary names ~facts fill =
  let n = Array.length names in
  if n = 0 then
    invalid_arg "Cw_database: the vocabulary needs at least one constant";
  let ranks = Ranks.create (2 * n) in
  Array.iteri (fun i c -> Ranks.replace ranks c i) names;
  let db =
    {
      vocabulary;
      names;
      ranks;
      facts = Fact_set.empty;
      fact_count = 0;
      bits = Bytes.make ((pair_count n + 7) / 8) '\000';
      pairs = 0;
    }
  in
  List.iter (check_fact db) facts;
  let pairs = ref 0 in
  fill db (fun i j -> if set_bit db.bits (bit_index n i j) then incr pairs);
  let facts = Fact_set.of_list facts in
  { db with facts; fact_count = Fact_set.cardinal facts; pairs = !pairs }

let make ~vocabulary ~facts ~distinct =
  build vocabulary
    (Array.of_list (Vocabulary.constants vocabulary))
    ~facts
    (fun db set ->
      List.iter
        (fun (c, d) ->
          let i, j = pair_ranks db c d in
          set i j)
        distinct)

let make_interned ~names ~predicates ~facts ~distinct =
  let n = Array.length names in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> String.compare names.(a) names.(b)) order;
  let sorted = Array.map (fun id -> names.(id)) order in
  for r = 1 to n - 1 do
    if String.equal sorted.(r - 1) sorted.(r) then
      invalid_arg
        (Printf.sprintf "Cw_database: constant %s interned twice" sorted.(r))
  done;
  let rank = Array.make n 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  build
    (Vocabulary.make ~constants:(Array.to_list sorted) ~predicates)
    sorted ~facts
    (fun _ set ->
      distinct (fun a b ->
          let i = rank.(a) and j = rank.(b) in
          if i < j then set i j
          else if j < i then set j i
          else inconsistent names.(a)))

let vocabulary db = db.vocabulary
let constants db = Array.to_list db.names
let facts db = Fact_set.elements db.facts
let fact_count db = db.fact_count

let facts_of db p =
  Fact_set.to_seq_from { pred = p; args = [] } db.facts
  |> Seq.take_while (fun f -> String.equal f.pred p)
  |> Seq.map (fun f -> f.args)
  |> List.of_seq

let mem_fact db fact = Fact_set.mem fact db.facts

(* Walks the bits backwards so the list comes out in order. *)
let distinct_pairs db =
  let n = constant_count db in
  let acc = ref [] in
  for i = n - 2 downto 0 do
    let row = bit_index n i (i + 1) in
    for j = n - 1 downto i + 1 do
      if test_bit db.bits (row + j - i - 1) then
        acc := (db.names.(i), db.names.(j)) :: !acc
    done
  done;
  !acc

let are_distinct db c d =
  match Ranks.find db.ranks c with
  | exception Not_found -> false
  | i -> (
    match Ranks.find db.ranks d with
    | exception Not_found -> false
    | j -> distinct_ranks db i j)

let is_fully_specified db = db.pairs = pair_count (constant_count db)

let fully_specify db =
  let n = constant_count db in
  let total = pair_count n in
  let bits = Bytes.make (Bytes.length db.bits) '\255' in
  (* clear the padding bits of the last byte *)
  if total land 7 <> 0 then
    Bytes.set bits (total lsr 3) (Char.chr ((1 lsl (total land 7)) - 1));
  { db with bits; pairs = total }

(* [i] is a known value when its row and column are all set. *)
let known_rank db i =
  let n = constant_count db in
  let rec from j =
    j >= n || ((j = i || distinct_ranks db i j) && from (j + 1))
  in
  from 0

let partition_values db =
  let known = ref [] and unknown = ref [] in
  for i = constant_count db - 1 downto 0 do
    if known_rank db i then known := db.names.(i) :: !known
    else unknown := db.names.(i) :: !unknown
  done;
  (!known, !unknown)

let known_values db = fst (partition_values db)
let unknown_values db = snd (partition_values db)

let add_fact db fact =
  check_fact db fact;
  let facts = Fact_set.add fact db.facts in
  (* [Fact_set.add] returns the set itself when the fact is present *)
  if facts == db.facts then db
  else { db with facts; fact_count = db.fact_count + 1 }

let add_distinct db c d =
  let i, j = pair_ranks db c d in
  let k = bit_index (constant_count db) i j in
  if test_bit db.bits k then db
  else begin
    let bits = Bytes.copy db.bits in
    ignore (set_bit bits k);
    { db with bits; pairs = db.pairs + 1 }
  end

let remove_fact db fact =
  check_fact db fact;
  if not (Fact_set.mem fact db.facts) then
    invalid_arg
      (Printf.sprintf "Cw_database: fact %s(%s) is not in the database"
         fact.pred
         (String.concat ", " fact.args));
  {
    db with
    facts = Fact_set.remove fact db.facts;
    fact_count = db.fact_count - 1;
  }

let merge_constants db ~keep ~drop =
  List.iter
    (check_constant db.ranks "Cw_database: %s is not a constant")
    [ keep; drop ];
  if String.equal keep drop then
    invalid_arg
      (Printf.sprintf "Cw_database: cannot merge constant %s with itself" keep);
  if are_distinct db keep drop then
    invalid_arg
      (Printf.sprintf
         "Cw_database: constants %s and %s carry a uniqueness axiom; closing \
          them to equal is inconsistent"
         keep drop);
  let subst c = if String.equal c drop then keep else c in
  let n = constant_count db in
  let dropped = Ranks.find db.ranks drop in
  let shift r = if r < dropped then r else r - 1 in
  let kept = shift (Ranks.find db.ranks keep) in
  (* Old rank to new: [drop] takes [keep]'s rank. A pair collapsing onto
     itself would be ¬(keep = keep); it can only come from a
     (keep, drop) axiom, refused above, but keep the guard so the
     invariant is local. *)
  let renumber r = if r = dropped then kept else shift r in
  let names =
    Array.init (n - 1) (fun r -> db.names.(if r < dropped then r else r + 1))
  in
  let merged =
    build
      (Vocabulary.make ~constants:(Array.to_list names)
         ~predicates:(Vocabulary.predicates db.vocabulary))
      names ~facts:[]
      (fun _ set ->
        for i = 0 to n - 2 do
          for j = i + 1 to n - 1 do
            if distinct_ranks db i j then begin
              let a = renumber i and b = renumber j in
              if a < b then set a b else if b < a then set b a
            end
          done
        done)
  in
  let facts =
    Fact_set.fold
      (fun f acc -> Fact_set.add { f with args = List.map subst f.args } acc)
      db.facts Fact_set.empty
  in
  (* two facts may collapse into one *)
  { merged with facts; fact_count = Fact_set.cardinal facts }

let size db = db.fact_count + db.pairs + constant_count db

(* Three fields the database never mutates once it is returned, and no
   facts: a coding held across fact deltas keeps no old fact set
   alive. *)
module Coding = struct
  type t = {
    names : string array;
    ranks : int Ranks.t;
    bits : Bytes.t;
  }

  let size c = Array.length c.names
  let name c r = c.names.(r)
  let rank c name = Ranks.find c.ranks name
  let rank_opt c name = Ranks.find_opt c.ranks name

  (* A loop of its own: the partition enumeration pays one call per
     block rather than one per member. *)
  let rec distinct_from_list n bits i = function
    | [] -> false
    | j :: rest -> distinct_in n bits i j || distinct_from_list n bits i rest

  let distinct_from_any c i members =
    distinct_from_list (Array.length c.names) c.bits i members

  let same_constants a b = a.names == b.names || a.names = b.names
end

let coding db = { Coding.names = db.names; ranks = db.ranks; bits = db.bits }

let equal a b =
  Vocabulary.equal a.vocabulary b.vocabulary
  && Fact_set.equal a.facts b.facts
  && a.pairs = b.pairs && Bytes.equal a.bits b.bits

let pp ppf db =
  let pp_fact ppf f =
    Fmt.pf ppf "%s(%a)" f.pred Fmt.(list ~sep:(any ", ") string) f.args
  in
  let pp_pair ppf (c, d) = Fmt.pf ppf "%s != %s" c d in
  Fmt.pf ppf "@[<v>%a@,facts: %a@,distinct: %a@]" Vocabulary.pp db.vocabulary
    Fmt.(list ~sep:(any "; ") pp_fact)
    (facts db)
    Fmt.(list ~sep:(any "; ") pp_pair)
    (distinct_pairs db)
