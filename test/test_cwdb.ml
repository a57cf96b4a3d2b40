(* Tests for CW logical databases: construction, axioms, Ph₁/Ph₂,
   mappings, partitions, virtual NE. *)

open Logicaldb

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let socrates = Support.socrates_db ()

(* --- construction and validation --- *)

let test_make_validation () =
  let v = Vocabulary.make ~constants:[ "a" ] ~predicates:[ ("P", 1) ] in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Cw_database.make ~vocabulary:v
        ~facts:[ { Cw_database.pred = "Q"; args = [ "a" ] } ]
        ~distinct:[]);
  expect_invalid (fun () ->
      Cw_database.make ~vocabulary:v
        ~facts:[ { Cw_database.pred = "P"; args = [ "a"; "a" ] } ]
        ~distinct:[]);
  expect_invalid (fun () ->
      Cw_database.make ~vocabulary:v ~facts:[] ~distinct:[ ("a", "a") ]);
  expect_invalid (fun () ->
      Cw_database.make ~vocabulary:v ~facts:[] ~distinct:[ ("a", "zzz") ]);
  expect_invalid (fun () ->
      Cw_database.make
        ~vocabulary:(Vocabulary.make ~constants:[] ~predicates:[])
        ~facts:[] ~distinct:[])

let test_distinct_pairs_normalized () =
  let db =
    database ~constants:[ "a"; "b" ] ~distinct:[ ("b", "a"); ("a", "b") ] ()
  in
  check
    Alcotest.(list (pair string string))
    "normalized and deduplicated"
    [ ("a", "b") ]
    (Cw_database.distinct_pairs db);
  check_bool "symmetric lookup" true (Cw_database.are_distinct db "b" "a")

let test_fully_specified () =
  check_bool "socrates not fully specified" false
    (Cw_database.is_fully_specified socrates);
  let full = Cw_database.fully_specify socrates in
  check_bool "now fully specified" true (Cw_database.is_fully_specified full);
  check_int "all pairs" 3 (List.length (Cw_database.distinct_pairs full))

let test_known_unknown () =
  (* mystery is separated from nobody; socrates and plato are separated
     from each other but not from mystery, so nothing is fully known. *)
  check
    Alcotest.(list string)
    "unknowns"
    [ "mystery"; "plato"; "socrates" ]
    (Cw_database.unknown_values socrates);
  let full = Cw_database.fully_specify socrates in
  check Alcotest.(list string) "no unknowns once fully specified" []
    (Cw_database.unknown_values full)

(* --- the five-component theory --- *)

let test_axioms_shapes () =
  check_int "atomic facts" 1 (List.length (Axioms.atomic_facts socrates));
  check_int "uniqueness" 1 (List.length (Axioms.uniqueness socrates));
  let closure = Axioms.domain_closure socrates in
  check Support.formula_testable "domain closure"
    (Parser.formula "forall x. x = mystery \\/ x = plato \\/ x = socrates")
    closure;
  let completion = Axioms.completion socrates "TEACHES" in
  check Support.formula_testable "completion"
    (Parser.formula
       "forall x0, x1. TEACHES(x0, x1) -> x0 = socrates /\\ x1 = plato")
    completion

let test_completion_empty_predicate () =
  let db = database ~predicates:[ ("P", 1) ] ~constants:[ "a" ] () in
  check Support.formula_testable "empty completion"
    (Parser.formula "forall x0. ~P(x0)")
    (Axioms.completion db "P")

let test_ph1_is_model () =
  check_bool "Ph1 satisfies T" true (Axioms.is_model socrates (Ph.ph1 socrates));
  check_bool "Ph1 satisfies T (personnel)" true
    (Axioms.is_model (Support.personnel_db ()) (Ph.ph1 (Support.personnel_db ())))

let test_non_model () =
  (* Dropping a fact from Ph1 falsifies the atomic fact axiom. *)
  let ph1 = Ph.ph1 socrates in
  let broken = Database.with_relation ph1 "TEACHES" (Relation.empty 2) in
  check_bool "missing fact" false (Axioms.is_model socrates broken);
  (* Adding a tuple violates the completion axiom. *)
  let extended =
    Database.with_relation ph1 "TEACHES"
      (Relation.of_tuples 2 [ [ "socrates"; "plato" ]; [ "plato"; "plato" ] ])
  in
  check_bool "extra fact" false (Axioms.is_model socrates extended)

(* --- Ph₁ / Ph₂ --- *)

let test_ph1 () =
  let pb = Ph.ph1 socrates in
  check
    Alcotest.(list string)
    "domain = C"
    [ "mystery"; "plato"; "socrates" ]
    (Database.domain pb);
  check Alcotest.string "identity on constants" "plato"
    (Database.constant pb "plato");
  check_bool "facts stored" true
    (Relation.mem [ "socrates"; "plato" ] (Database.relation pb "TEACHES"))

let test_ph2 () =
  let pb = Ph.ph2 socrates in
  let ne = Database.relation pb Ph.ne_predicate in
  check_int "NE stored symmetrically" 2 (Relation.cardinal ne);
  check_bool "NE pair" true (Relation.mem [ "plato"; "socrates" ] ne);
  check_bool "NE mirror" true (Relation.mem [ "socrates"; "plato" ] ne);
  (* NE must not leak into Ph1. *)
  check_bool "ph1 has no NE" true
    (Option.is_none (Database.relation_opt (Ph.ph1 socrates) Ph.ne_predicate));
  (* In place: Ph1 plus a hook reading the uniqueness axioms. *)
  let ph1, hook = Ph.ph2_in_place socrates in
  check_bool "in-place database is Ph1" true
    (Database.equal ph1 (Ph.ph1 socrates));
  let ne_holds = Option.get (hook Ph.ne_predicate) in
  check_bool "in-place NE pair" true (ne_holds [ "plato"; "socrates" ]);
  check_bool "in-place NE mirror" true (ne_holds [ "socrates"; "plato" ]);
  check_bool "in-place NE open pair" false (ne_holds [ "mystery"; "plato" ]);
  check_bool "hook leaves other names" true (Option.is_none (hook "TEACHES"))

(* --- mappings --- *)

let test_mapping_basics () =
  let h = Mapping.of_assoc socrates [ ("mystery", "socrates") ] in
  check Alcotest.string "mapped" "socrates" (Mapping.apply h "mystery");
  check Alcotest.string "identity elsewhere" "plato" (Mapping.apply h "plato");
  check_bool "respects" true (Mapping.respects h);
  let bad = Mapping.of_assoc socrates [ ("socrates", "plato") ] in
  check_bool "violates uniqueness" false (Mapping.respects bad)

let test_mapping_image () =
  let h = Mapping.of_assoc socrates [ ("mystery", "socrates") ] in
  let image = Mapping.image_db h in
  check_int "collapsed domain" 2 (Database.domain_size image);
  check Alcotest.string "constant moved" "socrates"
    (Database.constant image "mystery");
  (* The image of a respecting mapping is still a model of T
     (paper, proof of Theorem 1). *)
  check_bool "image is a model" true (Axioms.is_model socrates image)

let contains_substring haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_mapping_duplicate_bindings () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument msg ->
      check_bool "message names the constant" true
        (contains_substring msg "mystery")
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* Contradictory duplicate: the old assoc lookup silently kept the
     first binding. *)
  expect_invalid (fun () ->
      Mapping.of_assoc socrates
        [ ("mystery", "socrates"); ("mystery", "plato") ]);
  (* Even a consistent duplicate is rejected. *)
  expect_invalid (fun () ->
      Mapping.of_assoc socrates
        [ ("mystery", "socrates"); ("mystery", "socrates") ])

let test_mapping_counting_exact () =
  (* 13^13 = 302875106592253 does not round-trip through the old
     float-based counter's [int_of_float]-under-cap path; the integer
     counter is exact and the cap error fires before any enumeration. *)
  let db13 = database ~constants:(List.init 13 (Printf.sprintf "c%d")) () in
  check_bool "13^13 exact" true (Mapping.count_all db13 = 302875106592253);
  (* The cap check runs before the sequence is built, so the error is
     raised by the [Mapping.all] call itself, not by forcing. *)
  (match ignore (Mapping.all db13 : Mapping.t Seq.t) with
  | exception Invalid_argument msg ->
    check_bool "cap error mentions the size" true
      (contains_substring msg "13^13")
  | () -> Alcotest.fail "expected the enumeration cap to fire");
  (* Below the cap the enumeration is exhaustive: 2^2 = 4. *)
  let db2 = database ~constants:[ "a"; "b" ] () in
  check_int "2^2 enumerated" 4 (List.length (List.of_seq (Mapping.all db2)));
  check_bool "count_all saturates instead of overflowing" true
    (Mapping.count_all
       (database ~constants:(List.init 30 (Printf.sprintf "c%d")) ())
    = max_int)

let test_mapping_enumeration () =
  let all = List.of_seq (Mapping.all socrates) in
  check_int "3^3 mappings" 27 (List.length all);
  let respecting = List.of_seq (Mapping.all_respecting socrates) in
  (* h(socrates) ≠ h(plato): 27 minus mappings sending both to the same
     element. Count directly instead of trusting arithmetic. *)
  let direct =
    List.length (List.filter Mapping.respects all)
  in
  check_int "respecting count matches filter" direct (List.length respecting);
  check_bool "identity respects" true
    (List.exists (Mapping.equal (Mapping.identity socrates)) respecting)

(* --- partitions --- *)

let test_partition_discrete () =
  let p = Partition.discrete socrates in
  check_int "three singleton blocks" 3 (List.length (Partition.blocks p));
  check Alcotest.string "self representative" "plato"
    (Partition.representative p "plato")

let test_partition_of_blocks () =
  let p =
    Partition.of_blocks socrates [ [ "mystery"; "socrates" ]; [ "plato" ] ]
  in
  check Alcotest.string "merged representative" "mystery"
    (Partition.representative p "socrates");
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* merging a distinct pair *)
  expect_invalid (fun () ->
      Partition.of_blocks socrates [ [ "socrates"; "plato" ]; [ "mystery" ] ]);
  (* missing constant *)
  expect_invalid (fun () -> Partition.of_blocks socrates [ [ "socrates" ] ]);
  (* double coverage *)
  expect_invalid (fun () ->
      Partition.of_blocks socrates
        [ [ "socrates"; "mystery" ]; [ "plato"; "mystery" ] ])

let test_partition_enumeration () =
  (* Partitions of {mystery, plato, socrates} whose blocks avoid the
     pair (socrates, plato): 5 total partitions of a 3-set, minus
     {sp}{m} and {spm}, leaving 3. *)
  check_int "valid partitions" 3 (Partition.count_valid socrates);
  let all = List.of_seq (Partition.all_valid socrates) in
  check_bool "discrete first" true
    (Partition.equal (List.hd all) (Partition.discrete socrates));
  (* A fully specified database admits only the discrete partition. *)
  check_int "fully specified: 1 partition" 1
    (Partition.count_valid (Cw_database.fully_specify socrates))

let test_partition_orders () =
  (* Both orders enumerate the same set of partitions. *)
  let sort ps =
    List.sort compare (List.map Partition.blocks ps)
  in
  check
    Alcotest.(list (list (list string)))
    "same partition set"
    (sort (List.of_seq (Partition.all_valid ~order:Partition.Fresh_first socrates)))
    (sort (List.of_seq (Partition.all_valid ~order:Partition.Merge_first socrates)));
  (* Merge-first on an unconstrained database starts with the single
     all-in-one block. *)
  let free = database ~constants:[ "a"; "b"; "c" ] () in
  (match List.of_seq (Partition.all_valid ~order:Partition.Merge_first free) with
  | first :: _ ->
    check Alcotest.int "one block first" 1 (List.length (Partition.blocks first))
  | [] -> Alcotest.fail "no partitions");
  (* Fresh-first starts discrete. *)
  match List.of_seq (Partition.all_valid ~order:Partition.Fresh_first free) with
  | first :: _ ->
    check Alcotest.int "discrete first" 3 (List.length (Partition.blocks first))
  | [] -> Alcotest.fail "no partitions"

let test_partition_enumeration_large () =
  (* Regression for the left-nested [Seq.append] in [all_valid]: with
     |C| = 10 and no distinct pairs every partition is valid, so the
     stream has Bell(10) = 115975 elements. The quadratic nesting made
     this walk take minutes; the right-nested stream finishes in well
     under the budget. *)
  let db = database ~constants:(List.init 10 (Printf.sprintf "c%d")) () in
  let started = Unix.gettimeofday () in
  let count = Seq.fold_left (fun n _ -> n + 1) 0 (Partition.all_valid db) in
  let elapsed = Unix.gettimeofday () -. started in
  check_int "Bell(10) partitions" 115975 count;
  check_int "count_valid agrees" 115975 (Partition.count_valid db);
  check_bool
    (Printf.sprintf "enumeration under 30s budget (took %.1fs)" elapsed)
    true (elapsed < 30.0)

let test_partition_quotient_is_model () =
  List.iter
    (fun p -> check_bool "quotient is a model" true
        (Axioms.is_model socrates (Partition.quotient p)))
    (List.of_seq (Partition.all_valid socrates))

(* Kernel-partition count equals the number of distinct kernels of
   respecting mappings (sanity of the symmetry argument). *)
let partition_counts_match_mappings =
  QCheck2.Test.make ~count:60 ~name:"partitions = mapping kernels"
    ~print:Support.print_db Support.gen_cw_database
    (fun db ->
      let kernels = Hashtbl.create 16 in
      Seq.iter
        (fun h ->
          let constants = Cw_database.constants db in
          let blocks = Hashtbl.create 8 in
          List.iter
            (fun c ->
              let img = Mapping.apply h c in
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt blocks img)
              in
              Hashtbl.replace blocks img (c :: cur))
            constants;
          let kernel =
            Hashtbl.fold (fun _ cs acc -> List.sort compare cs :: acc) blocks []
            |> List.sort compare
          in
          Hashtbl.replace kernels kernel ())
        (Mapping.all_respecting db);
      Hashtbl.length kernels = Partition.count_valid db)

(* --- virtual NE --- *)

let test_ne_virtual_socrates () =
  let nev = Ne_virtual.make socrates in
  (* Everybody is unknown here (mystery separates nobody). *)
  check_int "unknowns" 3 (List.length (Ne_virtual.unknowns nev));
  check_bool "stored pair" true (Ne_virtual.holds nev "socrates" "plato");
  check_bool "unknown pair absent" false (Ne_virtual.holds nev "mystery" "plato")

let test_ne_virtual_fully_specified () =
  let full = Cw_database.fully_specify socrates in
  let nev = Ne_virtual.make full in
  check_int "no unknowns" 0 (List.length (Ne_virtual.unknowns nev));
  check_int "nothing stored" 0 (List.length (Ne_virtual.stored_pairs nev));
  check_bool "reduces to inequality" true (Ne_virtual.holds nev "plato" "socrates");
  check_bool "never reflexive" false (Ne_virtual.holds nev "plato" "plato")

(* Both virtual NEs — the U/NE′ form and the in-place hook the
   engines run — agree with the explicit NE of Ph₂ on every pair. *)
let ne_virtual_agrees =
  QCheck2.Test.make ~count:150 ~name:"virtual NE = explicit NE"
    ~print:Support.print_db Support.gen_cw_database
    (fun db ->
      let nev = Ne_virtual.make db in
      let ne = Database.relation (Ph.ph2 db) Ph.ne_predicate in
      let in_place = Option.get (Ph.ne_virtuals db Ph.ne_predicate) in
      let constants = Cw_database.constants db in
      List.for_all
        (fun c ->
          List.for_all
            (fun d ->
              let explicit = Relation.mem [ c; d ] ne in
              Ne_virtual.holds nev c d = explicit
              && in_place [ c; d ] = explicit)
            constants)
        constants)

(* Virtual NE storage never exceeds explicit storage. *)
let ne_virtual_compact =
  QCheck2.Test.make ~count:150 ~name:"virtual NE storage bound"
    ~print:Support.print_db Support.gen_cw_database
    (fun db ->
      let nev = Ne_virtual.make db in
      Ne_virtual.storage_size nev
      <= Ne_virtual.explicit_size db + List.length (Ne_virtual.unknowns nev))

(* --- query checks --- *)

let test_query_check () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  Query_check.validate socrates (Parser.query "(x). TEACHES(x, plato)");
  expect_invalid (fun () ->
      Query_check.validate socrates (Parser.query "(x). NOPE(x)"));
  expect_invalid (fun () ->
      Query_check.validate socrates (Parser.query "(x). TEACHES(x)"));
  expect_invalid (fun () ->
      Query_check.validate socrates (Parser.query "(x). TEACHES(x, aristotle)"));
  expect_invalid (fun () ->
      Query_check.validate_tuple socrates
        (Parser.query "(x). TEACHES(x, plato)")
        [ "a"; "b" ])

(* --- the bit-matrix store against a list model ---

   The model keeps what the database means: sorted constants, sorted
   facts and sorted normalized pairs, as plain lists. Every operation
   runs on both, a refusal must come with the model's, and after every
   step each observation must agree. Names are chosen so byte order
   surprises: "B" < "_x" < "a" < "a10" < "a9". "q" is never declared. *)

type model = {
  m_constants : string list;
  m_facts : (string * string list) list;
  m_pairs : (string * string) list;
}

type op =
  | Add_distinct of string * string
  | Fully_specify
  | Merge of string * string
  | Add_fact of string * string list
  | Remove_fact of string * string list

let model_pool = [ "B"; "_x"; "a"; "a10"; "a9"; "b'"; "q" ]
let model_predicates = [ ("P", 1); ("R", 2); ("Z", 0) ]
let norm c d = if String.compare c d <= 0 then (c, d) else (d, c)
let sorted_uniq l = List.sort_uniq compare l

let model_distinct m c d = c <> d && List.mem (norm c d) m.m_pairs

let model_all_pairs m =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun d -> if c < d then Some (c, d) else None)
        m.m_constants)
    m.m_constants

let model_known m =
  List.filter
    (fun c ->
      List.for_all (fun d -> d = c || model_distinct m c d) m.m_constants)
    m.m_constants

let declared m c = List.mem c m.m_constants

let model_valid_fact m (p, args) =
  List.assoc_opt p model_predicates = Some (List.length args)
  && List.for_all (declared m) args

(* [Some m'] is the model after [op]; [None] when the database must
   refuse it. *)
let model_step m = function
  | Add_distinct (c, d) ->
    if c = d || not (declared m c && declared m d) then None
    else Some { m with m_pairs = sorted_uniq (norm c d :: m.m_pairs) }
  | Fully_specify -> Some { m with m_pairs = model_all_pairs m }
  | Merge (keep, drop) ->
    if
      keep = drop
      || (not (declared m keep && declared m drop))
      || model_distinct m keep drop
    then None
    else
      let subst c = if c = drop then keep else c in
      Some
        {
          m_constants = List.filter (fun c -> c <> drop) m.m_constants;
          m_facts =
            sorted_uniq
              (List.map (fun (p, args) -> (p, List.map subst args)) m.m_facts);
          m_pairs =
            sorted_uniq
              (List.filter_map
                 (fun (c, d) ->
                   let c = subst c and d = subst d in
                   if c = d then None else Some (norm c d))
                 m.m_pairs);
        }
  | Add_fact (p, args) ->
    if model_valid_fact m (p, args) then
      Some { m with m_facts = sorted_uniq ((p, args) :: m.m_facts) }
    else None
  | Remove_fact (p, args) ->
    if model_valid_fact m (p, args) && List.mem (p, args) m.m_facts then
      Some { m with m_facts = List.filter (( <> ) (p, args)) m.m_facts }
    else None

let apply_op db = function
  | Add_distinct (c, d) -> Cw_database.add_distinct db c d
  | Fully_specify -> Cw_database.fully_specify db
  | Merge (keep, drop) -> Cw_database.merge_constants db ~keep ~drop
  | Add_fact (pred, args) -> Cw_database.add_fact db { Cw_database.pred; args }
  | Remove_fact (pred, args) ->
    Cw_database.remove_fact db { Cw_database.pred; args }

let show_op = function
  | Add_distinct (c, d) -> Printf.sprintf "distinct %s %s" c d
  | Fully_specify -> "fully_specify"
  | Merge (k, d) -> Printf.sprintf "merge %s <- %s" k d
  | Add_fact (p, a) -> Printf.sprintf "add %s(%s)" p (String.concat ", " a)
  | Remove_fact (p, a) ->
    Printf.sprintf "remove %s(%s)" p (String.concat ", " a)

let to_facts = List.map (fun (pred, args) -> { Cw_database.pred; args })

(* The database the model describes, built from scratch. *)
let of_model m =
  Cw_database.make
    ~vocabulary:
      (Vocabulary.make ~constants:m.m_constants ~predicates:model_predicates)
    ~facts:(to_facts m.m_facts) ~distinct:m.m_pairs

(* Where [db] and [m] disagree, if anywhere. *)
let model_mismatch db m =
  let names = model_pool @ [ "" ] in
  let facts = List.map (fun f -> (f.Cw_database.pred, f.Cw_database.args)) in
  let checks =
    [
      ("constants", Cw_database.constants db = m.m_constants);
      ("distinct_pairs", Cw_database.distinct_pairs db = m.m_pairs);
      ( "are_distinct",
        List.for_all
          (fun c ->
            List.for_all
              (fun d -> Cw_database.are_distinct db c d = model_distinct m c d)
              names)
          names );
      ( "is_fully_specified",
        Cw_database.is_fully_specified db
        = List.for_all
            (fun (c, d) -> model_distinct m c d)
            (model_all_pairs m) );
      ("known_values", Cw_database.known_values db = model_known m);
      ( "unknown_values",
        Cw_database.unknown_values db
        = List.filter
            (fun c -> not (List.mem c (model_known m)))
            m.m_constants );
      ( "size",
        Cw_database.size db
        = List.length m.m_facts + List.length m.m_pairs
          + List.length m.m_constants );
      ("facts", facts (Cw_database.facts db) = m.m_facts);
      ("fact_count", Cw_database.fact_count db = List.length m.m_facts);
      ( "facts_of",
        List.for_all
          (fun p ->
            Cw_database.facts_of db p
            = List.filter_map
                (fun (q, a) -> if q = p then Some a else None)
                m.m_facts)
          [ "P"; "R"; "Z"; "Q"; "" ] );
      ( "mem_fact",
        List.for_all
          (fun (pred, args) ->
            Cw_database.mem_fact db { Cw_database.pred; args }
            = List.mem (pred, args) m.m_facts)
          (m.m_facts
          @ [
              ("P", [ "q" ]);
              ("R", [ "a"; "B" ]);
              ("Z", []);
              ("Q", [ "a" ]);
              ("P", []);
            ]) );
      ("equal", Cw_database.equal db (of_model m));
    ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

let gen_model_case =
  let open QCheck2.Gen in
  let name = oneofl model_pool in
  let* constants =
    list_size (int_range 1 6) (oneofl (List.filter (( <> ) "q") model_pool))
  in
  let constants = sorted_uniq constants in
  let declared = oneofl constants in
  (* facts of every shape, R/1 of the wrong arity among them *)
  let gen_fact c =
    oneof
      [
        map (fun x -> ("P", [ x ])) c;
        map2 (fun x y -> ("R", [ x; y ])) c c;
        return ("Z", []);
        map (fun x -> ("R", [ x ])) c;
      ]
  in
  let* pairs = list_size (int_bound 8) (pair declared declared) in
  let* facts = list_size (int_bound 6) (gen_fact declared) in
  let* ops =
    list_size (int_bound 12)
      (frequency
         [
           (4, map2 (fun c d -> Add_distinct (c, d)) name name);
           (1, return Fully_specify);
           (2, map2 (fun c d -> Merge (c, d)) name name);
           (3, map (fun (p, a) -> Add_fact (p, a)) (gen_fact name));
           (3, map (fun (p, a) -> Remove_fact (p, a)) (gen_fact name));
         ])
  in
  let m = { m_constants = constants; m_facts = []; m_pairs = [] } in
  return
    ( {
        m with
        m_facts = sorted_uniq (List.filter (model_valid_fact m) facts);
        m_pairs =
          sorted_uniq
            (List.filter_map
               (fun (c, d) -> if c = d then None else Some (norm c d))
               pairs);
      },
      ops )

let print_model_case (m, ops) =
  Printf.sprintf "constants %s; facts %d; pairs %s; ops: %s"
    (String.concat " " m.m_constants)
    (List.length m.m_facts)
    (String.concat " " (List.map (fun (c, d) -> c ^ "/" ^ d) m.m_pairs))
    (String.concat "; " (List.map show_op ops))

let bit_matrix_matches_model =
  QCheck2.Test.make ~count:300 ~name:"bit matrix = list model"
    ~print:print_model_case gen_model_case (fun (m0, ops) ->
      let fail step what =
        QCheck2.Test.fail_reportf "after %s: %s disagrees" step what
      in
      (* [make_interned] over the names in reverse order and with
         repeated pairs must build the same database as [make]. *)
      let names = Array.of_list (List.rev m0.m_constants) in
      let id c =
        let rec go i = if names.(i) = c then i else go (i + 1) in
        go 0
      in
      let interned =
        Cw_database.make_interned ~names ~predicates:model_predicates
          ~facts:(to_facts m0.m_facts) ~distinct:(fun f ->
            List.iter
              (fun (c, d) ->
                f (id d) (id c);
                f (id c) (id d))
              m0.m_pairs)
      in
      if not (Cw_database.equal interned (of_model m0)) then
        fail "make_interned" "equal";
      let step (db, m) op =
        let result =
          match apply_op db op with
          | db' -> Ok db'
          | exception Invalid_argument msg -> Error msg
        in
        match (model_step m op, result) with
        | None, Error _ -> (db, m)
        | None, Ok _ -> fail (show_op op) "refusal (the database accepted it)"
        | Some _, Error msg ->
          fail (show_op op) ("acceptance (refused: " ^ msg ^ ")")
        | Some m', Ok db' -> (
          match model_mismatch db' m' with
          | Some what -> fail (show_op op) what
          | None when Cw_database.equal db db' <> (m = m') ->
            fail (show_op op) "equal with the previous database"
          | None -> (db', m'))
      in
      let db0 = of_model m0 in
      (match model_mismatch db0 m0 with
      | Some what -> fail "make" what
      | None -> ());
      ignore (List.fold_left step (db0, m0) ops);
      true)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "distinct pairs normalized" `Quick
      test_distinct_pairs_normalized;
    Alcotest.test_case "fully specified" `Quick test_fully_specified;
    Alcotest.test_case "known/unknown values" `Quick test_known_unknown;
    Alcotest.test_case "axiom shapes" `Quick test_axioms_shapes;
    Alcotest.test_case "empty completion" `Quick test_completion_empty_predicate;
    Alcotest.test_case "Ph1 is a model" `Quick test_ph1_is_model;
    Alcotest.test_case "non-models rejected" `Quick test_non_model;
    Alcotest.test_case "Ph1 construction" `Quick test_ph1;
    Alcotest.test_case "Ph2 construction" `Quick test_ph2;
    Alcotest.test_case "mapping basics" `Quick test_mapping_basics;
    Alcotest.test_case "mapping image" `Quick test_mapping_image;
    Alcotest.test_case "mapping duplicate bindings" `Quick
      test_mapping_duplicate_bindings;
    Alcotest.test_case "mapping counting exact" `Quick
      test_mapping_counting_exact;
    Alcotest.test_case "mapping enumeration" `Quick test_mapping_enumeration;
    Alcotest.test_case "discrete partition" `Quick test_partition_discrete;
    Alcotest.test_case "partition of blocks" `Quick test_partition_of_blocks;
    Alcotest.test_case "partition enumeration" `Quick test_partition_enumeration;
    Alcotest.test_case "partition orders" `Quick test_partition_orders;
    Alcotest.test_case "partition enumeration |C|=10" `Slow
      test_partition_enumeration_large;
    Alcotest.test_case "quotients are models" `Quick
      test_partition_quotient_is_model;
    Support.qcheck_case partition_counts_match_mappings;
    Alcotest.test_case "virtual NE (socrates)" `Quick test_ne_virtual_socrates;
    Alcotest.test_case "virtual NE (fully specified)" `Quick
      test_ne_virtual_fully_specified;
    Support.qcheck_case ne_virtual_agrees;
    Support.qcheck_case ne_virtual_compact;
    Alcotest.test_case "query checks" `Quick test_query_check;
    Support.qcheck_case bit_matrix_matches_model;
  ]
