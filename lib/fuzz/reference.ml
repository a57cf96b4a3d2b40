module Query = Vardi_logic.Query
module Relation = Vardi_relational.Relation
module Database = Vardi_relational.Database
module Eval = Vardi_relational.Eval
module Cw_database = Vardi_cwdb.Cw_database
module Mapping = Vardi_cwdb.Mapping
module Partition = Vardi_cwdb.Partition
module Query_check = Vardi_cwdb.Query_check
module Vocabulary = Vardi_logic.Vocabulary
module Ldb_format = Vardi_format.Ldb_format

type structure = {
  image : Database.t;
  rename : string -> string;
}

type enumeration =
  | Mappings
  | Partitions

let structures ?(enumeration = Partitions) ?order lb =
  match enumeration with
  | Mappings ->
    Seq.map
      (fun h -> { image = Mapping.image_db h; rename = Mapping.apply h })
      (Mapping.all_respecting lb)
  | Partitions ->
    Seq.map
      (fun p -> { image = Partition.quotient p; rename = Partition.representative p })
      (Partition.all_valid ?order lb)

let certain_boolean ?enumeration lb q =
  Query_check.validate lb q;
  Seq.for_all (fun s -> Eval.satisfies s.image (Query.body q)) (structures ?enumeration lb)

let possible_boolean ?enumeration lb q =
  Query_check.validate lb q;
  Seq.exists (fun s -> Eval.satisfies s.image (Query.body q)) (structures ?enumeration lb)

let candidates lb q =
  Relation.full ~domain:(Cw_database.constants lb) (Query.arity q)

(* The tuples [c] of [tuples] with [h(c) ∈ Q(h(Ph₁))] for this
   structure's renaming [h]. *)
let admitted tuples q s =
  let image = Eval.answer s.image q in
  Relation.filter (fun t -> Relation.mem (List.map s.rename t) image) tuples

let answer_in structures lb q =
  Query_check.validate lb q;
  Seq.fold_left (fun acc s -> admitted acc q s) (candidates lb q) structures

let answer ?enumeration lb q = answer_in (structures ?enumeration lb) lb q

let possible_answer ?enumeration lb q =
  Query_check.validate lb q;
  let all = candidates lb q in
  Seq.fold_left
    (fun acc s -> Relation.union acc (admitted all q s))
    (Relation.empty (Query.arity q))
    (structures ?enumeration lb)

(* --- the reference .ldb parser ---

   Line at a time, with no code shared with [Ldb_format.parse]'s
   one-pass scan: split the text on '\n', strip the comment, trim,
   split into word lists, and hand every mention of a constant to
   [Cw_database.make]. It raises the same [Syntax_error]s, so the
   parse-parity checks compare the two outcome for outcome. *)

let fail line fmt =
  Format.kasprintf (fun s -> raise (Ldb_format.Syntax_error (line, s))) fmt

let is_space c = c = ' ' || c = '\t' || c = '\r'

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let trim = String.trim

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> not (String.equal w ""))

let valid_name name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '\'')
       name

let check_name lineno what name =
  if not (valid_name name) then fail lineno "invalid %s name %S" what name

(* [fact P(c1, c2)] — parse the part after the keyword. *)
let parse_fact lineno rest =
  let rest = trim rest in
  match String.index_opt rest '(' with
  | None -> fail lineno "fact needs the form P(c1, ..., ck)"
  | Some open_paren ->
    let pred = trim (String.sub rest 0 open_paren) in
    check_name lineno "predicate" pred;
    if
      String.length rest = 0
      || rest.[String.length rest - 1] <> ')'
    then fail lineno "fact misses the closing ')'";
    let inside =
      String.sub rest (open_paren + 1) (String.length rest - open_paren - 2)
    in
    let args =
      if String.for_all is_space inside then []
      else
        String.split_on_char ',' inside
        |> List.map trim
    in
    List.iter (check_name lineno "constant") args;
    { Cw_database.pred; args }

type accumulator = {
  mutable constants : string list;
  mutable predicates : (string * int) list;
  mutable facts : Cw_database.fact list;
  mutable distinct : (string * string) list;
  mutable fully_specified : bool;
}

let parse_line acc lineno line =
  let line = trim (strip_comment line) in
  if String.equal line "" then ()
  else
    match split_words line with
    | [ "fully_specified" ] -> acc.fully_specified <- true
    | "predicate" :: rest ->
      List.iter
        (fun decl ->
          match String.split_on_char '/' decl with
          | [ name; arity ] -> (
            check_name lineno "predicate" name;
            match int_of_string_opt arity with
            | Some k when k >= 0 ->
              acc.predicates <- (name, k) :: acc.predicates
            | Some _ | None -> fail lineno "invalid arity %S" arity)
          | _ -> fail lineno "predicate declarations look like NAME/ARITY")
        rest
    | "constant" :: names ->
      List.iter (check_name lineno "constant") names;
      acc.constants <- List.rev_append names acc.constants
    | "distinct" :: ([ _; _ ] as pair) -> (
      match pair with
      | [ c; d ] ->
        check_name lineno "constant" c;
        check_name lineno "constant" d;
        acc.constants <- d :: c :: acc.constants;
        acc.distinct <- (c, d) :: acc.distinct
      | _ -> assert false)
    | "distinct" :: _ -> fail lineno "distinct takes exactly two constants"
    | "fact" :: _ ->
      let rest = String.sub line 4 (String.length line - 4) in
      let fact = parse_fact lineno rest in
      acc.constants <- List.rev_append fact.args acc.constants;
      acc.facts <- fact :: acc.facts
    | word :: _ -> fail lineno "unknown directive %S" word
    | [] -> ()

let ldb_parse text =
  let acc =
    {
      constants = [];
      predicates = [];
      facts = [];
      distinct = [];
      fully_specified = false;
    }
  in
  List.iteri
    (fun i line -> parse_line acc (i + 1) line)
    (String.split_on_char '\n' text);
  let vocabulary =
    Vocabulary.make
      ~constants:(List.rev acc.constants)
      ~predicates:(List.rev acc.predicates)
  in
  let db =
    Cw_database.make ~vocabulary ~facts:(List.rev acc.facts)
      ~distinct:(List.rev acc.distinct)
  in
  if acc.fully_specified then Cw_database.fully_specify db else db
