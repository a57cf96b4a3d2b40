module Vocabulary = Vardi_logic.Vocabulary
module Cw_database = Vardi_cwdb.Cw_database

exception Syntax_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Syntax_error (line, s))) fmt

(* A line is trimmed of [String.trim]'s whitespace ('\n' never occurs
   inside one) and split into words at spaces and tabs only, so a '\r'
   or '\012' inside a line belongs to a word. A fact's argument list
   counts as empty when it holds only spaces, tabs and '\r's. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'
let is_separator c = c = ' ' || c = '\t'
let is_space c = c = ' ' || c = '\t' || c = '\r'

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* The parse works on slices [a, b) of the text: positions only, until a
   name is kept. *)

let rec skip_blanks text i b =
  if i < b && is_blank text.[i] then skip_blanks text (i + 1) b else i

let rec skip_blanks_back text a j =
  if j > a && is_blank text.[j - 1] then skip_blanks_back text a (j - 1) else j

let rec only_spaces text i b =
  i = b || (is_space text.[i] && only_spaces text (i + 1) b)

let rec find c text i b =
  if i < b && text.[i] <> c then find c text (i + 1) b else i

let rec next_word text i b =
  if i < b && is_separator text.[i] then next_word text (i + 1) b else i

let rec word_end text i b =
  if i < b && not (is_separator text.[i]) then word_end text (i + 1) b else i

let rec valid_name text i b =
  i = b || (is_name_char text.[i] && valid_name text (i + 1) b)

(* [s.[i..i+len)] and [t.[j..j+len)] hold the same bytes. *)
let rec same_bytes s i t j len =
  len = 0 || (s.[i] = t.[j] && same_bytes s (i + 1) t (j + 1) (len - 1))

let is_word text a b word =
  b - a = String.length word && same_bytes text a word 0 (b - a)

let check_name line what text a b =
  if a = b || not (valid_name text a b) then
    fail line "invalid %s name %S" what (String.sub text a (b - a))

(* Constants are interned by their slice of the text: a name is checked
   and copied out the first time it appears, and later mentions cost a
   hash and a compare in place. *)
type slice = {
  text : string;
  off : int;
  len : int;
}

module Slices = Hashtbl.Make (struct
  type t = slice

  let equal x y = x.len = y.len && same_bytes x.text x.off y.text y.off x.len

  let hash s =
    let h = ref 0 in
    for i = s.off to s.off + s.len - 1 do
      h := (!h * 31) + Char.code s.text.[i]
    done;
    !h land max_int
end)

type state = {
  text : string;
  ids : int Slices.t;
  mutable names : string array;  (* by id; the first [count] are used *)
  mutable count : int;
  mutable predicates : (string * int) list;
  mutable facts : Cw_database.fact list;
  mutable pairs : int array;  (* the [distinct] lines' ids, two per line *)
  mutable pair_ints : int;
  mutable fully_specified : bool;
}

(* [a], or a copy twice as long, so that index [i] is in range. *)
let room a i fill =
  if i < Array.length a then a
  else begin
    let bigger = Array.make (2 * Array.length a) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

let intern st line a b =
  let key = { text = st.text; off = a; len = b - a } in
  match Slices.find st.ids key with
  | id -> id
  | exception Not_found ->
    check_name line "constant" st.text a b;
    let id = st.count in
    st.names <- room st.names id "";
    st.names.(id) <- String.sub st.text a (b - a);
    st.count <- id + 1;
    Slices.add st.ids key id;
    id

(* [predicate NAME/ARITY...], the words after the keyword *)
let predicates st line i b =
  let text = st.text in
  let rec decl i =
    let s = next_word text i b in
    if s < b then begin
      let e = word_end text s b in
      let slash = find '/' text s e in
      if slash = e || find '/' text (slash + 1) e < e then
        fail line "predicate declarations look like NAME/ARITY";
      check_name line "predicate" text s slash;
      let arity = String.sub text (slash + 1) (e - slash - 1) in
      (match int_of_string_opt arity with
      | Some k when k >= 0 ->
        st.predicates <- (String.sub text s (slash - s), k) :: st.predicates
      | Some _ | None -> fail line "invalid arity %S" arity);
      decl e
    end
  in
  decl i

let constants st line i b =
  let rec word i =
    let s = next_word st.text i b in
    if s < b then begin
      let e = word_end st.text s b in
      ignore (intern st line s e);
      word e
    end
  in
  word i

let distinct st line i b =
  let text = st.text in
  let s1 = next_word text i b in
  let e1 = word_end text s1 b in
  let s2 = next_word text e1 b in
  let e2 = word_end text s2 b in
  if s2 = b || next_word text e2 b < b then
    fail line "distinct takes exactly two constants";
  let c = intern st line s1 e1 in
  let d = intern st line s2 e2 in
  if st.pair_ints + 1 >= Array.length st.pairs then
    st.pairs <- room st.pairs (st.pair_ints + 1) 0;
  st.pairs.(st.pair_ints) <- c;
  st.pairs.(st.pair_ints + 1) <- d;
  st.pair_ints <- st.pair_ints + 2

(* [fact P(c1, ..., ck)]: [i] is just past the keyword, [b] the end of
   the trimmed line. *)
let fact st line i b =
  let text = st.text in
  let r = skip_blanks text i b in
  let open_paren = find '(' text r b in
  if open_paren = b then fail line "fact needs the form P(c1, ..., ck)";
  let pred_end = skip_blanks_back text r open_paren in
  check_name line "predicate" text r pred_end;
  if text.[b - 1] <> ')' then fail line "fact misses the closing ')'";
  let lo = open_paren + 1 and hi = b - 1 in
  let rec args i =
    let comma = find ',' text i hi in
    let s = skip_blanks text i comma in
    let e = skip_blanks_back text s comma in
    let c = st.names.(intern st line s e) in
    if comma = hi then [ c ] else c :: args (comma + 1)
  in
  let args = if only_spaces text lo hi then [] else args lo in
  st.facts <-
    { Cw_database.pred = String.sub text r (pred_end - r); args } :: st.facts

let parse_line st line a b =
  let text = st.text in
  let a = skip_blanks text a b in
  let b = skip_blanks_back text a b in
  if a < b then begin
    let w = word_end text a b in
    if is_word text a w "distinct" then distinct st line w b
    else if is_word text a w "fact" then fact st line w b
    else if is_word text a w "constant" then constants st line w b
    else if is_word text a w "predicate" then predicates st line w b
    else if is_word text a w "fully_specified" && next_word text w b = b then
      st.fully_specified <- true
    else fail line "unknown directive %S" (String.sub text a (w - a))
  end

let parse text =
  let st =
    {
      text;
      ids = Slices.create 64;
      names = Array.make 64 "";
      count = 0;
      predicates = [];
      facts = [];
      pairs = Array.make 256 0;
      pair_ints = 0;
      fully_specified = false;
    }
  in
  let n = String.length text in
  let start = ref 0 and line = ref 1 in
  while !start <= n do
    (* the line's content stops at its first '#' *)
    let stop = ref !start in
    while !stop < n && text.[!stop] <> '\n' && text.[!stop] <> '#' do
      incr stop
    done;
    parse_line st !line !start !stop;
    start := find '\n' text !stop n + 1;
    incr line
  done;
  let db =
    Cw_database.make_interned
      ~names:(Array.sub st.names 0 st.count)
      ~predicates:(List.rev st.predicates) ~facts:st.facts
      ~distinct:(fun f ->
        for k = 0 to (st.pair_ints / 2) - 1 do
          f st.pairs.(2 * k) st.pairs.((2 * k) + 1)
        done)
  in
  if st.fully_specified then Cw_database.fully_specify db else db

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse text

(* [xs] separated by [sep]. *)
let add_joined buffer sep = function
  | [] -> ()
  | x :: rest ->
    Buffer.add_string buffer x;
    List.iter
      (fun x ->
        Buffer.add_string buffer sep;
        Buffer.add_string buffer x)
      rest

let print db =
  let buffer = Buffer.create 4096 in
  let add = Buffer.add_string buffer in
  List.iter
    (fun (p, k) ->
      add "predicate ";
      add p;
      Buffer.add_char buffer '/';
      add (Int.to_string k);
      Buffer.add_char buffer '\n')
    (Vocabulary.predicates (Cw_database.vocabulary db));
  (match Cw_database.constants db with
  | [] -> ()
  | constants ->
    add "constant ";
    add_joined buffer " " constants;
    Buffer.add_char buffer '\n');
  List.iter
    (fun { Cw_database.pred; args } ->
      add "fact ";
      add pred;
      Buffer.add_char buffer '(';
      add_joined buffer ", " args;
      add ")\n")
    (Cw_database.facts db);
  List.iter
    (fun (c, d) ->
      add "distinct ";
      add c;
      Buffer.add_char buffer ' ';
      add d;
      Buffer.add_char buffer '\n')
    (Cw_database.distinct_pairs db);
  Buffer.contents buffer

let save path db =
  let oc = open_out path in
  output_string oc (print db);
  close_out oc
