module Lexer = Vardi_logic.Lexer
module Parser = Vardi_logic.Parser
module Ty_parser = Vardi_typed.Ty_parser
module Ty_formula = Vardi_typed.Ty_formula
module Ldb_format = Vardi_format.Ldb_format
module Tldb_format = Vardi_format.Tldb_format
module Obs = Vardi_obs.Obs
module Cw_database = Vardi_cwdb.Cw_database

type crash = {
  target : string;
  input : string;
  exn : string;
}

let pp_crash ppf c =
  Fmt.pf ppf "[%s] raised %s on input %S" c.target c.exn c.input

(* Exceptions the parsers document. [Invalid_argument] is accepted only
   when it carries a parser-layer message: the runtime's own messages
   ("index out of bounds", "String.sub", ...) would mean an unguarded
   primitive, which is exactly the bug class this hunts. *)
let runtime_invalid_arg_markers =
  [ "index out of bounds"; "String."; "Bytes."; "Array."; "List."; "Char." ]

let allowed = function
  | Parser.Parse_error _ | Lexer.Lex_error _ | Ty_parser.Parse_error _
  | Ldb_format.Syntax_error _ | Tldb_format.Syntax_error _
  | Ty_formula.Type_error _ ->
    true
  | Invalid_argument message ->
    not
      (List.exists
         (fun marker ->
           String.length message >= String.length marker
           && String.equal (String.sub message 0 (String.length marker)) marker)
         runtime_invalid_arg_markers)
  | _ -> false

(* --- parse parity: the one-pass parser against the reference --- *)

type ldb_outcome =
  | Parsed of Cw_database.t
  | Refused of int * string  (* Syntax_error *)
  | Invalid  (* Invalid_argument, whatever the message *)
  | Raised of string

let ldb_outcome parse text =
  match parse text with
  | db -> Parsed db
  | exception Ldb_format.Syntax_error (line, msg) -> Refused (line, msg)
  | exception Invalid_argument _ -> Invalid
  | exception Sys.Break -> raise Sys.Break
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Parsed _ -> "a database"
  | Refused (line, msg) -> Printf.sprintf "Syntax_error (%d, %S)" line msg
  | Invalid -> "Invalid_argument"
  | Raised e -> e

let ldb_parse_parity text =
  let fast = ldb_outcome Ldb_format.parse text in
  let reference = ldb_outcome Reference.ldb_parse text in
  match (fast, reference) with
  | Parsed a, Parsed b when Cw_database.equal a b -> Ok (Some a)
  | Refused (l, m), Refused (l', m') when l = l' && String.equal m m' -> Ok None
  | Invalid, Invalid -> Ok None
  | Raised e, Raised e' when String.equal e e' -> Ok None
  | _ ->
    Error
      (Printf.sprintf "Ldb_format.parse gave %s, the reference parser %s"
         (show_outcome fast) (show_outcome reference))

exception Parse_parity of string

let () =
  Printexc.register_printer (function
    | Parse_parity detail -> Some ("parse parity: " ^ detail)
    | _ -> None)

type target = {
  name : string;
  run : string -> unit;
}

let targets =
  [
    { name = "parser.formula"; run = (fun s -> ignore (Parser.formula s)) };
    { name = "parser.query"; run = (fun s -> ignore (Parser.query s)) };
    { name = "ty_parser.query"; run = (fun s -> ignore (Ty_parser.query s)) };
    { name = "ldb_format.parse"; run = (fun s -> ignore (Ldb_format.parse s)) };
    {
      name = "ldb_format.parse-parity";
      run =
        (fun s ->
          match ldb_parse_parity s with
          | Ok _ -> ()
          | Error detail -> raise (Parse_parity detail));
    };
    {
      name = "tldb_format.parse";
      run = (fun s -> ignore (Tldb_format.parse s));
    };
  ]

(* Alphabet biased toward the concrete syntax so the fuzz reaches past
   the lexer: raw bytes alone almost never form a token stream. *)
let syntax_fragments =
  [|
    "("; ")"; ","; "."; "/"; ":"; "="; "!="; "/\\"; "\\/"; "~"; "->"; "<->";
    "exists"; "forall"; "exists2"; "forall2"; "true"; "false"; "not";
    "P"; "Q"; "x"; "y"; "a"; "b"; "0"; "42"; "9999999999999999999999";
    " "; "\n"; "\t"; "#"; "predicate"; "constant"; "fact"; "distinct";
    "fully_specified"; "type"; "\xff"; "\x00"; "e";
  |]

let random_input state =
  let pieces = 1 + Random.State.int state 40 in
  let buffer = Buffer.create 64 in
  for _ = 1 to pieces do
    if Random.State.int state 4 = 0 then
      Buffer.add_char buffer (Char.chr (Random.State.int state 256))
    else
      Buffer.add_string buffer
        syntax_fragments.(Random.State.int state (Array.length syntax_fragments))
  done;
  Buffer.contents buffer

(* Mutations of well-formed seeds: truncate, splice noise into the
   middle, or flip one byte. Valid-prefix inputs exercise deeper error
   paths than pure noise. *)
let seeds =
  [
    "(x). P(x) /\\ ~Q(x, a)";
    "(). exists x. forall y. P(x) -> x = y";
    "(x, y). P(x) \\/ (Q(y, b) <-> ~x = y)";
    "predicate P/2\nconstant a b\nfact P(a, b)\ndistinct a b\n";
    "type s\nconstant a : s\npredicate P(s)\nfact P(a)\n";
    "(x : s). exists y : s. P(x, y)";
  ]

let mutate state seed =
  let n = String.length seed in
  match Random.State.int state 3 with
  | 0 -> String.sub seed 0 (Random.State.int state (n + 1))
  | 1 ->
    let at = Random.State.int state (n + 1) in
    String.sub seed 0 at ^ random_input state
    ^ String.sub seed at (n - at)
  | _ ->
    if n = 0 then seed
    else
      let at = Random.State.int state n in
      String.mapi
        (fun i c ->
          if i = at then Char.chr (Random.State.int state 256) else c)
        seed

let input_of state =
  if Random.State.int state 3 = 0 then
    mutate state (List.nth seeds (Random.State.int state (List.length seeds)))
  else random_input state

let state_of ~seed index = Random.State.make [| 0x0153; seed; index |]

let check_input input =
  List.filter_map
    (fun target ->
      match target.run input with
      | () -> None
      | exception e ->
        if allowed e then None
        else Some { target = target.name; input; exn = Printexc.to_string e })
    targets

let run ~seed ~count =
  Obs.span "fuzz.noise" (fun () ->
      let crashes = ref [] in
      for index = 0 to count - 1 do
        let state = state_of ~seed index in
        let input = input_of state in
        Obs.count "fuzz.noise_inputs" 1;
        List.iter
          (fun crash ->
            Obs.count "fuzz.violations" 1;
            crashes := crash :: !crashes)
          (check_input input)
      done;
      List.rev !crashes)
