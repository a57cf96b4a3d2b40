(** Byte-level noise fuzzing of the parsers.

    Feeds random and mutated inputs to every parser entry point
    ({!Vardi_logic.Parser.formula}/[query], {!Vardi_typed.Ty_parser},
    {!Vardi_format.Ldb_format.parse}, {!Vardi_format.Tldb_format.parse})
    and reports any exception outside the documented contract —
    [Parse_error], [Lex_error], [Syntax_error], [Type_error], and
    parser-layer [Invalid_argument] are expected; [Stack_overflow],
    [Assert_failure], [Failure] or a runtime [Invalid_argument]
    ("index out of bounds" and friends) are crashes. The
    [ldb_format.parse-parity] target also reports every input on which
    {!Vardi_format.Ldb_format.parse} and {!Reference.ldb_parse}
    disagree (see {!ldb_parse_parity}).

    Inputs mix a syntax-biased fragment alphabet (so the fuzz reaches
    past the lexer), raw bytes, and mutations of well-formed seeds
    (truncation, splicing, byte flips). Input [i] of seed [s] depends
    only on [(s, i)], like {!Gen}. *)

type crash = {
  target : string;  (** entry point, e.g. ["parser.query"] *)
  input : string;  (** the offending input, verbatim *)
  exn : string;  (** the undocumented exception raised *)
}

val pp_crash : crash Fmt.t

(** [ldb_parse_parity text] runs {!Vardi_format.Ldb_format.parse} and
    the reference parser {!Reference.ldb_parse} on [text]. They agree
    when both read {!Vardi_cwdb.Cw_database.equal} databases
    ([Ok (Some db)]), or both raise [Syntax_error] with the same line
    and message, or both raise [Invalid_argument] ([Ok None]). [Error]
    describes a disagreement. *)
val ldb_parse_parity :
  string -> (Vardi_cwdb.Cw_database.t option, string) result

(** [check_input s] runs every parser target on [s] and returns the
    contract violations (normal termination and documented exceptions
    yield none). *)
val check_input : string -> crash list

(** [run ~seed ~count] fuzzes [count] inputs through every target.
    Emits a [fuzz.noise] span and [fuzz.noise_inputs] /
    [fuzz.violations] counters. *)
val run : seed:int -> count:int -> crash list
