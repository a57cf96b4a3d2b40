(** A plain-text format for CW logical databases ([.ldb] files).

    Line-oriented; [#] starts a comment; blank lines ignored.

    {v
    # a database with one unknown identity
    predicate TEACHES/2
    constant socrates plato
    fact TEACHES(socrates, plato)
    distinct socrates plato
    fully_specified
    v}

    - [predicate NAME/ARITY] declares a predicate;
    - [constant NAME...] declares constants (constants appearing in
      facts or [distinct] lines are declared implicitly);
    - [fact P(c1, ..., ck)] adds an atomic fact axiom;
    - [distinct c d] adds the uniqueness axiom [¬(c = d)];
    - [fully_specified] (anywhere) closes the database with all
      uniqueness axioms after reading every line. *)

exception Syntax_error of int * string
(** [(line_number, message)], 1-based. *)

(** [parse text] reads a database from a string.

    One pass over the text by index: no line or word lists are built.
    Each constant is interned by its bytes in the text, its name checked
    and copied out the first time it appears, and the database is built
    by {!Vardi_cwdb.Cw_database.make_interned} from each constant once
    and the uniqueness axioms as pairs of ids. Nothing is cached across
    calls.

    Lines end at ['\n'] (a final line needs none); a line is trimmed of
    [' '], ['\t'], ['\r'] and ['\012'] at both ends and split into
    words at spaces and tabs, so CRLF files read as LF files.

    @raise Syntax_error at the first malformed line (parse-parity
    fuzzing holds its line and message to those of the line-at-a-time
    reference parser, [Vardi_fuzz.Reference.ldb_parse]), and
    [Invalid_argument] on semantic violations once every line has
    parsed: an undeclared predicate, an arity clash, a fact argument
    that is not a constant, [distinct c c], no constant at all (see
    {!Vardi_cwdb.Cw_database.make}). *)
val parse : string -> Vardi_cwdb.Cw_database.t

(** [load path] reads a database from a file.
    @raise Sys_error when unreadable; otherwise as {!parse}. *)
val load : string -> Vardi_cwdb.Cw_database.t

(** [print db] renders a database; [parse (print db)] is equal to
    [db]. The bytes are stable: predicates, then the constants on one
    line, then facts and uniqueness axioms in sorted order, one a line. *)
val print : Vardi_cwdb.Cw_database.t -> string

(** [save path db]. *)
val save : string -> Vardi_cwdb.Cw_database.t -> unit
