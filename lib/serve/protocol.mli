(** The serve wire protocol: line-delimited JSON requests and
    responses over a Unix-domain socket.

    One request per line, one response line per request, in order.
    Requests are objects dispatched on ["op"]:

    {v
    {"op":"load","db":"g","path":"graph.ldb"}
    {"op":"query","db":"g","query":"(x). P(x)","timeout_ms":500}
    {"op":"boolean","db":"g","query":"(). exists x. P(x)"}
    {"op":"insert","db":"g","fact":"P(a)"}
    {"op":"retract","db":"g","fact":"P(a)"}
    {"op":"close_unknown","db":"g","left":"a","right":"b","to":"distinct"}
    {"op":"stats"}
    {"op":"close"}
    {"op":"shutdown"}
    v}

    [query]/[boolean] accept optional ["policy"] ("fail" default,
    "partial", "approx"), ["timeout_ms"], ["max_structures"],
    ["max_evaluations"], and the deprecated ["kernel"] ("interned",
    "compiled" or "strings" — accepted and ignored). A ["domains"]
    field is ignored like any other unknown field: the scan is
    sequential. Every response
    carries a ["code"] from the exit-code taxonomy mapped onto the
    wire.

    The complete specification — framing, every op's request and
    response fields, the code taxonomy, budget fields, [cache]/[delta]
    semantics and versioning — lives in [docs/PROTOCOL.md]; this
    interface is the implementation's type-level summary. *)

(** Protocol outcome codes — the CLI exit taxonomy on the wire. [Ok]
    covers both affirmative and refuted/empty results (the verdict
    travels in the payload; the 0/1 exit split is a process-level
    convention). [Exhausted] mirrors exit 124, [Cancelled] exit 130;
    [Busy] is the admission-control rejection, with no one-shot
    counterpart. *)
type code =
  | Ok
  | Parse_error  (** malformed JSON, unknown op, or query syntax error *)
  | Semantic_error
      (** well-formed but meaningless: unknown database, vocabulary or
          arity violation, budget on a non-budgetable engine *)
  | Exhausted  (** per-request budget tripped under policy [fail] *)
  | Cancelled  (** server shutting down before the request ran *)
  | Busy  (** request queue full — back off and retry *)

val code_to_string : code -> string
val code_of_string : string -> code option

(** Per-request evaluation options, defaulted as the one-shot CLI
    defaults them. *)
type eval_options = {
  kernel : Vardi_certain.Engine.kernel;
      (** deprecated: parsed from ["kernel"] and ignored *)
  domains : int;
      (** deprecated: always [1]; the wire field is no longer read *)
  policy : Vardi_resilience.Resilient.policy;
  timeout : float option;  (** seconds, from ["timeout_ms"] *)
  max_structures : int option;
  max_evaluations : int option;
}

val default_options : eval_options

type request =
  | Load of { name : string; path : string }
  | Query of { db : string; query : string; opts : eval_options }
  | Boolean of { db : string; query : string; opts : eval_options }
  | Insert of { db : string; fact : string }
      (** [fact] is a ground atom in query syntax, e.g. ["P(a, b)"] *)
  | Retract of { db : string; fact : string }
  | Close_unknown of {
      db : string;
      left : string;
      right : string;
      equal : bool;
          (** [false] closes the pair to {e distinct} (adds the
              uniqueness axiom); [true] closes it to {e equal} ([right]
              merges into [left]) *)
    }
  | Stats
  | Close
  | Shutdown
  | Sleep of float
      (** seconds; debug-only — the server rejects it unless started
          with [debug_sleep], tests use it to pin down backpressure *)

(** [request_of_json j] decodes a request, or an error message plus
    the code to answer with ([Parse_error] for shape problems,
    [Semantic_error] for bad option values). *)
val request_of_json : Json.t -> (request, string * code) result

(** [error code msg] is the uniform error response
    [{"code":..., "error":msg}]. *)
val error : code -> string -> Json.t

(** [ok fields] is [{"code":"ok", ...fields}]. *)
val ok : (string * Json.t) list -> Json.t
