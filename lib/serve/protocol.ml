module Certain = Vardi_certain.Engine
module Resilient = Vardi_resilience.Resilient

type code =
  | Ok
  | Parse_error
  | Semantic_error
  | Exhausted
  | Cancelled
  | Busy

let code_to_string = function
  | Ok -> "ok"
  | Parse_error -> "parse_error"
  | Semantic_error -> "semantic_error"
  | Exhausted -> "exhausted"
  | Cancelled -> "cancelled"
  | Busy -> "busy"

let code_of_string = function
  | "ok" -> Some Ok
  | "parse_error" -> Some Parse_error
  | "semantic_error" -> Some Semantic_error
  | "exhausted" -> Some Exhausted
  | "cancelled" -> Some Cancelled
  | "busy" -> Some Busy
  | _ -> None

type eval_options = {
  kernel : Certain.kernel;
  domains : int;
  policy : Resilient.policy;
  timeout : float option;
  max_structures : int option;
  max_evaluations : int option;
}

let default_options =
  {
    kernel = Certain.Compiled;
    domains = 1;
    policy = Resilient.Fail;
    timeout = None;
    max_structures = None;
    max_evaluations = None;
  }

type request =
  | Load of { name : string; path : string }
  | Query of { db : string; query : string; opts : eval_options }
  | Boolean of { db : string; query : string; opts : eval_options }
  | Insert of { db : string; fact : string }
  | Retract of { db : string; fact : string }
  | Close_unknown of { db : string; left : string; right : string; equal : bool }
  | Stats
  | Close
  | Shutdown
  | Sleep of float

(* Decoding: shape problems (missing/ill-typed required fields,
   unknown op) are parse errors; recognized fields with meaningless
   values (unknown kernel name, non-positive cap) are semantic
   errors — same split as the CLI's 2-vs-2 is collapsed to, where
   cmdliner rejects both at parse time, but the wire needs to tell a
   client which layer to fix. *)

let ( let* ) = Result.bind
let result_ok v = Result.Ok v

let require_str j key ~code =
  match Json.str_field key j with
  | Some s -> result_ok s
  | None -> Error (Printf.sprintf "missing or non-string %S field" key, code)

let positive_int_field j key =
  match Json.member key j with
  | None -> result_ok None
  | Some (Json.Num f) when Float.is_integer f && f > 0. ->
    result_ok (Some (int_of_float f))
  | Some _ ->
    Error (Printf.sprintf "%S must be a positive integer" key, Semantic_error)

let options_of_json j =
  (* Accepted and ignored: there is one kernel. The three historical
     names still parse so old clients keep working; anything else is
     still a semantic error. *)
  let* kernel =
    match Json.member "kernel" j with
    | None -> result_ok default_options.kernel
    | Some (Json.Str "interned") -> result_ok Certain.Interned
    | Some (Json.Str "strings") -> result_ok Certain.Strings
    | Some (Json.Str "compiled") -> result_ok Certain.Compiled
    | Some _ ->
      Error
        ( "\"kernel\" must be \"interned\", \"strings\" or \"compiled\"",
          Semantic_error )
  in
  let* policy =
    match Json.member "policy" j with
    | None -> result_ok default_options.policy
    | Some (Json.Str "fail") -> result_ok Resilient.Fail
    | Some (Json.Str "partial") -> result_ok Resilient.Partial
    | Some (Json.Str "approx") -> result_ok Resilient.Approx
    | Some _ ->
      Error
        ( "\"policy\" must be \"fail\", \"partial\" or \"approx\"",
          Semantic_error )
  in
  let* timeout =
    match Json.member "timeout_ms" j with
    | None -> result_ok None
    | Some (Json.Num ms) when ms > 0. -> result_ok (Some (ms /. 1000.))
    | Some _ ->
      Error ("\"timeout_ms\" must be a positive number", Semantic_error)
  in
  let* max_structures = positive_int_field j "max_structures" in
  let* max_evaluations = positive_int_field j "max_evaluations" in
  result_ok
    {
      kernel;
      domains = default_options.domains;
      policy;
      timeout;
      max_structures;
      max_evaluations;
    }

let request_of_json j =
  match j with
  | Json.Obj _ -> (
    let* op = require_str j "op" ~code:Parse_error in
    match op with
    | "load" ->
      let* name = require_str j "db" ~code:Parse_error in
      let* path = require_str j "path" ~code:Parse_error in
      result_ok (Load { name; path })
    | "query" | "boolean" ->
      let* db = require_str j "db" ~code:Parse_error in
      let* query = require_str j "query" ~code:Parse_error in
      let* opts = options_of_json j in
      result_ok
        (if op = "query" then Query { db; query; opts }
         else Boolean { db; query; opts })
    | "insert" | "retract" ->
      let* db = require_str j "db" ~code:Parse_error in
      let* fact = require_str j "fact" ~code:Parse_error in
      result_ok
        (if op = "insert" then Insert { db; fact } else Retract { db; fact })
    | "close_unknown" ->
      let* db = require_str j "db" ~code:Parse_error in
      let* left = require_str j "left" ~code:Parse_error in
      let* right = require_str j "right" ~code:Parse_error in
      let* equal =
        match Json.member "to" j with
        | Some (Json.Str "distinct") -> result_ok false
        | Some (Json.Str "equal") -> result_ok true
        | Some (Json.Str _) ->
          (* Right shape, meaningless value: the semantic layer. *)
          Error ("\"to\" must be \"distinct\" or \"equal\"", Semantic_error)
        | Some _ | None ->
          Error ("missing or non-string \"to\" field", Parse_error)
      in
      result_ok (Close_unknown { db; left; right; equal })
    | "stats" -> result_ok Stats
    | "close" -> result_ok Close
    | "shutdown" -> result_ok Shutdown
    | "sleep" -> (
      match Json.num_field "ms" j with
      | Some ms when ms >= 0. -> result_ok (Sleep (ms /. 1000.))
      | _ -> Error ("\"sleep\" needs a non-negative \"ms\"", Parse_error))
    | op -> Error (Printf.sprintf "unknown op %S" op, Parse_error))
  | _ -> Error ("request must be a JSON object", Parse_error)

let error code msg =
  Json.Obj [ ("code", Json.Str (code_to_string code)); ("error", Json.Str msg) ]

let ok fields = Json.Obj (("code", Json.Str "ok") :: fields)
