(** Minimal blocking client for the serve protocol — what the tests
    and the [ldbbench] serve workloads speak. One request line out,
    one response line back, in order.

    {2 Retries}

    Two retry surfaces, each retrying only outcomes that provably did
    not execute the request. {!connect_retry} rides out a server that
    is still starting up (a refused or absent socket) with a fixed
    delay. {!request_retry} resends on a received [busy] response,
    with capped exponential backoff and full jitter (cap 2 s): attempt
    [n] sleeps uniformly in [[cap_n/2, cap_n]] with
    [cap_n = min (backoff_ms * 2^n) 2000] ms. A connection dropped
    {e after} a request was written ([End_of_file]) is never retried
    here — the server may have committed a mutation before dying, and
    resending would double-apply it; that ambiguity is the caller's to
    resolve (see PROTOCOL.md, "Retries and idempotency"). *)

type t

(** [connect path] connects to the Unix-domain socket at [path], in a
    single attempt.
    @raise Unix.Unix_error when it fails. *)
val connect : string -> t

(** [connect_retry ?attempts ?delay path] retries {!connect} while the
    server is still starting up ([ENOENT]/[ECONNREFUSED]), sleeping a
    fixed [delay] seconds (default [0.05]) between the [attempts]
    (default [100]) tries.
    @raise Unix.Unix_error when the last attempt still fails. *)
val connect_retry : ?attempts:int -> ?delay:float -> string -> t

(** [request c j] sends one request and blocks for its response line.
    @raise End_of_file if the server closed the connection first.
    @raise Json.Parse_error on a malformed response (server bug). *)
val request : t -> Json.t -> Json.t

(** [request_retry ?retries ?backoff_ms c j] is {!request}, resending
    (up to [retries] times, default [0]) when the response is the
    [busy] backpressure code. Safe for mutations: [busy] means the
    request was never admitted. *)
val request_retry : ?retries:int -> ?backoff_ms:int -> t -> Json.t -> Json.t

(** [request_line c line] sends a raw line — deliberately malformed
    requests for protocol tests. *)
val request_line : t -> string -> Json.t

val close : t -> unit
