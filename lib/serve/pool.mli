(** The serve layer's shared domain pool: a fixed set of OCaml 5
    worker domains draining one bounded request queue.

    This is the admission-control half of the server. Connection
    threads {!submit} jobs; a full queue answers [`Busy] immediately
    (the protocol's backpressure code) instead of letting latency grow
    without bound, and a stopping pool answers [`Stopping]. Workers
    are spawned and joined through {!Domain_guard}'s SIGINT
    discipline, so Ctrl-C during a served query never orphans a
    domain.

    A job is a closure [cancelled:bool -> unit]: it runs with
    [~cancelled:false] on a worker, or with [~cancelled:true] (on the
    stopping thread) if the pool shuts down before the job was
    claimed — the server uses that to answer queued requests with the
    [cancelled] protocol code rather than dropping them silently. Jobs
    must not raise; an escaped exception is caught, counted
    ([serve.pool.job_error]) and dropped. *)

type t

(** [create ~workers ~queue_capacity ()] spawns [workers] (>= 1)
    domains over a queue holding at most [queue_capacity] (>= 1)
    waiting jobs (jobs being executed don't count against it). *)
val create : workers:int -> queue_capacity:int -> unit -> t

val submit :
  t -> (cancelled:bool -> unit) -> [ `Accepted | `Busy | `Stopping ]

(** [stop pool] rejects further submissions, runs every still-queued
    job with [~cancelled:true], lets in-flight jobs finish, and joins
    all worker domains before returning. Idempotent.

    [~drain:true] is the graceful variant (the server's SIGTERM path):
    new submissions are refused ([`Stopping]) immediately, but jobs
    already queued are left for the workers and [stop] waits until the
    queue is empty before shutting down — every accepted job gets its
    real response instead of a [cancelled] one. *)
val stop : ?drain:bool -> t -> unit

val workers : t -> int
val queue_capacity : t -> int
