(** Cooperative cancellation for the structure scan.

    Exact certain-answer evaluation is co-NP-complete (Theorem 5), so
    any caller serving real traffic needs a way to bound a scan that
    will not finish. A {!t} is a budget token threaded into every
    {!Engine} entry point via [?cancel]: it carries an absolute
    wall-clock deadline and caps on the number of structures and query
    evaluations, and it records the first limit that tripped.

    The engine honors the token {e cooperatively} and
    {e deterministically}:

    - The structure and evaluation caps truncate the structure stream
      {e by position} — the scan examines exactly the first [cap]
      structures of the enumeration order and no others. The same
      database, query, budget, algorithm and order therefore yield the
      same verdict and the same [structures] stat on every run: a
      decision (countermodel, witness, emptied survivor set) present
      in the admitted prefix is always found, and a budget trip means
      the whole prefix was examined.
    - The deadline is checked before each structure, so the scan stops
      within one structure evaluation of the deadline passing.
      Deadline trips are inherently wall-clock dependent and make no
      determinism promise.

    A trip never raises and never discards the machinery's invariants;
    the entry point returns normally with
    {!Engine.stats.interrupted}[ = Some reason], and the caller decides
    what the partial result is worth (see [Vardi_resilience.Resilient]
    for the policy layer). *)

(** The first budget dimension that tripped. *)
type reason =
  | Deadline  (** the wall-clock deadline passed mid-scan *)
  | Structures  (** the structure-count cap was reached *)
  | Evaluations  (** the evaluation-count cap was reached *)

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit

(** A cancellation token. Tokens are single-use: once tripped they stay
    tripped, and the recorded reason is the first one that fired. *)
type t

(** [create ()] builds a token.

    @param deadline_ns absolute deadline on the {!Vardi_obs.Obs.now_ns}
    clock (not a duration).
    @param max_structures cap on structures examined by the call,
    including the discrete-structure seed of the whole-answer entry
    points; must be positive.
    @param max_evaluations cap on query evaluations, likewise
    including the seed; must be positive.
    @param probe called once per cooperative check, before each
    structure — the fault-injection hook
    ([Vardi_resilience.Faults.probe]); an exception it raises aborts
    the scan and propagates out of the entry point.
    @raise Invalid_argument on a non-positive cap. *)
val create :
  ?deadline_ns:int64 ->
  ?max_structures:int ->
  ?max_evaluations:int ->
  ?probe:(unit -> unit) ->
  unit ->
  t

(** A token that never trips on its own (no deadline, no caps, no
    probe); it can still be tripped manually with {!trip}. *)
val unlimited : unit -> t

(** [tripped t] is the first reason recorded, if any. *)
val tripped : t -> reason option

(** [trip t reason] records [reason] unless the token already tripped.
    Idempotent. A token belongs to one scan: it is not meant to be
    shared between domains. *)
val trip : t -> reason -> unit

(** [check t] runs the probe (if any), then trips and returns [true]
    when the deadline has passed. The engine calls this before every
    structure; cap trips are {e not} reported here (they act by stream
    truncation and must not halt the in-flight prefix, or the
    determinism guarantee above would break). *)
val check : t -> bool

(** [scan_cap t ~structures ~evaluations] is the number of further
    structures the scan may admit, given that it already spent
    [structures] and [evaluations] (the seed), together with the budget
    dimension that binds — [None] when neither cap is set. The engine
    truncates the structure stream to this length and calls
    {!trip} when the enumeration would have continued past it. *)
val scan_cap : t -> structures:int -> evaluations:int -> (int * reason) option
