(** Structured tracing and metrics for the query engines.

    A zero-dependency observability substrate: monotonic-clock {e spans}
    with parent/child nesting, named {e counters} with per-domain
    accounting, and pluggable {e sinks} that receive the resulting event
    stream. The exact engine ([Vardi_certain.Engine]), the approximation
    pipeline ([Vardi_approx]), the hardness reductions
    ([Vardi_reductions]) and the experiment registry
    ([Vardi_experiments.Registry]) are instrumented with it; [ldb query
    --trace] renders the output, and the [ldbbench] harness reads its
    spans for the per-layer metrics.

    {2 Cost model}

    By default no sink is installed and every instrumentation point
    costs a single atomic load — the {e null-sink} fast path, cheap
    enough to leave in the engines' hot loops unconditionally (an
    E1-medium measurement, recorded in EXPERIMENTS.md). Installing a
    sink turns the same calls into event emissions; sinks serialize
    internally, so emission is safe from any number of worker domains.

    {2 Concurrency}

    Span nesting is tracked per domain (via [Domain.DLS]): a span opened
    inside a worker domain is a child of the most recent span opened
    {e by that domain}, never of another domain's spans. Every event
    records the integer id of the domain that produced it, which is what
    makes per-worker cost attribution possible.

    {2 Typical use}

    {[
      let buf = Obs.buffer () in
      Obs.with_sink (Obs.buffer_sink buf) (fun () ->
          ignore (Certain.answer db q));
      Obs.pp_spans Fmt.stdout (Obs.events buf);
      Obs.pp_counters Fmt.stdout (Obs.events buf)
    ]} *)

(** {1 Clock} *)

(** [now_ns ()] is the current time in nanoseconds, clamped to be
    non-decreasing across the whole process (the standard library has no
    raw monotonic clock, so a backward wall-clock step yields a
    zero-length interval rather than a negative one). *)
val now_ns : unit -> int64

(** {1 Events} *)

(** The event stream delivered to sinks. Span ids are unique across the
    process lifetime; [domain] is the integer id of the emitting domain
    ([(Domain.self () :> int)]). *)
type event =
  | Span_open of {
      id : int;
      parent : int option;  (** enclosing span on the same domain *)
      name : string;
      domain : int;
      at_ns : int64;
    }
  | Span_close of {
      id : int;
      name : string;
      domain : int;
      at_ns : int64;
      elapsed_ns : int64;  (** close minus open, never negative *)
    }
  | Count of {
      name : string;
      span : int option;  (** innermost open span on the emitting domain *)
      domain : int;
      value : int;
    }

(** A sink consumes events. [emit] must be thread-safe — the engines
    call it concurrently from worker domains; [flush] is called by
    {!uninstall} and should make buffered output durable (write the
    console report, flush the channel, ...).

    Sinks are {e hardened}: an exception escaping [emit] never reaches
    the instrumented engine. The first escape disables the offending
    sink (subsequent instrumentation points take the null path) and is
    counted in {!sink_errors}; an exception from [flush] is likewise
    swallowed and counted. A sink composed with {!tee} is disabled as a
    whole — the tee cannot know which branch is healthy. *)
type sink = { emit : event -> unit; flush : unit -> unit }

(** The sink that discards everything. Installing it is equivalent to —
    but slightly more expensive than — installing no sink at all; prefer
    {!uninstall}. *)
val null_sink : sink

(** [tee sinks] forwards every event (and flush) to each sink in
    [sinks], in order. *)
val tee : sink list -> sink

(** {1 Installation}

    One ambient sink serves the whole process; the engines write to
    whatever is installed at call time. *)

(** [enabled ()] is [true] when a sink is installed. Instrumented code
    may use it to skip building expensive event payloads; {!span} and
    {!count} already check it internally. *)
val enabled : unit -> bool

(** [install s] makes [s] the ambient sink, replacing (without
    flushing) any previous one. *)
val install : sink -> unit

(** [uninstall ()] removes the ambient sink, if any, and flushes it. *)
val uninstall : unit -> unit

(** [flush ()] flushes the ambient sink, if any, without removing it.
    Long-lived processes (the serve daemon) call this at request or
    connection boundaries so a crash never strands buffered trace
    lines. A sink whose [flush] raises is disabled, as with [emit]. *)
val flush : unit -> unit

(** [sink_errors ()] is the process-lifetime count of exceptions caught
    escaping a sink's [emit] or [flush] (the [obs.sink_errors] counter;
    each error also disabled the sink that raised). Regression suites
    read the delta around a run; a healthy run leaves it unchanged. *)
val sink_errors : unit -> int

(** [with_sink s f] runs [f] with [s] installed, then uninstalls and
    flushes it — also on exception. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** {1 Instrumentation points} *)

(** [span name f] runs [f] inside a named span: a [Span_open] event,
    [f ()], then a matching [Span_close] carrying the elapsed time. The
    span nests under the innermost span already open on the calling
    domain. When no sink is installed this is exactly [f ()] after one
    atomic load. Exceptions from [f] still close the span and
    propagate. *)
val span : string -> (unit -> 'a) -> 'a

(** [count name value] emits a [Count] event attributing [value] to
    counter [name] on the calling domain, tagged with the innermost open
    span. No-op (one atomic load) when no sink is installed. Counters
    are cumulative: aggregation sums all events of the same name. *)
val count : string -> int -> unit

(** {1 In-memory ring buffer} *)

(** A bounded, mutex-protected event store. When full, the oldest
    events are overwritten and counted as dropped. *)
type buffer

(** [buffer ?capacity ()] creates an empty ring buffer. Default
    capacity: 65536 events.
    @raise Invalid_argument when [capacity < 1]. *)
val buffer : ?capacity:int -> unit -> buffer

(** [buffer_sink b] is a sink that appends every event to [b]. *)
val buffer_sink : buffer -> sink

(** [events b] is a snapshot of the stored events, oldest first. *)
val events : buffer -> event list

(** [dropped b] is the number of events lost to ring overflow. *)
val dropped : buffer -> int

(** [reset b] empties the buffer and zeroes the drop count. *)
val reset : buffer -> unit

(** {1 Aggregation} *)

(** [counter_totals evs] sums the [Count] events of [evs] per counter
    name, sorted by name. *)
val counter_totals : event list -> (string * int) list

(** [counters_by_domain evs] refines {!counter_totals} by emitting
    domain: for each counter name (sorted), the per-domain subtotals as
    [(domain, total)] pairs sorted by domain id. The regression suite
    checks that the engine's [stats] totals equal the sum of these
    subtotals. *)
val counters_by_domain : event list -> (string * (int * int) list) list

(** A reconstructed span with its children (in open order), the
    counters attributed to it (summed per name), and its duration.
    Spans still open when the snapshot was taken are closed at the
    latest timestamp seen. *)
type tree = {
  tree_name : string;
  tree_domain : int;
  tree_elapsed_ns : int64;
  tree_counts : (string * int) list;
  tree_children : tree list;
}

(** [spans evs] rebuilds the span forest from an event list (roots in
    open order). Orphaned events — e.g. a close whose open fell off the
    ring buffer — are dropped. *)
val spans : event list -> tree list

(** {1 Rendering sinks and printers} *)

(** [pp_spans ppf evs] prints the span forest as an indented tree with
    durations and per-span counters. Runs of childless sibling spans
    with the same name (repeated calls under one parent) collapse into
    one [name xN] line with summed time and counters. *)
val pp_spans : Format.formatter -> event list -> unit

(** [pp_counters ppf evs] prints each counter's total and, when more
    than one domain contributed, the per-domain breakdown. *)
val pp_counters : Format.formatter -> event list -> unit

(** [console_sink ?counters ppf] buffers events and, on flush, prints
    the {!pp_spans} tree — followed by the {!pp_counters} table unless
    [counters] is [false] (default [true]) — to [ppf]. *)
val console_sink : ?counters:bool -> Format.formatter -> sink

(** [event_to_json ev] is [ev] as a single-line JSON object with fields
    [type] ([span_open] | [span_close] | [count]) plus the event's
    payload fields; absent options encode as [null]. *)
val event_to_json : event -> string

(** [jsonl_sink oc] writes each event immediately to [oc] as one JSON
    line (see {!event_to_json}); [flush] flushes the channel. The caller
    keeps ownership of [oc] and closes it after {!uninstall}. *)
val jsonl_sink : out_channel -> sink
