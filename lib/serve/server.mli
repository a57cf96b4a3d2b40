(** The [ldb serve] daemon: a Unix-domain-socket server that keeps CW
    logical databases resident and answers line-delimited JSON
    requests ({!Protocol}) over a shared worker-domain pool
    ({!Pool}) with a shared plan cache ({!Plan_cache}).

    Layering per connection: the accept loop (caller's thread) hands
    each connection to a lightweight systhread that reads request
    lines, decodes them, and submits evaluation jobs to the domain
    pool; the connection thread blocks for its response while worker
    domains multiplex across all in-flight requests. A full queue is
    answered [busy] without blocking — admission control instead of
    unbounded latency.

    Per-request budgets ride the existing resilience machinery: the
    request's [timeout_ms]/[max_structures]/[max_evaluations] become a
    {!Vardi_resilience.Budget.t}, and a trip under policy [fail] is
    answered with the [exhausted] code (exit 124's wire form).

    {2 Durability}

    With [config.durability] set, every loaded database lives in a
    directory under [data_dir] with a write-ahead log and periodic
    snapshots ({!Vardi_durable.Store}): each acknowledged mutation is
    in the log {e before} its [ok] response is written (synced per the
    [sync] policy), and startup recovers every database directory —
    snapshot plus WAL tail — before the socket accepts its first
    client. Mutation acks and [stats] carry a [durable] field.
    Unrecoverable on-disk corruption ({!Vardi_durable.Recovery.Corrupt})
    fails startup instead of silently serving partial history.

    Teardown discipline: every connection flushes the ambient
    {!Vardi_obs.Obs} sink and closes its descriptor on every exit
    path; {!run} returns only after the pool's worker domains are all
    joined ({!Domain_guard}), also when it is leaving on
    [Sys.Break] — so a Ctrl-C exit never orphans a domain. Durable
    stores are checkpointed (fresh snapshot, reset log) on every
    shutdown path. SIGTERM is the graceful drain: the server stops
    accepting, answers every already-queued job for real
    ({!Pool.stop} with [~drain:true]), checkpoints, and {!run} returns
    normally so the process exits 0. *)

type durability = {
  data_dir : string;  (** one subdirectory per database name *)
  sync : Vardi_durable.Wal.sync;  (** fsync policy for the logs *)
  snapshot_every : int;  (** auto-checkpoint threshold; 0 disables *)
}

type config = {
  socket_path : string;
  workers : int;  (** domain-pool size, >= 1 *)
  queue_capacity : int;  (** waiting requests admitted before [busy] *)
  debug_sleep : bool;
      (** accept the [sleep] op (tests use it to hold workers busy) *)
  preload : (string * string) list;
      (** [(name, path)] databases loaded before accepting clients —
          except names startup recovery already restored: a restart
          with the same command line keeps recovered mutations rather
          than resetting to the seed file *)
  durability : durability option;  (** [None] = in-memory only *)
}

val default_config : config

(** [run config] binds [config.socket_path], serves until a [shutdown]
    request (or SIGTERM) arrives, then tears down and returns. On
    [Sys.Break] it tears down identically (every worker domain joined,
    socket file removed) and re-raises, so the process exits through
    the CLI's 130 path.

    A pre-existing socket file is only replaced after probing it: if a
    server answers the connect, [run] refuses ([Invalid_argument])
    rather than stealing its clients; only a dead socket (connect
    refused — the residue of a crashed daemon) is unlinked.
    @raise Unix.Unix_error when the socket cannot be bound.
    @raise Invalid_argument on a nonsensical [config] (see
    {!Pool.create}), a live or un-probeable existing socket, or a
    non-socket file at [socket_path].
    @raise Vardi_durable.Recovery.Corrupt when a database directory
    under [durability.data_dir] is unrecoverable. *)
val run : config -> unit
