(** Seeded fault injection for resilience testing.

    The module keeps one process-wide fault {e plan} (seed + firing
    rate), armed and disarmed explicitly. Code under test exposes named
    fault {e points}; when the plan is armed, each point visit draws a
    deterministic pseudo-random decision from
    [(seed, visit counter, point name)] and either returns or raises
    {!Injected}. When no plan is armed a point costs one atomic load —
    cheap enough to leave in production paths permanently, which is the
    point: the fuzzer exercises the exact same code real traffic runs.

    The injectable faults, mirroring the failure modes the resilience
    invariants cover:

    - {b killing the scan}: {!probe} is wired (by {!Resilient}) into
      the cancellation token's per-structure check, so a firing raises
      in the middle of the structure scan and propagates out of the
      engine's entry point, where {!Resilient} degrades instead of
      crashing;
    - {b a raising observability sink}: {!raising_sink} is an
      {!Vardi_obs.Obs} sink whose [emit] raises after a set number of
      events — the hardened Obs layer must catch, count and disable it;
    - {b a failing corpus/file read}: [Vardi_fuzz.Corpus.load] visits
      the ["corpus.read"] point before touching the file.

    Firing decisions are deterministic in the visit counter, but the
    counter is process-wide and every armed point advances it; the
    fuzz oracles therefore assert invariants (no leaked exception,
    sound bounds, honest stats) rather than exact outcomes. *)

(** Raised by a firing fault point; the payload is the point name. *)
exception Injected of string

(** [arm ~seed ?rate ()] installs a plan and resets the visit counter.
    [rate] is the per-visit firing probability, clamped to [0. .. 1.]
    (default [0.05]); [rate:1.] makes every point fire — handy for
    directed tests. *)
val arm : seed:int -> ?rate:float -> unit -> unit

(** [disarm ()] removes the plan; points become no-ops again. *)
val disarm : unit -> unit

val armed : unit -> bool

(** [with_faults ~seed ?rate f] runs [f] under an armed plan, then
    restores whatever plan (or none) was armed before — also on
    exception. *)
val with_faults : seed:int -> ?rate:float -> (unit -> 'a) -> 'a

(** [point name] visits the named fault point.
    @raise Injected when the armed plan fires. *)
val point : string -> unit

(** The fault point {!Resilient} wires into cancellation tokens; fires
    as ["scan.worker"], before a structure of the scan. *)
val probe : unit -> unit

(** [short_write ~total name] is the durable file layer's torn-write
    injection: when the armed plan fires, [Some k] with
    [0 <= k < total] — the caller should persist only the first [k]
    bytes of its [total]-byte write and then crash (raise {!Injected}).
    [None] when disarmed or the visit does not fire. The durable layer
    visits it as ["wal.append.short"] and ["snapshot.write.short"];
    the plain crash points are ["wal.append"], ["wal.fsync"],
    ["snapshot.write"] and ["recovery.read"] via {!point}. *)
val short_write : total:int -> string -> int option

(** [flip_bit ~bits name] draws a bit offset in [0 .. bits - 1] to
    corrupt when the armed plan fires — the bit-rot half of the durable
    file-layer injection (directed recovery tests flip a drawn bit and
    assert the CRC catches it). *)
val flip_bit : bits:int -> string -> int option

(** [raising_sink ?after ()] is a sink whose [emit] raises
    [Injected "obs.sink"] on every event after the first [after]
    (default [0] — every event) and whose [flush] raises likewise.
    Independent of the armed plan: it always misbehaves, because its
    job is to prove the Obs hardening catches it. *)
val raising_sink : ?after:int -> unit -> Vardi_obs.Obs.sink
