(** Shared plan cache: one {!Vardi_certain.Engine.prepared} per
    (database, query text), reused across requests, clients and worker
    domains.

    The key is [(db name, generation, delta epoch, query)] — two-level
    invalidation:

    - The {e generation} is bumped by the server every time a name is
      (re)loaded, so a reload invalidates every plan prepared against
      the old vocabulary and data.
    - The {e delta epoch} is the resident session's mutation counter
      ([Vardi_incr.Session.delta_epoch]). A mutation moves it, so the
      next lookup re-binds the query against the post-delta view — but
      unlike a generation bump, this is cheap: the heavy state (the
      symtab, the quotient-structure cache, the per-structure memos)
      persists {e inside} the session and is invalidated selectively,
      per slot the delta touched; re-binding costs one query
      compilation, not a rescan.

    Stale entries under either key component are dropped lazily by the
    capacity sweep. Prepared values are immutable, so a cached plan may
    be evaluated concurrently from any number of pool workers.

    Hits, misses and capacity resets are counted and surfaced both
    through {!stats} (the serve [stats] op) and as {!Vardi_obs.Obs}
    counters [serve.plan_cache.hit] / [serve.plan_cache.miss] /
    [serve.plan_cache.reset]. *)

type t

(** [create ?capacity ()] — [capacity] (default [256]) bounds the
    number of resident plans; on overflow the whole table is dropped
    and the drop counted as a reset (plans are cheap to rebuild
    relative to scans, and the bound only exists to keep a
    pathological client from growing the table without limit). *)
val create : ?capacity:int -> unit -> t

(** [find_or_prepare cache ~db_name ~generation ~delta ~query_text
    prepare] returns the cached plan for the key, or calls
    [prepare ()], caches and returns the fresh plan. The preparation
    runs outside the cache lock — two racing misses on the same key may
    both prepare, and the later insert wins; both plans are valid.
    [?kernel] is deprecated and ignored (there is one kernel, so it is
    not part of the key); it stays for callers that still pass it.
    @raise Invalid_argument as the supplied [prepare]. *)
val find_or_prepare :
  t ->
  db_name:string ->
  generation:int ->
  delta:int ->
  query_text:string ->
  ?kernel:Vardi_certain.Engine.kernel ->
  (unit -> Vardi_certain.Engine.prepared) ->
  Vardi_certain.Engine.prepared * [ `Hit | `Miss ]

type stats = {
  hits : int;
  misses : int;
  resets : int;  (** times a full table was emptied to admit a plan *)
  entries : int;  (** plans resident now (not monotonic) *)
}

(** Counters since {!create}. *)
val stats : t -> stats
