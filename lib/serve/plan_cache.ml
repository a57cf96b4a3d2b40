module Certain = Vardi_certain.Engine
module Obs = Vardi_obs.Obs

type key = {
  db_name : string;
  generation : int;
  delta : int;
  query_text : string;
}

type t = {
  lock : Mutex.t;
  table : (key, Certain.prepared) Hashtbl.t;
  capacity : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let locked cache f =
  Mutex.lock cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.lock) f

let find_or_prepare cache ~db_name ~generation ~delta ~query_text ?kernel:_
    prepare =
  let key = { db_name; generation; delta; query_text } in
  match locked cache (fun () -> Hashtbl.find_opt cache.table key) with
  | Some prepared ->
    Atomic.incr cache.hits;
    Obs.count "serve.plan_cache.hit" 1;
    (prepared, `Hit)
  | None ->
    Atomic.incr cache.misses;
    Obs.count "serve.plan_cache.miss" 1;
    (* Prepare outside the lock: compilation can be slow and must not
       stall every other worker's lookups. *)
    let prepared = prepare () in
    locked cache (fun () ->
        if
          Hashtbl.length cache.table >= cache.capacity
          && not (Hashtbl.mem cache.table key)
        then Hashtbl.reset cache.table;
        Hashtbl.replace cache.table key prepared);
    (prepared, `Miss)

let stats cache =
  ( Atomic.get cache.hits,
    Atomic.get cache.misses,
    locked cache (fun () -> Hashtbl.length cache.table) )
