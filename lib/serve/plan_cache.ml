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
  resets : int Atomic.t;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    resets = Atomic.make 0;
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
    let reset =
      locked cache (fun () ->
          let full =
            Hashtbl.length cache.table >= cache.capacity
            && not (Hashtbl.mem cache.table key)
          in
          if full then Hashtbl.reset cache.table;
          Hashtbl.replace cache.table key prepared;
          full)
    in
    if reset then begin
      Atomic.incr cache.resets;
      Obs.count "serve.plan_cache.reset" 1
    end;
    (prepared, `Miss)

type stats = {
  hits : int;
  misses : int;
  resets : int;
  entries : int;
}

let stats (cache : t) =
  {
    hits = Atomic.get cache.hits;
    misses = Atomic.get cache.misses;
    resets = Atomic.get cache.resets;
    entries = locked cache (fun () -> Hashtbl.length cache.table);
  }
