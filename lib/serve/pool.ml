module Obs = Vardi_obs.Obs

type job = cancelled:bool -> unit

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  emptied : Condition.t;
      (* broadcast whenever a worker pops the queue empty; [stop ~drain]
         waits on it so queued jobs get real answers before shutdown *)
  queue : job Queue.t;
  queue_capacity : int;
  mutable stopping : bool;
  mutable draining : bool;
  mutable domains : unit Domain.t list;
  workers : int;
}

let run_job job ~cancelled =
  try job ~cancelled
  with e ->
    (* The job owns its own error reporting (it writes a protocol
       response); anything escaping here is a server bug, and a worker
       that dies takes 1/workers of the capacity with it — so count
       and keep draining. *)
    ignore e;
    Obs.count "serve.pool.job_error" 1

let worker_loop pool () =
  Mutex.lock pool.lock;
  let rec loop () =
    if not (Queue.is_empty pool.queue) then begin
      let job = Queue.pop pool.queue in
      if Queue.is_empty pool.queue then Condition.broadcast pool.emptied;
      Mutex.unlock pool.lock;
      run_job job ~cancelled:false;
      Mutex.lock pool.lock;
      loop ()
    end
    else if pool.stopping then Mutex.unlock pool.lock
    else begin
      Condition.wait pool.nonempty pool.lock;
      loop ()
    end
  in
  loop ()

let create ~workers ~queue_capacity () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Pool.create: queue_capacity must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      emptied = Condition.create ();
      queue = Queue.create ();
      queue_capacity;
      stopping = false;
      draining = false;
      domains = [];
      workers;
    }
  in
  let parked = Atomic.make None in
  let park e = ignore (Atomic.compare_and_set parked None (Some e)) in
  pool.domains <- Domain_guard.spawn_list ~park workers (worker_loop pool);
  (match Atomic.get parked with Some e -> raise e | None -> ());
  pool

let submit pool job =
  Mutex.lock pool.lock;
  let verdict =
    if pool.stopping || pool.draining then `Stopping
    else if Queue.length pool.queue >= pool.queue_capacity then `Busy
    else begin
      Queue.push job pool.queue;
      Condition.signal pool.nonempty;
      `Accepted
    end
  in
  Mutex.unlock pool.lock;
  (match verdict with
  | `Busy -> Obs.count "serve.pool.busy" 1
  | `Accepted | `Stopping -> ());
  verdict

let stop ?(drain = false) pool =
  Mutex.lock pool.lock;
  if pool.stopping then Mutex.unlock pool.lock
  else begin
    if drain then begin
      (* Graceful path (SIGTERM): refuse new work but let the workers
         answer everything already accepted before we claim the queue —
         after the wait below it is empty, so the orphan sweep finds
         nothing and every queued job got a real response. *)
      pool.draining <- true;
      while not (Queue.is_empty pool.queue) do
        Condition.wait pool.emptied pool.lock
      done
    end;
    pool.stopping <- true;
    (* Claim every not-yet-started job while holding the lock, so each
       job is run exactly once: either by a worker (~cancelled:false)
       or here (~cancelled:true). *)
    let orphaned = ref [] in
    while not (Queue.is_empty pool.queue) do
      orphaned := Queue.pop pool.queue :: !orphaned
    done;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    List.iter (fun job -> run_job job ~cancelled:true) (List.rev !orphaned);
    let parked = Atomic.make None in
    let park e = ignore (Atomic.compare_and_set parked None (Some e)) in
    Domain_guard.join_list ~park pool.domains;
    pool.domains <- [];
    match Atomic.get parked with Some e -> raise e | None -> ()
  end

let workers pool = pool.workers
let queue_capacity pool = pool.queue_capacity
