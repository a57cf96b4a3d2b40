module Session = Vardi_incr.Session
module Cw_database = Vardi_cwdb.Cw_database

type t = {
  s_dir : string;
  s_sync : Wal.sync;
  wal : Wal.t;
  snapshot_every : int;
  lock : Mutex.t;
  s_session : Session.t;
  mutable seq : int;
  mutable since : int;  (* records committed since the last checkpoint *)
  mutable snapshots : int;
  mutable closed : bool;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let create ~dir ?(sync = Wal.Always) ?batch_interval ?(snapshot_every = 64)
    ?cache_capacity db =
  mkdir_p dir;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ Snapshot.path dir; Snapshot.tmp_path dir; Wal.path dir ];
  Snapshot.write ~dir ~seq:0 ~delta:0 db;
  let wal = Wal.open_ ~sync ?batch_interval (Wal.path dir) in
  {
    s_dir = dir;
    s_sync = sync;
    wal;
    snapshot_every;
    lock = Mutex.create ();
    s_session = Session.create ?cache_capacity db;
    seq = 0;
    since = 0;
    snapshots = 1;
    closed = false;
  }

let open_ ~dir ?(sync = Wal.Always) ?batch_interval ?(snapshot_every = 64)
    ?cache_capacity () =
  let report = Recovery.recover ?cache_capacity dir in
  let wal = Wal.open_ ~sync ?batch_interval (Wal.path dir) in
  ( {
      s_dir = dir;
      s_sync = sync;
      wal;
      snapshot_every;
      lock = Mutex.create ();
      s_session = report.r_session;
      seq = report.r_seq;
      since = report.r_replayed;
      snapshots = 0;
      closed = false;
    },
    report )

let session t = t.s_session
let dir t = t.s_dir
let sync t = t.s_sync
let seq t = Mutex.protect t.lock (fun () -> t.seq)
let snapshots t = Mutex.protect t.lock (fun () -> t.snapshots)
let wal_counters t = Wal.counters t.wal

let checkpoint_locked t =
  Snapshot.write ~dir:t.s_dir ~seq:t.seq
    ~delta:(Session.delta_epoch t.s_session)
    (Session.db t.s_session);
  Wal.reset t.wal;
  t.since <- 0;
  t.snapshots <- t.snapshots + 1

(* Would [m] change [db]? Raises Invalid_argument exactly when the
   session mutator would, so nothing invalid is ever logged. The
   databases are persistent values, so probing by running the
   functional operation is side-effect free. *)
let probe db (m : Session.mutation) =
  match m with
  | Session.Insert f ->
    (* a member fact is valid, so only a new one needs the check *)
    if Cw_database.mem_fact db f then `Noop
    else begin
      ignore (Cw_database.add_fact db f);
      `Changes
    end
  | Session.Retract f ->
    ignore (Cw_database.remove_fact db f);
    `Changes
  | Session.Close { left; right; equal = false } ->
    if Cw_database.are_distinct db left right then `Noop
    else begin
      ignore (Cw_database.add_distinct db left right);
      `Changes
    end
  | Session.Close { left; right; equal = true } ->
    ignore (Cw_database.merge_constants db ~keep:left ~drop:right);
    `Changes

let commit t m =
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg "Store.commit: store is closed";
      match probe (Session.db t.s_session) m with
      | `Noop -> `Noop
      | `Changes ->
        let seq = t.seq + 1 in
        Wal.append t.wal ~seq m;
        (* write-ahead holds from here: the record is in the log (and
           durable per the sync policy) before the state moves *)
        ignore (Session.apply t.s_session m);
        t.seq <- seq;
        t.since <- t.since + 1;
        if t.snapshot_every > 0 && t.since >= t.snapshot_every then
          checkpoint_locked t;
        `Applied seq)

let checkpoint t =
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg "Store.checkpoint: store is closed";
      checkpoint_locked t)

let flush t = Wal.flush t.wal

let close t =
  Mutex.protect t.lock (fun () -> t.closed <- true);
  Wal.close t.wal

let abandon t =
  Mutex.protect t.lock (fun () -> t.closed <- true);
  Wal.abandon t.wal
