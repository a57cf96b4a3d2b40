(* Request-scoped spans recorded from outside the program, around the
   public calls each layer exposes. Spans of one request share its id
   and live in memory until the run ends. A span's self time is its
   duration minus the durations of its children; children of one span
   never overlap, because a request runs one call at a time. *)

type span = { id : int; parent : int; name : string; t0 : int64; dur : int64 }

(* One request's spans. Only one thread touches a context at a time:
   the client thread hands it to a pool worker and waits for the
   worker's reply before touching it again. *)
type ctx = {
  rid : int;
  mutable stack : int list;
  mutable spans : span list;
  mutable next : int;
}

let now = Logicaldb.Obs.now_ns

let ctx rid = { rid; stack = []; spans = []; next = 0 }

let current c = match c.stack with p :: _ -> p | [] -> -1

let span c name f =
  let id = c.next in
  c.next <- id + 1;
  let parent = current c in
  c.stack <- id :: c.stack;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      c.stack <- List.tl c.stack;
      c.spans <- { id; parent; name; t0; dur = Int64.sub (now ()) t0 } :: c.spans)
    f

(* [child c name dur] attaches an already-measured interval — summed
   hook time, or a span the program emitted through Obs — under the
   innermost open span. *)
let child c name dur =
  let id = c.next in
  c.next <- id + 1;
  c.spans <- { id; parent = current c; name; t0 = now (); dur } :: c.spans

(* --- aggregation ------------------------------------------------------- *)

type summary = {
  requests : int;
  wall_ns : float;  (* sum of root span durations *)
  self_ns : (string, float) Hashtbl.t;  (* per layer *)
  total_ns : (string, float) Hashtbl.t;  (* per layer, durations *)
  calls : (string, int) Hashtbl.t;
}

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let summarize (ctxs : ctx list) =
  let s =
    {
      requests = List.length ctxs;
      wall_ns = 0.;
      self_ns = Hashtbl.create 32;
      total_ns = Hashtbl.create 32;
      calls = Hashtbl.create 32;
    }
  in
  let wall = ref 0. in
  List.iter
    (fun c ->
      let kids = Hashtbl.create 16 in
      List.iter
        (fun sp ->
          if sp.parent >= 0 then
            Hashtbl.replace kids sp.parent
              (Int64.add sp.dur (Option.value ~default:0L (Hashtbl.find_opt kids sp.parent))))
        c.spans;
      List.iter
        (fun sp ->
          let d = Int64.to_float sp.dur in
          if sp.parent < 0 then wall := !wall +. d;
          let self = d -. Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt kids sp.id)) in
          bump s.self_ns sp.name self;
          bump s.total_ns sp.name d;
          Hashtbl.replace s.calls sp.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt s.calls sp.name)))
        c.spans)
    ctxs;
  { s with wall_ns = !wall }

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
let calls s k = Option.value ~default:0 (Hashtbl.find_opt s.calls k)

(* Mean self time of a layer per request, in microseconds. *)
let self_us s name =
  if s.requests = 0 then 0. else get s.self_ns name /. float_of_int s.requests /. 1e3

let total_us s name =
  if s.requests = 0 then 0. else get s.total_ns name /. float_of_int s.requests /. 1e3

(* Share of the traced wall time the named layers' self times cover
   (everything but the root's own self time). *)
let coverage s ~root =
  if s.wall_ns = 0. then 0.
  else
    let named = Hashtbl.fold (fun k v acc -> if k = root then acc else acc +. v) s.self_ns 0. in
    named /. s.wall_ns

(* JSON lines, one per span, for the first [limit] requests. *)
let write path ~limit (ctxs : ctx list) =
  let oc = open_out path in
  List.iteri
    (fun i c ->
      if i < limit then
        List.iter
          (fun sp ->
            Printf.fprintf oc
              "{\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"dur_ns\":%Ld}\n"
              c.rid sp.id sp.parent sp.name sp.t0 sp.dur)
          (List.rev c.spans))
    ctxs;
  close_out oc
