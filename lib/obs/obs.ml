(* Structured tracing and metrics. Zero dependencies beyond the
   standard library and Unix; safe under OCaml 5 domains.

   Design constraints, in order:
   1. The disabled path must be as close to free as possible — one
      atomic load per span/count call — because every engine hot loop
      is instrumented unconditionally.
   2. Events must carry the domain that produced them, so work on the
      serve layer's worker domains is attributable per domain.
   3. Sinks are pluggable values, not functors: the CLI composes them
      at run time (console + file, buffer + console, ...). *)

(* --- clock ---------------------------------------------------------- *)

(* The stdlib exposes no monotonic clock, so we clamp gettimeofday to
   be non-decreasing process-wide: a backward step (NTP, VM migration)
   yields a zero-length interval instead of a negative one. *)
let last_ns = Atomic.make 0L

let now_ns () =
  let t = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last_ns in
    if Int64.compare t prev <= 0 then prev
    else if Atomic.compare_and_set last_ns prev t then t
    else clamp ()
  in
  clamp ()

(* --- events --------------------------------------------------------- *)

type event =
  | Span_open of {
      id : int;
      parent : int option;
      name : string;
      domain : int;
      at_ns : int64;
    }
  | Span_close of {
      id : int;
      name : string;
      domain : int;
      at_ns : int64;
      elapsed_ns : int64;
    }
  | Count of { name : string; span : int option; domain : int; value : int }

type sink = { emit : event -> unit; flush : unit -> unit }

let null_sink = { emit = ignore; flush = ignore }

let tee sinks =
  {
    emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
    flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
  }

(* --- the ambient sink ----------------------------------------------- *)

let current : sink option Atomic.t = Atomic.make None
let enabled () = Atomic.get current <> None

(* Sink hardening: an exception escaping a user-installed sink must
   never crash or deadlock an engine — emission happens inside worker
   domains and inside Fun.protect finalizers. The first escape counts
   the error and disables the offending sink (the CAS only removes the
   sink that failed, never one installed concurrently since); later
   instrumentation points see no sink and fall back to the null path. *)
let sink_error_total = Atomic.make 0
let sink_errors () = Atomic.get sink_error_total

let disable_failed cur =
  Atomic.incr sink_error_total;
  ignore (Atomic.compare_and_set current cur None)

let install s = Atomic.set current (Some s)

let uninstall () =
  match Atomic.exchange current None with
  | None -> ()
  | Some s -> ( try s.flush () with _ -> Atomic.incr sink_error_total)

let flush () =
  match Atomic.get current with
  | None -> ()
  | Some s -> ( try s.flush () with _ -> disable_failed (Some s))

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

(* --- spans and counters --------------------------------------------- *)

let next_id = Atomic.make 1

(* Per-domain stack of open span ids: nesting is tracked where the work
   runs, so a worker domain's spans are children of whatever that
   domain opened, never of another domain's spans — no cross-domain
   coordination needed. *)
let stack_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let domain_id () = (Domain.self () :> int)

let current_span () =
  match !(Domain.DLS.get stack_key) with [] -> None | id :: _ -> Some id

let emit ev =
  match Atomic.get current with
  | None -> ()
  | Some s as cur -> (
    (* Sys.Break is the user's interrupt arriving during the emit, not
       a sink bug: let it propagate instead of disabling the sink. *)
    try s.emit ev with
    | Sys.Break -> raise Sys.Break
    | _ -> disable_failed cur)

let span name f =
  if not (enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = current_span () in
    let t0 = now_ns () in
    emit (Span_open { id; parent; name; domain = domain_id (); at_ns = t0 });
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with top :: rest when top = id -> stack := rest | _ -> ());
        let t1 = now_ns () in
        emit
          (Span_close
             {
               id;
               name;
               domain = domain_id ();
               at_ns = t1;
               elapsed_ns = Int64.sub t1 t0;
             }))
      f
  end

let count name value =
  if enabled () then
    emit (Count { name; span = current_span (); domain = domain_id (); value })

(* --- in-memory ring buffer ------------------------------------------ *)

type buffer = {
  lock : Mutex.t;
  ring : event option array;
  mutable next : int; (* write position *)
  mutable stored : int; (* min (writes, capacity) *)
  mutable dropped : int; (* writes - stored *)
}

let buffer ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Obs.buffer: capacity must be positive";
  {
    lock = Mutex.create ();
    ring = Array.make capacity None;
    next = 0;
    stored = 0;
    dropped = 0;
  }

let locked b f =
  Mutex.lock b.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock b.lock) f

let buffer_sink b =
  let emit ev =
    locked b (fun () ->
        let cap = Array.length b.ring in
        b.ring.(b.next) <- Some ev;
        b.next <- (b.next + 1) mod cap;
        if b.stored < cap then b.stored <- b.stored + 1
        else b.dropped <- b.dropped + 1)
  in
  { emit; flush = ignore }

let events b =
  locked b (fun () ->
      let cap = Array.length b.ring in
      let start = (b.next - b.stored + cap) mod cap in
      List.init b.stored (fun i ->
          match b.ring.((start + i) mod cap) with
          | Some ev -> ev
          | None -> assert false))

let dropped b = locked b (fun () -> b.dropped)

let reset b =
  locked b (fun () ->
      Array.fill b.ring 0 (Array.length b.ring) None;
      b.next <- 0;
      b.stored <- 0;
      b.dropped <- 0)

(* --- aggregation ----------------------------------------------------- *)

module String_map = Map.Make (String)
module Int_map = Map.Make (Int)

let counter_totals evs =
  List.fold_left
    (fun m ev ->
      match ev with
      | Count { name; value; _ } ->
        String_map.update name
          (fun v -> Some (Option.value v ~default:0 + value))
          m
      | Span_open _ | Span_close _ -> m)
    String_map.empty evs
  |> String_map.bindings

let counters_by_domain evs =
  List.fold_left
    (fun m ev ->
      match ev with
      | Count { name; domain; value; _ } ->
        String_map.update name
          (fun per ->
            let per = Option.value per ~default:Int_map.empty in
            Some
              (Int_map.update domain
                 (fun v -> Some (Option.value v ~default:0 + value))
                 per))
          m
      | Span_open _ | Span_close _ -> m)
    String_map.empty evs
  |> String_map.bindings
  |> List.map (fun (name, per) -> (name, Int_map.bindings per))

(* --- span forest reconstruction -------------------------------------- *)

type tree = {
  tree_name : string;
  tree_domain : int;
  tree_elapsed_ns : int64;
  tree_counts : (string * int) list;
  tree_children : tree list;
}

type node = {
  n_name : string;
  n_domain : int;
  n_open : int64;
  n_parent : int option;
  mutable n_elapsed : int64 option; (* None while still open *)
  mutable n_counts : (string * int) list; (* reversed *)
  mutable n_children : int list; (* reversed *)
}

let spans evs =
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  (* Spans still open when the snapshot was taken are closed at the
     latest timestamp seen, so partial traces still render. *)
  let horizon = ref 0L in
  List.iter
    (fun ev ->
      match ev with
      | Span_open { id; parent; name; domain; at_ns } ->
        if Int64.compare at_ns !horizon > 0 then horizon := at_ns;
        let n =
          {
            n_name = name;
            n_domain = domain;
            n_open = at_ns;
            n_parent = parent;
            n_elapsed = None;
            n_counts = [];
            n_children = [];
          }
        in
        Hashtbl.replace nodes id n;
        (match parent with
        | Some p when Hashtbl.mem nodes p ->
          let pn = Hashtbl.find nodes p in
          pn.n_children <- id :: pn.n_children
        | Some _ | None -> roots := id :: !roots)
      | Span_close { id; at_ns; elapsed_ns; _ } -> (
        if Int64.compare at_ns !horizon > 0 then horizon := at_ns;
        match Hashtbl.find_opt nodes id with
        | Some n -> n.n_elapsed <- Some elapsed_ns
        | None -> () (* open event fell off the ring buffer *))
      | Count { name; span; value; _ } -> (
        match span with
        | Some id when Hashtbl.mem nodes id ->
          let n = Hashtbl.find nodes id in
          n.n_counts <- (name, value) :: n.n_counts
        | Some _ | None -> ()))
    evs;
  let merge_counts counts =
    List.fold_left
      (fun m (name, v) ->
        String_map.update name
          (fun cur -> Some (Option.value cur ~default:0 + v))
          m)
      String_map.empty counts
    |> String_map.bindings
  in
  let rec build id =
    let n = Hashtbl.find nodes id in
    {
      tree_name = n.n_name;
      tree_domain = n.n_domain;
      tree_elapsed_ns =
        (match n.n_elapsed with
        | Some e -> e
        | None -> Int64.max 0L (Int64.sub !horizon n.n_open));
      tree_counts = merge_counts (List.rev n.n_counts);
      tree_children = List.rev_map build n.n_children;
    }
  in
  List.rev_map build !roots

(* --- pretty printing -------------------------------------------------- *)

let pp_duration ppf ns =
  let ns = Int64.to_float ns in
  if ns >= 1e9 then Format.fprintf ppf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf ppf "%.1f us" (ns /. 1e3)
  else Format.fprintf ppf "%.0f ns" ns

let pp_counts ppf = function
  | [] -> ()
  | counts ->
    Format.fprintf ppf "  {%s}"
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counts))

(* Sibling leaves sharing a name (repeated calls under one parent)
   collapse into one "name xN" line with summed time and counters;
   anything with children prints individually. *)
let rec pp_forest ppf ~indent trees =
  let rec emit_siblings = function
    | [] -> ()
    | t :: rest when t.tree_children = [] ->
      let same, others =
        List.partition
          (fun u -> u.tree_children = [] && String.equal u.tree_name t.tree_name)
          rest
      in
      let group = t :: same in
      let total =
        List.fold_left
          (fun acc u -> Int64.add acc u.tree_elapsed_ns)
          0L group
      in
      let counts =
        List.concat_map (fun u -> u.tree_counts) group
        |> List.fold_left
             (fun m (name, v) ->
               String_map.update name
                 (fun cur -> Some (Option.value cur ~default:0 + v))
                 m)
             String_map.empty
        |> String_map.bindings
      in
      let label =
        if List.length group > 1 then
          Printf.sprintf "%s x%d" t.tree_name (List.length group)
        else t.tree_name
      in
      Format.fprintf ppf "%s%-*s %a%a@." indent
        (max 1 (36 - String.length indent))
        label pp_duration total pp_counts counts;
      emit_siblings others
    | t :: rest ->
      Format.fprintf ppf "%s%-*s %a [d%d]%a@." indent
        (max 1 (36 - String.length indent))
        t.tree_name pp_duration t.tree_elapsed_ns t.tree_domain pp_counts
        t.tree_counts;
      pp_forest ppf ~indent:(indent ^ "  ") t.tree_children;
      emit_siblings rest
  in
  emit_siblings trees

let pp_spans ppf evs =
  match spans evs with
  | [] -> Format.fprintf ppf "(no spans recorded)@."
  | forest -> pp_forest ppf ~indent:"" forest

let pp_counters ppf evs =
  match counters_by_domain evs with
  | [] -> Format.fprintf ppf "(no counters recorded)@."
  | counters ->
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, per_domain) ->
        let total = List.fold_left (fun acc (_, v) -> acc + v) 0 per_domain in
        let breakdown =
          match per_domain with
          | [ _ ] -> "" (* a single domain adds no information *)
          | _ ->
            Printf.sprintf "  [%s]"
              (String.concat ", "
                 (List.map
                    (fun (d, v) -> Printf.sprintf "d%d=%d" d v)
                    per_domain))
        in
        Format.fprintf ppf "  %-36s %d%s@." name total breakdown)
      counters

let console_sink ?(counters = true) ppf =
  let b = buffer () in
  let s = buffer_sink b in
  let flush () =
    let evs = events b in
    if evs <> [] then begin
      pp_spans ppf evs;
      if counters then pp_counters ppf evs;
      let d = dropped b in
      if d > 0 then
        Format.fprintf ppf "(ring buffer overflowed: %d events dropped)@." d
    end;
    Format.pp_print_flush ppf ();
    reset b
  in
  { emit = s.emit; flush }

(* --- JSON lines ------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let event_to_json ev =
  let opt_int = function None -> "null" | Some i -> string_of_int i in
  match ev with
  | Span_open { id; parent; name; domain; at_ns } ->
    Printf.sprintf
      {|{"type":"span_open","id":%d,"parent":%s,"name":"%s","domain":%d,"at_ns":%Ld}|}
      id (opt_int parent) (json_escape name) domain at_ns
  | Span_close { id; name; domain; at_ns; elapsed_ns } ->
    Printf.sprintf
      {|{"type":"span_close","id":%d,"name":"%s","domain":%d,"at_ns":%Ld,"elapsed_ns":%Ld}|}
      id (json_escape name) domain at_ns elapsed_ns
  | Count { name; span; domain; value } ->
    Printf.sprintf
      {|{"type":"count","name":"%s","span":%s,"domain":%d,"value":%d}|}
      (json_escape name) (opt_int span) domain value

let jsonl_sink oc =
  let lock = Mutex.create () in
  let emit ev =
    let line = event_to_json ev in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        output_string oc line;
        output_char oc '\n')
  in
  let flush () =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> Stdlib.flush oc)
  in
  { emit; flush }
