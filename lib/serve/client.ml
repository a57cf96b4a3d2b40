type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Capped exponential backoff with full jitter: attempt [n] (0-based)
   sleeps uniformly in [cap/2, cap] where cap = min (base * 2^n) 2s —
   the jitter keeps a herd of retrying clients from re-arriving in
   lockstep at a server that just answered all of them [busy]. *)
let backoff_delay rng ~backoff_ms attempt =
  let cap_ms = 2000. in
  let exp_ms = float_of_int backoff_ms *. (2. ** float_of_int attempt) in
  let capped = Float.min cap_ms exp_ms in
  let jittered = (capped /. 2.) +. Random.State.float rng (capped /. 2.) in
  jittered /. 1000.

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect_retry ?(attempts = 100) ?(delay = 0.05) path =
  let rec go n =
    match connect path with
    | c -> c
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 1 ->
      Unix.sleepf delay;
      go (n - 1)
  in
  go attempts

let request_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  Json.parse (input_line c.ic)

let request c j = request_line c (Json.to_string j)

let is_busy resp =
  match Json.str_field "code" resp with Some "busy" -> true | _ -> false

(* Only a *received* [busy] response is retried: the request provably
   did not run, so resending cannot double-apply anything. A dropped
   connection (End_of_file) after a mutation was sent is ambiguous —
   the server may have committed it before dying — so it propagates to
   the caller, who must decide idempotency for itself (PROTOCOL.md,
   "Retries"). *)
let request_retry ?(retries = 0) ?(backoff_ms = 25) c j =
  if retries = 0 then request c j
  else begin
    let rng = Random.State.make_self_init () in
    let rec go attempt =
      let resp = request c j in
      if is_busy resp && attempt < retries then begin
        Unix.sleepf (backoff_delay rng ~backoff_ms attempt);
        go (attempt + 1)
      end
      else resp
    in
    go 0
  end

let close c =
  (* [ic] and [oc] wrap the same descriptor; closing the output side
     flushes and closes it for both. *)
  close_out_noerr c.oc
