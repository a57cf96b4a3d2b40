(* Timing, percentiles and the result line. *)

let now () = Unix.gettimeofday ()

(* A growable sample of latencies in milliseconds. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let merge samples =
  let out = sample () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add out s.data.(i) done) samples;
  out

let total s =
  let t = ref 0. in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

(* [overhead traced plain]: how much longer the traced run took over the
   stream prefix both runs completed, per stream (client), as a share. *)
let overhead traced plain =
  let t = ref 0. and u = ref 0. in
  Array.iteri
    (fun i tr ->
      let pl = plain.(i) in
      for j = 0 to min tr.len pl.len - 1 do
        t := !t +. tr.data.(j);
        u := !u +. pl.data.(j)
      done)
    traced;
  if !u = 0. then 0. else (!t /. !u) -. 1.

(* Nearest-rank percentile. *)
let percentile s p =
  if s.len = 0 then nan
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int s.len)) in
    a.(max 0 (min (s.len - 1) (rank - 1)))
  end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set of a process, from /proc, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Counters shared by the load threads of one run. *)
type tally = { attempted : int Atomic.t; failed : int Atomic.t }

let tally () = { attempted = Atomic.make 0; failed = Atomic.make 0 }

let fail tally fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr tally.failed;
      if Atomic.get tally.failed <= 5 then prerr_endline ("ldbbench: " ^ msg))
    fmt

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit_)
          metrics))
