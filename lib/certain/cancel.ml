(* Cooperative cancellation token for the structure scan. See the .mli
   for the determinism contract: caps truncate the stream by position
   (exact), the deadline halts cooperatively (prompt, wall-clock
   dependent). *)

type reason =
  | Deadline
  | Structures
  | Evaluations

let reason_to_string = function
  | Deadline -> "deadline"
  | Structures -> "structure cap"
  | Evaluations -> "evaluation cap"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

type t = {
  deadline_ns : int64 option;
  max_structures : int option;
  max_evaluations : int option;
  probe : (unit -> unit) option;
  mutable state : reason option;
}

let create ?deadline_ns ?max_structures ?max_evaluations ?probe () =
  let positive name = function
    | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Cancel.create: %s must be positive" name)
    | _ -> ()
  in
  positive "max_structures" max_structures;
  positive "max_evaluations" max_evaluations;
  { deadline_ns; max_structures; max_evaluations; probe; state = None }

let unlimited () = create ()

let tripped t = t.state

(* First reason wins. *)
let trip t reason = if t.state = None then t.state <- Some reason

let check t =
  (match t.probe with Some f -> f () | None -> ());
  match t.deadline_ns with
  | Some d when Int64.compare (Vardi_obs.Obs.now_ns ()) d >= 0 ->
    trip t Deadline;
    true
  | Some _ | None -> false

let scan_cap t ~structures ~evaluations =
  let remaining spent = function
    | None -> None
    | Some cap -> Some (max 0 (cap - spent))
  in
  match
    ( remaining structures t.max_structures,
      remaining evaluations t.max_evaluations )
  with
  | None, None -> None
  | Some s, None -> Some (s, Structures)
  | None, Some e -> Some (e, Evaluations)
  | Some s, Some e -> if s <= e then Some (s, Structures) else Some (e, Evaluations)
