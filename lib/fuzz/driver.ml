module Query = Vardi_logic.Query
module Pretty = Vardi_logic.Pretty
module Cw_database = Vardi_cwdb.Cw_database
module Obs = Vardi_obs.Obs

type config = {
  seed : int;
  count : int;
  gen : Gen.config;
  typed : bool;
  noise : int;
  shrink : bool;
  faults : bool;
  corpus_dir : string option;
  progress : (int -> unit) option;
}

let default =
  {
    seed = 42;
    count = 1000;
    gen = Gen.default;
    typed = true;
    noise = 0;
    shrink = true;
    faults = false;
    corpus_dir = None;
    progress = None;
  }

(* Per-instance fault seed: derived from the campaign seed and the
   instance index so a failure report's coordinates replay the same
   injection decisions, yet neighboring instances draw different
   faults. *)
let faults_seed config index =
  if config.faults then Some (Hashtbl.hash (config.seed, index, "faults"))
  else None

type failure = {
  index : int;
  violation : Oracle.violation;
  case : Shrink.case;
  shrunk : Shrink.case option;
}

type outcome = {
  instances : int;
  checked_typed : int;
  failures : failure list;
  crashes : Noise.crash list;
}

let clean outcome = outcome.failures = [] && outcome.crashes = []

(* An instance is minimized against the oracle that fired: a candidate
   counts as still failing only when the *same* oracle id recurs. The
   instance's own fault seed is kept so fault-dependent failures stay
   reproducible while shrinking. *)
let shrink_failure ?faults_seed violation case =
  let still_failing (candidate : Shrink.case) =
    List.exists
      (fun (v : Oracle.violation) -> String.equal v.oracle violation.Oracle.oracle)
      (Oracle.check ?faults_seed candidate.Shrink.db candidate.Shrink.query)
  in
  Shrink.minimize ~still_failing case

let save_failure dir index failure =
  let case = Option.value failure.shrunk ~default:failure.case in
  let path = Filename.concat dir (Printf.sprintf "failure-%04d.fuzz" index) in
  Corpus.save path
    {
      Corpus.oracle = Some failure.violation.Oracle.oracle;
      query = case.Shrink.query;
      db = case.Shrink.db;
    };
  path

let check_case ~index (case : Shrink.case) config =
  let faults_seed = faults_seed config index in
  match Oracle.check ?faults_seed case.Shrink.db case.Shrink.query with
  | [] -> []
  | violations ->
    List.map
      (fun violation ->
        let shrunk =
          if config.shrink then
            Some (shrink_failure ?faults_seed violation case)
          else None
        in
        { index; violation; case; shrunk })
      violations

let run ?(config = default) () =
  Gen.validate_config config.gen;
  if config.count < 0 then invalid_arg "Fuzz.Driver: count must be non-negative";
  if config.noise < 0 then invalid_arg "Fuzz.Driver: noise must be non-negative";
  Obs.span "fuzz.run" (fun () ->
      let failures = ref [] in
      let checked_typed = ref 0 in
      for index = 0 to config.count - 1 do
        Obs.count "fuzz.instances" 1;
        (match config.progress with Some f -> f index | None -> ());
        let instance = Gen.instance ~config:config.gen ~seed:config.seed index in
        let case = { Shrink.db = instance.Gen.db; query = instance.Gen.query } in
        failures := List.rev_append (check_case ~index case config) !failures;
        if config.typed then begin
          incr checked_typed;
          let typed =
            Gen.typed_instance ~config:config.gen ~seed:config.seed index
          in
          List.iter
            (fun violation ->
              (* Typed cases shrink in the untyped image: record them
                 unshrunk, with the elaborated database for replay. *)
              failures :=
                {
                  index;
                  violation;
                  case =
                    {
                      Shrink.db = Vardi_typed.Ty_database.to_cw typed.Gen.tdb;
                      query = Vardi_typed.Ty_query.erase typed.Gen.tquery;
                    };
                  shrunk = None;
                }
                :: !failures)
            (Oracle.check_typed typed.Gen.tdb typed.Gen.tquery)
        end
      done;
      let crashes =
        if config.noise > 0 then
          Noise.run ~seed:config.seed ~count:config.noise
        else []
      in
      let failures = List.rev !failures in
      (match config.corpus_dir with
      | Some dir when failures <> [] ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri (fun i f -> ignore (save_failure dir i f)) failures
      | _ -> ());
      {
        instances = config.count;
        checked_typed = !checked_typed;
        failures;
        crashes;
      })

let replay cases =
  List.concat_map
    (fun (label, (case : Corpus.case)) ->
      Obs.count "fuzz.instances" 1;
      let violations = Oracle.check case.Corpus.db case.Corpus.query in
      List.map (fun v -> (label, v)) violations)
    cases

let pp_failure ppf f =
  let case = Option.value f.shrunk ~default:f.case in
  Fmt.pf ppf "@[<v>instance %d: %a@,query: %a@,%a@]" f.index Oracle.pp_violation
    f.violation Pretty.pp_query case.Shrink.query Cw_database.pp case.Shrink.db

let pp_outcome ppf o =
  if clean o then
    Fmt.pf ppf "%d instances (%d typed), no oracle violations" o.instances
      o.checked_typed
  else
    Fmt.pf ppf "@[<v>%d instances (%d typed): %d violation(s), %d crash(es)@,%a%a@]"
      o.instances o.checked_typed (List.length o.failures)
      (List.length o.crashes)
      (Fmt.list ~sep:Fmt.cut pp_failure)
      o.failures
      (Fmt.list ~sep:Fmt.cut Noise.pp_crash)
      o.crashes
