(* Each runner executes under an [experiment.<id>] span, so a trace of
   a full report run shows per-experiment wall time with the engine
   sub-spans nested beneath. *)
let spanned (id, description, run) =
  (id, description, fun () -> Vardi_obs.Obs.span ("experiment." ^ id) run)

let all =
  List.map spanned
  [
    ("E1", "exact cost vs unknowns (Thm 1 / Cor 2)", E_scaling.e1);
    ("E2", "precise second-order simulation (Thm 3)", E_precise.e2);
    ("E3", "3-colorability reduction (Thm 5)", E_reductions.e3);
    ("E4", "QBF via first-order queries (Thm 7)", E_reductions.e4);
    ("E5", "QBF via second-order queries (Thm 9)", E_reductions.e5);
    ("E6", "approximation quality (Thms 11-13)", E_quality.e6);
    ("E7", "approximation scaling (Thm 14)", E_scaling.e7);
    ("E8", "alpha_P formula size (Lemma 10)", E_alpha.e8);
    ("E9", "virtual NE storage (Section 5)", E_storage.e9);
    ("E10", "expression complexity ratio (Section 4)", E_scaling.e10);
    ("E11", "naive-tables baseline (Introduction)", E_baselines.e11);
    ("E12", "one-sided deciders and their residue", E_oneside.e12);
    ("A1", "ablation: naive vs kernel exact engine", Ablations.a1);
    ("A2", "ablation: direct vs algebra back end", Ablations.a2);
    ("A3", "ablation: semantic vs syntactic alpha", Ablations.a3);
    ("A4", "ablation: countermodel search order", Ablations.a4);
  ]

let run_all () = List.map (fun (_, _, run) -> run ()) all

let find id =
  let id = String.uppercase_ascii id in
  List.find_map
    (fun (id', _, run) ->
      if String.equal id (String.uppercase_ascii id') then Some run else None)
    all
