module Formula = Vardi_logic.Formula
module Term = Vardi_logic.Term
module Query = Vardi_logic.Query
module Vocabulary = Vardi_logic.Vocabulary
module Cw_database = Vardi_cwdb.Cw_database
module Mapping = Vardi_cwdb.Mapping

let vertex_constant v = Printf.sprintf "v%d" v

let query =
  let y = Term.var "y" and x = Term.var "x" in
  Query.boolean
    (Formula.Implies
       ( Formula.Forall ("y", Formula.Atom ("M", [ y ])),
         Formula.Exists ("x", Formula.Atom ("R", [ x; x ])) ))

let colors = [ "1"; "2"; "3" ]

let database g =
  let vertex_constants =
    List.init (Graph.vertex_count g) vertex_constant
  in
  let vocabulary =
    Vocabulary.make
      ~constants:(colors @ vertex_constants)
      ~predicates:[ ("M", 1); ("R", 2) ]
  in
  let m_facts =
    List.map (fun c -> { Cw_database.pred = "M"; args = [ c ] }) colors
  in
  let r_facts =
    List.map
      (fun (u, v) ->
        {
          Cw_database.pred = "R";
          args = [ vertex_constant u; vertex_constant v ];
        })
      (Graph.edges g)
  in
  Cw_database.make ~vocabulary
    ~facts:(m_facts @ r_facts)
    ~distinct:[ ("1", "2"); ("1", "3"); ("2", "3") ]

let colorable_via_certain ?order g =
  let module Obs = Vardi_obs.Obs in
  Obs.span "reduce.three_col" (fun () ->
      let db = Obs.span "reduce.three_col.encode" (fun () -> database g) in
      Obs.count "reduce.three_col.vertices" (Graph.vertex_count g);
      Obs.count "reduce.three_col.edges" (List.length (Graph.edges g));
      Obs.span "reduce.three_col.decide" (fun () ->
          not (Vardi_certain.Engine.certain_boolean ?order db query)))

(* The proof normalizes h to be the identity on {1,2,3}; an arbitrary
   countermodel may instead send the color constants elsewhere
   (injectively, by the uniqueness axioms), so compare h(c_v) against
   h(1), h(2), h(3) rather than against the literals. *)
let coloring_of_mapping g h =
  let n = Graph.vertex_count g in
  match List.map (fun c -> Mapping.apply h c) colors with
  | exception Not_found -> None
  | color_images ->
    let color_of e =
      let rec find i = function
        | [] -> None
        | img :: rest ->
          if String.equal img e then Some i else find (i + 1) rest
      in
      find 0 color_images
    in
    let coloring = Array.make (max n 1) (-1) in
    let ok = ref true in
    for v = 0 to n - 1 do
      match
        try color_of (Mapping.apply h (vertex_constant v))
        with Not_found -> None
      with
      | Some c -> coloring.(v) <- c
      | None -> ok := false
    done;
    let witness = Array.sub coloring 0 n in
    if !ok && Graph.is_proper_coloring g witness then Some witness else None
