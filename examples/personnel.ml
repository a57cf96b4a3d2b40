(* The paper's introductory scenario: an employees/departments/managers
   database (Section 2.1's EMP_DEPT / DEPT_MGR query) — here with a
   null value: we know dave works for *some* department recorded under
   the placeholder "dept_of_dave", whose identity is open between the
   real departments.

   This example also demonstrates the "implementation on top of a
   standard DBMS" pipeline: the approximated query is compiled to
   relational algebra and run by the algebra engine.

   Run with: dune exec examples/personnel.exe *)

open Logicaldb

let section title = Printf.printf "\n== %s ==\n" title

let () =
  let db =
    database
      ~predicates:[ ("EMP_DEPT", 2); ("DEPT_MGR", 2) ]
      ~constants:[ "dept_of_dave" ]
      ~facts:
        [
          ("EMP_DEPT", [ "john"; "toys" ]);
          ("EMP_DEPT", [ "mary"; "books" ]);
          ("EMP_DEPT", [ "dave"; "dept_of_dave" ]);
          ("DEPT_MGR", [ "toys"; "sue" ]);
          ("DEPT_MGR", [ "books"; "ann" ]);
        ]
        (* Everything is pairwise distinct except the placeholder
           department, which may be toys or books (but is certainly not
           a person). *)
      ~distinct:
        (let people = [ "john"; "mary"; "dave"; "sue"; "ann" ] in
         let depts = [ "toys"; "books" ] in
         let rec pairs = function
           | [] -> []
           | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
         in
         pairs (people @ depts)
         @ List.map (fun p -> ("dept_of_dave", p)) people)
      ()
  in

  section "Who works where / who manages whom";
  let emp_mgr =
    query "(x1, x2). exists y. EMP_DEPT(x1, y) /\\ DEPT_MGR(y, x2)"
  in
  Fmt.pr "query: %a@." Pretty.pp_query emp_mgr;
  Fmt.pr "certain employee-manager pairs: %a@." Relation.pp
    (certain_answer db emp_mgr);
  Fmt.pr "possible employee-manager pairs: %a@." Relation.pp
    (Certain.possible_answer db emp_mgr);
  Printf.printf
    "(dave has a manager in every model, but no single manager in all \
     models,\n so (dave, _) shows under 'possible' and not under 'certain')\n";

  section "A certain existential about dave";
  Printf.printf "dave certainly has some manager: %b\n"
    (certain db "exists y, z. EMP_DEPT(dave, y) /\\ DEPT_MGR(y, z)");

  section "Negative queries";
  (* john certainly does not work in books: john's department is toys
     and toys ≠ books is an axiom. *)
  Printf.printf "john certainly not in books: %b\n"
    (certain db "~EMP_DEPT(john, books)");
  (* dave's department is open, so neither membership is certain. *)
  Printf.printf "dave certainly not in books:  %b\n"
    (certain db "~EMP_DEPT(dave, books)");

  section "Running on the relational back end (Section 5)";
  let negative = query "(x). ~EMP_DEPT(x, books)" in
  let hat = Translate.query Translate.Semantic negative in
  let storage, _ = Approx.storage db in
  let plan = Compile.query storage hat in
  Fmt.pr "translated query: %a@." Pretty.pp_query hat;
  Fmt.pr "algebra plan (%d nodes):@.  %a@." (Algebra.size plan) Algebra.pp plan;
  let via_algebra =
    Approx.answer ~backend:Approx.Algebra db negative
  in
  let via_direct = Approx.answer db negative in
  Fmt.pr "algebra answer: %a@." Relation.pp via_algebra;
  Fmt.pr "direct answer:  %a@." Relation.pp via_direct;
  Fmt.pr "exact answer:   %a@." Relation.pp (certain_answer db negative);
  assert (Relation.equal via_algebra via_direct);

  section "Storage: the virtual NE relation";
  let nev = Ne_virtual.make db in
  Printf.printf
    "explicit NE pairs: %d;  virtual representation: |U| = %d, |NE'| = %d\n"
    (Ne_virtual.explicit_size db)
    (List.length (Ne_virtual.unknowns nev))
    (List.length (Ne_virtual.stored_pairs nev))
