(* The ASP engine end to end: parser, grounder, stable-model semantics,
   choice rules with bounds, optimization — plus a brute-force
   stable-model equivalence fuzz. *)

let solve = Asp.solve_text

let atoms_of = function
  | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  | Asp.Logic.Sat m ->
    List.map (fun a -> Format.asprintf "%a" Asp.Ast.pp_atom a) m.Asp.Logic.atoms
    |> List.sort String.compare

let costs_of = function
  | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  | Asp.Logic.Sat m -> m.Asp.Logic.costs

let is_unsat = function Asp.Logic.Unsat _ -> true | Asp.Logic.Sat _ -> false

let check_atoms msg program expected =
  Alcotest.(check (list string)) msg (List.sort String.compare expected)
    (atoms_of (solve program))

(* ---- parser ---- *)

let test_parser () =
  let prog = Asp.parse {|
    node("example").
    attr("depends_on", node("example"), node("bzip2"), "link-run").
    ok(X) :- node(X), not bad(X), X != "zzz".
    1 { pick(X) : node(X) } 1.
    :- pick("nope").
    #minimize { 1@2, X : pick(X) }.
  |} in
  Alcotest.(check int) "statements" 6 (List.length prog);
  (match List.nth prog 2 with
  | Asp.Ast.Rule { head = Asp.Ast.Head_atom a; body } ->
    Alcotest.(check string) "head pred" "ok" a.Asp.Ast.pred;
    Alcotest.(check int) "body lits" 3 (List.length body)
  | _ -> Alcotest.fail "expected a rule");
  match List.nth prog 5 with
  | Asp.Ast.Minimize [ e ] -> Alcotest.(check int) "priority" 2 e.Asp.Ast.priority
  | _ -> Alcotest.fail "expected minimize"

let test_parse_errors () =
  let bad text =
    match Asp.parse text with
    | exception Asp.Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  bad "a :- b";     (* missing dot *)
  bad "a(X :- b.";  (* unbalanced *)
  bad "{ a ; } .";  (* dangling separator *)
  bad "#maximize { 1 : a }."

let test_safety () =
  (* Head variable not bound by a positive body literal. *)
  match Asp.Ground.ground (Asp.parse "p(X) :- not q(X).") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsafe rule should be rejected"

(* ---- semantics ---- *)

let test_facts_and_rules () =
  check_atoms "chain" "a. b :- a. c :- a, b." [ "a"; "b"; "c" ]

let test_negation () =
  check_atoms "choose b" "a :- not b. b :- not a. :- a." [ "b" ]

let test_positive_loop_unfounded () =
  (* a and b support each other but have no external support: the only
     stable model is empty (completion alone would admit {a,b}). *)
  check_atoms "unfounded loop" "a :- b. b :- a." []

let test_loop_with_external_support () =
  check_atoms "externally supported loop"
    "{c}. a :- b. b :- a. a :- c. :- not b." [ "a"; "b"; "c" ]

(* x is the loop's only external support, and only the stability
   check forces it: without the check, completion admits {a, b}. *)
let test_loop_needs_external_support () =
  check_atoms "loop forced through its support"
    "{ x }. a :- b. b :- a. a :- x. :- not a." [ "a"; "b"; "x" ]

let test_odd_loop () =
  Alcotest.(check bool) "a :- not a is unsat" true (is_unsat (solve "a :- not a."))

let test_choice_bounds () =
  let r = solve "p(1). p(2). p(3). 2 { q(X) : p(X) } 2." in
  let qs = List.filter (fun a -> String.length a >= 1 && a.[0] = 'q') (atoms_of r) in
  Alcotest.(check int) "exactly two" 2 (List.length qs);
  Alcotest.(check bool) "lower bound unsat" true
    (is_unsat (solve "p(1). 2 { q(X) : p(X) } 2."))

let test_constraints_on_choice () =
  Alcotest.(check bool) "forced out" true
    (is_unsat (solve "p(1). p(2). 2 { q(X) : p(X) } 2. :- q(1)."))

let test_comparisons () =
  check_atoms "arith filter" "n(1). n(2). n(3). big(X) :- n(X), X >= 2."
    [ "n(1)"; "n(2)"; "n(3)"; "big(2)"; "big(3)" ]

let test_strings_and_functions () =
  check_atoms "compound terms"
    {|node("example"). attr("v", node("example"), "1.1").
      ok(N) :- node(N), attr("v", node(N), V), V != "1.0".|}
    [ {|node("example")|}; {|attr("v",node("example"),"1.1")|}; {|ok("example")|} ]

let test_eq_binding () =
  check_atoms "equality binds" {|p(1). q(Y) :- p(X), Y = X.|} [ "p(1)"; "q(1)" ]

let test_minimize_single () =
  let r = solve "p(1). p(2). p(3). 1 { q(X) : p(X) }. #minimize { 1, X : q(X) }." in
  Alcotest.(check (list (pair int int))) "cost 1 at level 0" [ (0, 1) ] (costs_of r)

let test_minimize_lexicographic () =
  (* Level 2 wants a true (else cost 5); level 1 wants b false. *)
  let r =
    solve "{a}. {b}. cost1 :- not a. #minimize { 5@2 : cost1 }. #minimize { 3@1 : b }."
  in
  Alcotest.(check (list (pair int int))) "both optimal" [ (2, 0); (1, 0) ] (costs_of r);
  Alcotest.(check bool) "a chosen" true (List.mem "a" (atoms_of r))

let test_minimize_tradeoff () =
  (* Higher level dominates: paying 1 at level 1 to save 10 at level 2. *)
  let r =
    solve
      "{a}. pay :- a. save :- not a. #minimize { 10@2 : save }. #minimize { 1@1 : pay }."
  in
  Alcotest.(check (list (pair int int))) "lexicographic" [ (2, 0); (1, 1) ] (costs_of r)

let test_minimize_distinct_tuples () =
  (* Same tuple from two bodies counts once. *)
  let r = solve "a. b. c :- a. c :- b. #minimize { 7, fixed : c }." in
  Alcotest.(check (list (pair int int))) "counted once" [ (0, 7) ] (costs_of r)

let test_show_ignored () =
  check_atoms "show is skipped" "#show foo/1. a." [ "a" ]

(* ---- enumeration ---- *)

let test_enumerate_all () =
  let g = Asp.Ground.ground (Asp.parse "{a; b}. :- a, b.") in
  let models = Asp.Logic.enumerate g in
  (* {}, {a}, {b} *)
  Alcotest.(check int) "three models" 3 (List.length models);
  let keys =
    List.map
      (fun (m : Asp.Logic.model) ->
        List.map (fun (a : Asp.Ast.atom) -> a.Asp.Ast.pred) m.Asp.Logic.atoms
        |> List.sort String.compare |> String.concat ",")
      models
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "the right models" [ ""; "a"; "b" ] keys

let test_enumerate_limit () =
  let g = Asp.Ground.ground (Asp.parse "{a; b; c}.") in
  Alcotest.(check int) "limit respected" 4
    (List.length (Asp.Logic.enumerate ~limit:4 g));
  Alcotest.(check int) "all eight" 8 (List.length (Asp.Logic.enumerate g))

let test_enumerate_unsat () =
  let g = Asp.Ground.ground (Asp.parse "a. :- a.") in
  Alcotest.(check int) "no models" 0 (List.length (Asp.Logic.enumerate g))

(* ---- grounder details ---- *)

let test_grounding_counts () =
  let g = Asp.Ground.ground (Asp.parse "p(1). p(2). q(X) :- p(X). r(X,Y) :- p(X), p(Y).") in
  (* atoms: p1 p2 q1 q2 + r(1,1) r(1,2) r(2,1) r(2,2) *)
  Alcotest.(check int) "atom count" 8 (Asp.Ground.atom_count g)

let test_negative_literal_on_impossible_atom () =
  (* q can never hold, so p must be derivable. *)
  check_atoms "impossible negative" "p :- not q." [ "p" ]

(* Safe rules ground whatever the literal order: a negative literal or a
   comparison may come before the literal that binds its variables. *)
let test_safe_in_any_order () =
  check_atoms "negative first" "r(1). p(X) :- not q(X), r(X)." [ "r(1)"; "p(1)" ];
  check_atoms "equality first" "r(1). p(X) :- X = Y, r(Y)." [ "r(1)"; "p(1)" ];
  Alcotest.(check bool) "constraint, negative first" true
    (is_unsat (solve "r(1). :- not q(X), r(X)."));
  let r = solve "r(1). #minimize { 1@1,X : not q(X), r(X) }." in
  Alcotest.(check (list string)) "minimize, negative first" [ "r(1)" ] (atoms_of r);
  Alcotest.(check (list (pair int int))) "its cost" [ (1, 1) ] (costs_of r);
  let r = solve "r(1). #minimize { 1@1,X : X = Y, r(Y) }." in
  Alcotest.(check (list (pair int int))) "minimize, equality first" [ (1, 1) ] (costs_of r);
  check_atoms "no positive literal" "p(X) :- not q(X), X = 1." [ "p(1)" ];
  (* A choice element cannot carry a negated condition of its own. *)
  match solve "r(1). q(1). { s(X) : r(X), not q(X) }. :- not s(1)." with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negated choice-element condition should be a ground error"

(* Normal rules are emitted during the fixpoint, each instance as soon
   as its body completes, and the rest in a final pass. The ground
   program must not depend on the order in which statements, and so
   atoms, arrive: the sorted lines match a reference taken from a
   grounder that re-joined every statement over the finished atom set,
   for the program as written, reversed and shuffled. The program has a
   derived closure, heads with several derivations, a choice rule fed
   by facts, negation over a derived atom, a constraint and two
   minimize levels. *)
let mini_program =
  {|
    root(a). dep(a,b). dep(b,c). tag(base).
    decl(a,"1"). decl(b,"1"). decl(c,"1").
    bad("9").
    node(P) :- root(P).
    node(P) :- node(Q), dep(Q,P).
    { hash(P,H) : installed(P,H) } 1 :- node(P).
    version(P,V) :- hash(P,H), hash_ver(H,V).
    picked(P) :- hash(P,H).
    chosen_decl(P) :- node(P), decl(P,V), not picked(P).
    tagged(P,T) :- hash(P,H), tag(T).
    seen(V) :- hash_ver(H,V).
    :- version(P,V), bad(V).
    picked_w(P,1) :- picked(P).
    picked_w(P,5) :- chosen_decl(P).
    #minimize { W@1,P : picked_w(P,W) }.
    #minimize { 1@2,V : seen(V) }.
  |}

let mini_facts =
  List.concat
    (List.init 6 (fun i ->
         let p = Asp.Term.sym [| "a"; "b"; "c" |].(i mod 3) in
         let v = Asp.Term.str [| "1"; "2"; "3"; "9" |].(i mod 4) in
         let h = Asp.Term.str ("h" ^ string_of_int i) in
         List.map Asp.Ast.fact
           [ Asp.Ast.atom "installed" [ p; h ];
             Asp.Ast.atom "hash_ver" [ h; v ];
             Asp.Ast.atom "pool_ver" [ p; v ];
             Asp.Ast.atom "tag" [ Asp.Term.sym "shared" ] ]))

(* A choice head's elements form a set; they print in the order the
   element join meets them, which follows atom ids, so sort them. *)
let canonical_line l =
  match (String.index_opt l '{', String.index_opt l '}') with
  | Some i, Some j ->
    let elems = String.split_on_char ',' (String.sub l (i + 1) (j - i - 1)) in
    let elems = List.sort String.compare (List.map String.trim elems) in
    String.sub l 0 (i + 1) ^ String.concat "," elems ^ String.sub l j (String.length l - j)
  | _ -> l

let sorted_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map canonical_line
  |> List.sort String.compare

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let test_single_pass_emission () =
  (* under [dune runtest] the file sits in the working directory; under
     [dune exec] from the repository root, in test/ *)
  let file =
    List.find Sys.file_exists [ "mini_ground.expected"; "test/mini_ground.expected" ]
  in
  let expected = sorted_lines (In_channel.with_open_text file In_channel.input_all) in
  let prog = Asp.parse mini_program @ mini_facts in
  let check name prog =
    Alcotest.(check (list string)) name expected
      (sorted_lines (Format.asprintf "%a" Asp.Ground.pp (Asp.Ground.ground prog)))
  in
  check "as written" prog;
  check "reversed" (List.rev prog);
  List.iter (fun seed -> check (Printf.sprintf "shuffle %d" seed) (shuffle seed prog)) [ 1; 2; 3 ]

(* ---- brute-force stable-model fuzz ---- *)

let prop_stable_equiv =
  QCheck.Test.make ~name:"solver agrees with brute-force stable models" ~count:400
    Stable_ref.arb_program Stable_ref.agrees_with_brute_force

(* The restricted check (positive loops only) accepts exactly the
   supported interpretations the full check accepts, and what it
   reports is part of the full unfounded set. *)
let prop_restricted_check =
  QCheck.Test.make ~name:"restricted stability check matches the full one" ~count:400
    Stable_ref.arb_program (fun p ->
      let g = Asp.Ground.ground (Asp.parse (Stable_ref.program_text p)) in
      let loops = Asp.Logic.loops g in
      List.for_all
        (fun truth ->
          let restricted = Asp.Logic.unfounded loops truth in
          let full = Stable_ref.full_unfounded g truth in
          (restricted = []) = (full = [])
          && List.for_all (fun id -> List.mem id full) restricted)
        (Stable_ref.supported_interpretations g))

let () =
  Alcotest.run "asp"
    [ ( "parser",
        [ Alcotest.test_case "program" `Quick test_parser;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "safety" `Quick test_safety ] );
      ( "semantics",
        [ Alcotest.test_case "facts and rules" `Quick test_facts_and_rules;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "unfounded loop" `Quick test_positive_loop_unfounded;
          Alcotest.test_case "supported loop" `Quick test_loop_with_external_support;
          Alcotest.test_case "loop needs external support" `Quick
            test_loop_needs_external_support;
          Alcotest.test_case "odd loop" `Quick test_odd_loop;
          Alcotest.test_case "choice bounds" `Quick test_choice_bounds;
          Alcotest.test_case "constraints on choice" `Quick test_constraints_on_choice;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "strings and functions" `Quick test_strings_and_functions;
          Alcotest.test_case "equality binding" `Quick test_eq_binding;
          Alcotest.test_case "impossible negative" `Quick
            test_negative_literal_on_impossible_atom;
          Alcotest.test_case "safe in any literal order" `Quick test_safe_in_any_order ] );
      ( "optimization",
        [ Alcotest.test_case "single level" `Quick test_minimize_single;
          Alcotest.test_case "lexicographic" `Quick test_minimize_lexicographic;
          Alcotest.test_case "tradeoff" `Quick test_minimize_tradeoff;
          Alcotest.test_case "distinct tuples" `Quick test_minimize_distinct_tuples;
          Alcotest.test_case "show ignored" `Quick test_show_ignored ] );
      ( "grounder",
        [ Alcotest.test_case "counts" `Quick test_grounding_counts;
          Alcotest.test_case "single-pass emission" `Quick test_single_pass_emission ] );
      ( "enumeration",
        [ Alcotest.test_case "all models" `Quick test_enumerate_all;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "unsat" `Quick test_enumerate_unsat ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_stable_equiv;
          QCheck_alcotest.to_alcotest prop_restricted_check ] ) ]
