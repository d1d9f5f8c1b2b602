(* A fixed-seed slice of the fuzzing harness, fast enough for the
   ordinary test suite:

   - a clean run over random universes finds no violations, and
     certifies at least one UNSAT along the way;
   - an injected solver bug (dropping PB constraints) is caught by the
     oracles and shrunk to a tiny reproducer;
   - a skipped stability check is caught by the brute-force
     stable-model oracle;
   - a tampered proof is rejected by the DRUP checker (the checker is
     not a rubber stamp). *)

let rounds = 10

let test_clean () =
  let report = Fuzz.Harness.run ~seed:42 ~rounds () in
  (match report.Fuzz.Harness.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "clean run found violations: %s"
      (String.concat "; " f.Fuzz.Harness.violations));
  let stats = report.Fuzz.Harness.stats in
  Alcotest.(check bool) "some solutions verified" true (stats.Fuzz.Oracle.sat_verified > 0);
  Alcotest.(check bool) "some UNSATs certified" true (stats.Fuzz.Oracle.unsat_certified > 0);
  Alcotest.(check bool) "brute force cross-checked" true (stats.Fuzz.Oracle.brute_confirmed > 0);
  Alcotest.(check bool) "encodings compared" true (stats.Fuzz.Oracle.encodings_agreed > 0)

let test_injected_pb_caught () =
  let report =
    Fuzz.Harness.run ~inject:Fuzz.Harness.Drop_pb ~seed:42 ~rounds:3 ()
  in
  match report.Fuzz.Harness.failures with
  | [] -> Alcotest.fail "injected PB bug was not caught"
  | f :: _ ->
    Alcotest.(check bool)
      "shrunk to <= 5 packages" true
      (Fuzz.Gen.size f.Fuzz.Harness.shrunk <= 5);
    Alcotest.(check bool)
      "shrunk universe still fails" true
      (f.Fuzz.Harness.shrunk_violations <> [])

(* A skipped stability check only shows on a positive loop whose
   external support can be false: phase 1 of the grounder never marks
   a loop without external support possible. The harness's package
   universes rarely reach such a loop; small random programs do, so
   compare their answers with brute-force stable models under the
   hook. *)
let test_injected_unfounded_caught () =
  let rand = Random.State.make [| 42 |] in
  let programs = QCheck.Gen.generate ~rand ~n:400 Stable_ref.gen_program in
  Alcotest.(check bool)
    "clean solver agrees" true
    (List.for_all Stable_ref.agrees_with_brute_force programs);
  Asp.Logic.hook_skip_unfounded := true;
  let caught =
    Fun.protect
      ~finally:(fun () -> Asp.Logic.hook_skip_unfounded := false)
      (fun () ->
        List.exists (fun p -> not (Stable_ref.agrees_with_brute_force p)) programs)
  in
  Alcotest.(check bool) "skipped stability check caught" true caught

(* Build an UNSAT instance, then mutate its proof: the independent
   checker must reject both a truncated refutation and a lemma that
   does not follow from its PB constraint. *)
let test_tampered_proof_rejected () =
  let s = Asp.Sat.create () in
  Asp.Sat.enable_proof s;
  let a = Asp.Sat.new_var s and b = Asp.Sat.new_var s in
  Asp.Sat.add_pb_le s [ (2, Asp.Sat.pos a); (2, Asp.Sat.pos b) ] 3;
  Asp.Sat.add_clause s [ Asp.Sat.pos a ];
  Asp.Sat.add_clause s [ Asp.Sat.pos b ];
  Alcotest.(check bool) "instance is unsat" false (Asp.Sat.solve s);
  let steps = match Asp.Sat.proof s with Some st -> st | None -> Alcotest.fail "no proof" in
  Alcotest.(check bool) "genuine proof accepted" true (Fuzz.Drup.check steps = Ok ());
  Alcotest.(check bool) "proof uses a PB lemma" true
    (List.exists (function Asp.Sat.P_pb_lemma _ -> true | _ -> false) steps);
  (* remove the last trusted input: the refutation no longer follows *)
  let weakened =
    let rec drop_first_input = function
      | [] -> []
      | Asp.Sat.P_input _ :: rest -> rest
      | step :: rest -> step :: drop_first_input rest
    in
    List.rev (drop_first_input (List.rev steps))
  in
  Alcotest.(check bool) "weakened proof rejected" true
    (Fuzz.Drup.check weakened <> Ok ());
  let corrupted =
    List.map
      (function
        | Asp.Sat.P_pb_lemma (k, lits) ->
          (* claim a weaker clause than the constraint supports *)
          Asp.Sat.P_pb_lemma (k, List.filteri (fun i _ -> i = 0) lits)
        | step -> step)
      steps
  in
  Alcotest.(check bool) "corrupted lemma rejected" true
    (match Fuzz.Drup.check corrupted with Ok () -> false | Error _ -> true)

(* Determinism: the same (seed, round) pair always produces the same
   universe, so failure reports are reproducible. *)
let test_deterministic () =
  let u1 = Fuzz.Harness.universe ~seed:7 ~round:3 in
  let u2 = Fuzz.Harness.universe ~seed:7 ~round:3 in
  Alcotest.(check string) "same universe" (Fuzz.Gen.to_ocaml u1) (Fuzz.Gen.to_ocaml u2);
  let u3 = Fuzz.Harness.universe ~seed:8 ~round:3 in
  Alcotest.(check bool) "different seed, different universe" true
    (Fuzz.Gen.to_ocaml u1 <> Fuzz.Gen.to_ocaml u3)

let () =
  Alcotest.run "fuzz_smoke"
    [ ( "harness",
        [ Alcotest.test_case "clean run" `Quick test_clean;
          Alcotest.test_case "injected bug caught" `Quick test_injected_pb_caught;
          Alcotest.test_case "skipped stability check caught" `Quick
            test_injected_unfounded_caught;
          Alcotest.test_case "tampered proof rejected" `Quick
            test_tampered_proof_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic ] ) ]
