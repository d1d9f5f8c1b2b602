(* Properties of the glucose-class CDCL core ([Asp.Sat]: clause arena,
   blocking-literal watchers, LBD-driven learnt-DB reduction, EMA
   restarts, target-phase rephasing). The oracles are brute force over
   instances of at most 10 variables and the independent DRUP checker:

   - the core agrees with brute force on satisfiability for random
     CNF+PB instances, and every model it returns satisfies the
     instance;
   - an incrementally reused solver (learnt clauses retained across
     assumption sets, reductions forced between solves) agrees with
     brute force on every query;
   - every UNSAT answer certifies with the independent DRUP checker,
     with reductions forced so the proofs carry P_delete steps;
   - reduce_db keeps locked (reason) clauses: conflict-heavy UNSAT
     searches under a 1-clause reduction interval run to completion
     with the reduce/GC invariant asserts live, and still certify;
   - rephasing gets a single solver out of a phase trap. *)

module S = Asp.Sat

(* ---- random CNF+PB instances (as in test_sat.ml, a size up) ---- *)

let brute nvars clauses pbs =
  let rec go i assign =
    if i = nvars then
      List.for_all
        (fun c -> List.exists (fun l -> (l land 1 = 0) = assign.(l lsr 1)) c)
        clauses
      && List.for_all
           (fun (wl, b) ->
             List.fold_left
               (fun acc (w, l) ->
                 if (l land 1 = 0) = assign.(l lsr 1) then acc + w else acc)
               0 wl
             <= b)
           pbs
    else begin
      assign.(i) <- false;
      if go (i + 1) assign then true
      else begin
        assign.(i) <- true;
        go (i + 1) assign
      end
    end
  in
  go 0 (Array.make nvars false)

let check_model clauses pbs value =
  List.for_all (fun c -> List.exists (fun l -> (l land 1 = 0) = value (l lsr 1)) c) clauses
  && List.for_all
       (fun (wl, b) ->
         List.fold_left
           (fun acc (w, l) -> if (l land 1 = 0) = value (l lsr 1) then acc + w else acc)
           0 wl
         <= b)
       pbs

let gen_instance =
  QCheck.Gen.(
    let* nvars = int_range 3 10 in
    let lit = map2 (fun v s -> (2 * v) + s) (int_range 0 (nvars - 1)) (int_range 0 1) in
    let* clauses = list_size (int_range 0 24) (list_size (int_range 1 4) lit) in
    let* pbs =
      list_size (int_range 0 3)
        (let* wl = list_size (int_range 1 4) (pair (int_range 1 3) lit) in
         let total = List.fold_left (fun a (w, _) -> a + w) 0 wl in
         let* b = int_range 0 total in
         return (wl, b))
    in
    return (nvars, clauses, pbs))

let print_instance (n, cs, pbs) =
  Printf.sprintf "nvars=%d clauses=%s pbs=%s" n
    (String.concat "|" (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs))
    (String.concat "|"
       (List.map
          (fun (wl, b) ->
            Printf.sprintf "%s<=%d"
              (String.concat ","
                 (List.map (fun (w, l) -> Printf.sprintf "%d*%d" w l) wl))
              b)
          pbs))

let arb_instance = QCheck.make ~print:print_instance gen_instance

(* assumption sets alongside an instance, for the incremental prop *)
let arb_instance_assumps =
  QCheck.make
    ~print:(fun (inst, sets) ->
      print_instance inst ^ " assumps="
      ^ String.concat ";"
          (List.map (fun s -> String.concat "," (List.map string_of_int s)) sets))
    QCheck.Gen.(
      let* ((nvars, _, _) as inst) = gen_instance in
      let lit =
        map2 (fun v s -> (2 * v) + s) (int_range 0 (nvars - 1)) (int_range 0 1)
      in
      let* sets = list_size (int_range 1 6) (list_size (int_range 0 3) lit) in
      return (inst, sets))

let build ?proof ?reduce ((nvars, clauses, pbs) : int * int list list * ((int * int) list * int) list) =
  let s = S.create () in
  (match proof with Some true -> S.enable_proof s | _ -> ());
  (match reduce with Some n -> S.set_reduce_interval s n | None -> ());
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  List.iter (fun (wl, b) -> S.add_pb_le s wl b) pbs;
  s

(* ---- 1. agreement with brute force ---- *)

let prop_brute_agrees =
  QCheck.Test.make ~name:"glucose core agrees with brute force"
    ~count:600 arb_instance (fun ((nvars, clauses, pbs) as inst) ->
      let s = build inst in
      let sat_s = S.solve s in
      if sat_s <> brute nvars clauses pbs then
        QCheck.Test.fail_reportf "core says %b, brute force disagrees" sat_s
      else (not sat_s) || check_model clauses pbs (S.value s))

(* ---- 2. incremental reuse with forced reductions ---- *)

(* Assumptions are unit clauses to the brute-force oracle. *)
let prop_incremental_agrees =
  QCheck.Test.make
    ~name:"reused solver (reductions forced) agrees with brute force"
    ~count:300 arb_instance_assumps (fun (((nvars, clauses, pbs) as inst), sets) ->
      let s = build ~reduce:1 inst in
      List.for_all
        (fun assumptions ->
          let sat_s = S.solve ~assumptions s in
          let clauses = List.map (fun l -> [ l ]) assumptions @ clauses in
          if sat_s <> brute nvars clauses pbs then
            QCheck.Test.fail_reportf
              "assumptions [%s]: reused solver says %b, brute force disagrees"
              (String.concat "," (List.map string_of_int assumptions))
              sat_s
          else (not sat_s) || check_model clauses pbs (S.value s))
        sets)

(* ---- 3. every UNSAT certifies, with deletions ---- *)

let prop_unsat_certifies =
  QCheck.Test.make ~name:"UNSAT certifies under Glucose restarts with reductions"
    ~count:300 arb_instance (fun inst ->
      let s = build ~proof:true ~reduce:1 inst in
      if S.solve s then true
      else
        match S.proof s with
        | None -> false
        | Some steps -> (
          match Fuzz.Drup.check steps with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "proof rejected: %s" e))

(* ---- 4. reductions under a conflict-heavy search ---- *)

(* PHP(pigeons, holes): every pigeon in some hole, no hole shared. *)
let add_php s pigeons holes =
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> S.new_var s))
  in
  for i = 0 to pigeons - 1 do
    S.add_clause s (Array.to_list (Array.map S.pos v.(i)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        S.add_clause s [ S.neg v.(i).(j); S.neg v.(k).(j) ]
      done
    done
  done

let stat s k = match List.assoc_opt k (S.stats s) with Some x -> x | None -> 0

let check_certified what s =
  match S.proof s with
  | None -> Alcotest.fail "no proof recorded"
  | Some steps -> (
    match Fuzz.Drup.check steps with
    | Ok () -> ()
    | Error e -> Alcotest.fail (what ^ " rejected: " ^ e))

(* PHP(n+1, n): forces thousands of conflicts, so a 1-clause reduction
   interval exercises reduce_db (and the arena GC behind it) hundreds
   of times while reason clauses are pinned on the trail — the
   solver's internal asserts are live in the dev profile. The
   deletion-bearing proof must still certify. *)
let test_php_under_reduction () =
  let s = S.create () in
  S.enable_proof s;
  S.set_reduce_interval s 1;
  add_php s 7 6;
  Alcotest.(check bool) "php unsat" false (S.solve s);
  let g = stat s in
  Alcotest.(check bool) "reductions happened" true (g "reduces" > 0);
  Alcotest.(check bool) "clauses were removed" true (g "removed" > 0);
  Alcotest.(check bool) "live learnt DB stays below total learnt" true
    (g "learnt_db" < g "learnts");
  Alcotest.(check bool) "recursive minimization stripped literals" true
    (g "minimized" > 0);
  let deletes =
    match S.proof s with
    | None -> 0
    | Some steps ->
      List.length
        (List.filter (function S.P_delete _ -> true | _ -> false) steps)
  in
  Alcotest.(check bool) "proof carries deletions" true (deletes > 0);
  check_certified "deletion-bearing proof" s

(* ---- 5. budget preemption ---- *)

(* PHP(7,6) needs thousands of conflicts, so a small conflict cap must
   preempt the search mid-flight. Preemption unwinds the trail to
   level 0 and leaves the solver reusable: clearing the budget and
   re-solving the same instance runs to the real UNSAT answer. *)
let check_budget_preempt () =
  (* conflict cap: preempted at (not after) the cap *)
  let s = S.create () in
  add_php s 7 6;
  S.set_budget s (Some { S.b_conflicts = Some 100; b_stop = None });
  (match S.solve s with
  | _ -> Alcotest.fail "a 100-conflict budget did not preempt PHP(7,6)"
  | exception S.Timeout -> ());
  Alcotest.(check bool) "preempted promptly (within the conflict cap)" true
    (stat s "conflicts" <= 100);
  (* reusable after preemption: clear the budget, run to completion *)
  S.set_budget s None;
  Alcotest.(check bool) "solver reusable after preemption: PHP still UNSAT"
    false (S.solve s);
  (* external stop probe (the server's deadline mechanism): polled
     every [stop_poll_interval] conflicts, so an immediately-true
     probe preempts within one interval *)
  let s2 = S.create () in
  add_php s2 7 6;
  let polls = ref 0 in
  S.set_budget s2
    (Some
       { S.b_conflicts = None;
         b_stop =
           Some
             (fun () ->
               incr polls;
               true) });
  (match S.solve s2 with
  | _ -> Alcotest.fail "an always-true stop probe did not preempt"
  | exception S.Timeout -> ());
  Alcotest.(check bool) "stop probe was consulted" true (!polls >= 1);
  Alcotest.(check bool) "stop preemption within one poll interval" true
    (stat s2 "conflicts" <= S.stop_poll_interval);
  S.set_budget s2 None;
  Alcotest.(check bool) "reusable after stop preemption" false (S.solve s2)

(* ---- 6. rephasing ---- *)

(* PHP(11,10) with a relaxer literal r disjoined into every clause:
   r = true satisfies everything, but the default negative polarity
   keeps r false, so the solver walks into the pigeonhole refutation
   first. Only rephasing flips r back; without it no answer comes
   within 200k conflicts. *)
let test_rephase_escapes_trap () =
  let s = S.create () in
  let pigeons = 11 and holes = 10 in
  let v i j = (i * holes) + j in
  for _ = 0 to pigeons * holes do
    ignore (S.new_var s)
  done;
  let r = S.pos (pigeons * holes) in
  for i = 0 to pigeons - 1 do
    S.add_clause s (r :: List.init holes (fun j -> S.pos (v i j)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        S.add_clause s [ r; S.neg (v i j); S.neg (v k j) ]
      done
    done
  done;
  S.set_budget s (Some { S.b_conflicts = Some 10_000; b_stop = None });
  (match S.solve s with
  | true -> ()
  | false -> Alcotest.fail "relaxed PHP(11,10) came back UNSAT"
  | exception S.Timeout ->
    Alcotest.fail "relaxed PHP(11,10) still trapped after 10,000 conflicts");
  Alcotest.(check bool) "rephased at least once" true (stat s "rephases" >= 1)

(* PHP(8,7) runs past the first rephase checkpoint (1000 conflicts);
   a rephase only changes the search order, so the refutation must
   still certify. *)
let test_php_rephase_certifies () =
  let s = S.create () in
  S.enable_proof s;
  add_php s 8 7;
  Alcotest.(check bool) "php unsat" false (S.solve s);
  Alcotest.(check bool) "rephased at least once" true (stat s "rephases" >= 1);
  check_certified "rephased proof" s

(* ---- 7. Drup checker under deletion-heavy proofs ---- *)

(* 12k real deletions (every one a live database hit) followed by a
   two-unit contradiction. The checker's hashed clause-key index makes
   this near-linear; the pre-index tombstone scan was quadratic here.
   The generous wall-clock bound documents the regression without
   being load-sensitive. *)
let test_drup_many_deletions () =
  let n = 12_000 in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  for i = 0 to n - 1 do
    push (S.P_input [ S.pos (3 * i); S.pos ((3 * i) + 1); S.pos ((3 * i) + 2) ])
  done;
  for i = 0 to n - 1 do
    push
      (S.P_delete [ S.pos (3 * i); S.pos ((3 * i) + 1); S.pos ((3 * i) + 2) ])
  done;
  let contra = 3 * n in
  push (S.P_input [ S.pos contra ]);
  push (S.P_input [ S.neg contra ]);
  let t0 = Unix.gettimeofday () in
  (match Fuzz.Drup.check (List.rev !steps) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("deletion-heavy proof rejected: " ^ e));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "12k deletions checked in %.3fs (< 5s)" dt)
    true (dt < 5.0)

(* ---- 8. The stat snapshot ---- *)

(* [stats] lists the nine counters, then the five gauges, always in
   this order; [stats_delta] differences the counters against an
   earlier snapshot and reports the gauges as they are. The earlier
   snapshot here sits one below every value, so a counter reads 1 and a
   gauge its own value, whatever the search did. *)
let test_stats_delta () =
  let s = S.create () in
  S.set_reduce_interval s 1;
  add_php s 7 6;
  Alcotest.(check bool) "php unsat" false (S.solve s);
  let counters =
    [ "conflicts"; "decisions"; "propagations"; "learnts"; "restarts";
      "reduces"; "removed"; "minimized"; "rephases" ]
  and gauges = [ "clauses"; "pbs"; "vars"; "learnt_db"; "arena_words" ] in
  let now = S.stats s in
  Alcotest.(check (list string)) "keys in order" (counters @ gauges)
    (List.map fst now);
  Alcotest.(check bool) "the search counted" true
    (stat s "conflicts" > 0 && stat s "reduces" > 0);
  let before = List.map (fun (k, v) -> (k, v - 1)) now in
  Alcotest.(check (list (pair string int))) "counters differenced, gauges absolute"
    (List.map (fun (k, v) -> (k, if List.mem k counters then 1 else v)) now)
    (S.stats_delta ~before s)

let () =
  Alcotest.run "sat_core"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_brute_agrees;
          QCheck_alcotest.to_alcotest prop_incremental_agrees ] );
      ( "rephasing",
        [ Alcotest.test_case "relaxed PHP(11,10) escapes the trap" `Quick
            test_rephase_escapes_trap;
          Alcotest.test_case "PHP(8,7) rephases, proof certifies" `Quick
            test_php_rephase_certifies ] );
      ( "proofs",
        [ QCheck_alcotest.to_alcotest prop_unsat_certifies;
          Alcotest.test_case "12k-deletion proof stays near-linear" `Quick
            test_drup_many_deletions ] );
      ( "reduction",
        [ Alcotest.test_case "PHP under 1-clause reduce interval" `Quick
            test_php_under_reduction ] );
      ( "budget",
        [ Alcotest.test_case "PHP preempted under Glucose restarts" `Quick
            check_budget_preempt ] );
      ( "stats",
        [ Alcotest.test_case "snapshot order; delta differences counters"
            `Quick test_stats_delta ] ) ]
