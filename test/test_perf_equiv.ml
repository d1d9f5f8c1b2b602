(* Performance-stack equivalence properties (reuse-pool pruning,
   portfolio racing, parallel grounding, batch determinism) over random
   fuzz universes: the fast paths must be observationally equivalent to
   the plain from-scratch solver.

   - pruning: closure-filtered encodes agree with unpruned encodes on
     solvability, optimal costs, and the solution DAG.
   - portfolio: raced solves are byte-identical to single-solver ones.
   - grounding: the parallel grounder is byte-identical to the serial
     one for any job count.
   - batch: concretize_batch is byte-identical for any domain count. *)

module CC = Core.Concretizer

(* every property runs under both of the SAT core's restart policies:
   the performance fast paths must be mode-independent *)
let with_mode mode f =
  let old = !Asp.Sat.default_restart_mode in
  Asp.Sat.default_restart_mode := mode;
  Fun.protect ~finally:(fun () -> Asp.Sat.default_restart_mode := old) f

let mode_name = function Asp.Sat.Glucose -> "glucose" | Asp.Sat.Luby -> "luby"

let options ?(splicing = false) ?(reuse = []) ~prune () =
  { CC.default_options with CC.splicing; reuse; prune }

let concretize ~repo ~options text =
  CC.concretize_v ~repo ~options [ Core.Encode.request_of_string text ]

let root_spec (o : CC.outcome) = List.hd o.CC.solution.Core.Decode.specs

let costs (o : CC.outcome) = o.CC.stats.CC.costs

let pp_costs cs =
  String.concat "," (List.map (fun (p, c) -> Printf.sprintf "%d@%d" c p) cs)

(* The reuse pool of a universe: its cache roots, concretized. *)
let pool_of ~repo (u : Fuzz.Gen.t) =
  List.filter_map
    (fun r ->
      match concretize ~repo ~options:(options ~prune:false ()) r with
      | Ok o -> Some (root_spec o)
      | Error _ -> None)
    u.Fuzz.Gen.u_cache_roots

let has_splices (u : Fuzz.Gen.t) =
  List.exists (fun (p : Fuzz.Gen.upkg) -> p.Fuzz.Gen.up_splices <> []) u.Fuzz.Gen.u_pkgs

let verify_clean ~repo ~request spec =
  Core.Verify.check_solution ~repo ~request:(Spec.Parser.parse request) spec = []

let arb_universe =
  QCheck.make
    ~print:(fun seed -> Fuzz.Gen.to_ocaml (Fuzz.Gen.generate (Fuzz.Rng.create seed)))
    QCheck.Gen.(int_range 0 1_000_000)

(* ---- 1. pruned vs unpruned fresh solves ---- *)

let prop_prune_parity mode =
  QCheck.Test.make
    ~name:("pruned solves agree with unpruned solves (" ^ mode_name mode ^ ")")
    ~count:20 arb_universe (fun seed ->
      with_mode mode @@ fun () ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let reuse = pool_of ~repo u in
      let splicing = has_splices u in
      List.for_all
        (fun r ->
          let unpruned =
            concretize ~repo ~options:(options ~splicing ~reuse ~prune:false ()) r
          in
          let pruned =
            concretize ~repo ~options:(options ~splicing ~reuse ~prune:true ()) r
          in
          match (unpruned, pruned) with
          | Ok a, Ok b ->
            if costs a <> costs b then
              QCheck.Test.fail_reportf
                "request %s: pruning changed costs (%s vs %s)" r (pp_costs (costs a))
                (pp_costs (costs b))
            else if
              Spec.Concrete.dag_hash (root_spec a)
              <> Spec.Concrete.dag_hash (root_spec b)
            then
              QCheck.Test.fail_reportf "request %s: pruning changed the DAG" r
            else if not (verify_clean ~repo ~request:r (root_spec b)) then
              QCheck.Test.fail_reportf "request %s: pruned solution invalid" r
            else true
          | Error _, Error _ -> true
          | Ok _, Error f ->
            QCheck.Test.fail_reportf "request %s: pruning broke a SAT request: %s" r
              f.CC.f_message
          | Error f, Ok _ ->
            QCheck.Test.fail_reportf
              "request %s: pruning fixed an UNSAT request (%s)" r f.CC.f_message)
        u.Fuzz.Gen.u_requests)

(* ---- 2. portfolio vs single-solver solves ---- *)

(* The byte-identity promise of [options.portfolio]: a raced solve must
   return the same solvability, the same optimal costs, and the same
   solution DAG (dag_hash) as the single-solver run — racing may only
   change wall time. *)
let prop_portfolio_parity mode =
  QCheck.Test.make
    ~name:
      ("portfolio=4 solves are byte-identical to portfolio=1 ("
     ^ mode_name mode ^ ")")
    ~count:10 arb_universe (fun seed ->
      with_mode mode @@ fun () ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let reuse = pool_of ~repo u in
      let splicing = has_splices u in
      let opts = options ~splicing ~reuse ~prune:true () in
      List.for_all
        (fun r ->
          let single = concretize ~repo ~options:opts r in
          let raced =
            concretize ~repo ~options:{ opts with CC.portfolio = 4 } r
          in
          match (single, raced) with
          | Ok a, Ok b ->
            if costs a <> costs b then
              QCheck.Test.fail_reportf
                "request %s: portfolio costs %s, single costs %s" r
                (pp_costs (costs b))
                (pp_costs (costs a))
            else if
              Spec.Concrete.dag_hash (root_spec a)
              <> Spec.Concrete.dag_hash (root_spec b)
            then
              QCheck.Test.fail_reportf "request %s: portfolio changed the DAG" r
            else true
          | Error a, Error b ->
            a.CC.f_message = b.CC.f_message
            || QCheck.Test.fail_reportf
                 "request %s: failure messages differ: %S vs %S" r
                 a.CC.f_message b.CC.f_message
          | Ok _, Error f ->
            QCheck.Test.fail_reportf
              "request %s: single SAT but portfolio failed: %s" r
              f.CC.f_message
          | Error f, Ok _ ->
            QCheck.Test.fail_reportf
              "request %s: portfolio SAT but single failed: %s" r
              f.CC.f_message)
        (u.Fuzz.Gen.u_requests @ u.Fuzz.Gen.u_cache_roots))

(* ---- 3. parallel grounding determinism ---- *)

(* A miniature concretizer-shaped program: derived node closure, a
   choice rule whose elements come from installed facts, negation over
   a derived atom, a constraint and two minimize layers. *)
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

let test_ground_jobs_determinism () =
  let prog = Asp.parse mini_program @ mini_facts in
  let render g =
    Format.asprintf "%d@.%a" (Asp.Ground.atom_count g) Asp.Ground.pp g
  in
  let reference = render (Asp.Ground.ground ~jobs:1 prog) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "ground --jobs %d byte-identical" jobs)
        reference
        (render (Asp.Ground.ground ~jobs prog)))
    [ 2; 3; 4 ]

(* ---- 4. batch determinism ---- *)

let render_batch results =
  String.concat "\n"
    (List.map
       (function
         | Ok (o : CC.outcome) ->
           Printf.sprintf "ok %s %s"
             (Spec.Concrete.dag_hash (root_spec o))
             (pp_costs (costs o))
         | Error (f : CC.failure) -> "error " ^ f.CC.f_message)
       results)

let test_batch_determinism mode () =
  with_mode mode @@ fun () ->
  let u = Fuzz.Gen.generate (Fuzz.Rng.create 42) in
  let repo = Fuzz.Gen.to_repo u in
  let reuse = pool_of ~repo u in
  let requests =
    List.concat (List.init 3 (fun _ -> u.Fuzz.Gen.u_requests @ u.Fuzz.Gen.u_cache_roots))
    |> List.map Core.Encode.request_of_string
  in
  let opts = options ~reuse ~prune:true () in
  let seq = CC.concretize_batch ~repo ~options:opts ~jobs:1 requests in
  let par = CC.concretize_batch ~repo ~options:opts ~jobs:4 requests in
  Alcotest.(check int) "one result per request" (List.length requests) (List.length seq);
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" (render_batch seq)
    (render_batch par)

let () =
  Alcotest.run "perf_equiv"
    (( "layered-grounding",
       [ Alcotest.test_case "parallel grounding determinism" `Quick
           test_ground_jobs_determinism ] )
    :: List.map
         (fun mode ->
           ( "equivalence-" ^ mode_name mode,
             [ QCheck_alcotest.to_alcotest (prop_prune_parity mode);
               QCheck_alcotest.to_alcotest (prop_portfolio_parity mode);
               Alcotest.test_case
                 ("batch determinism (" ^ mode_name mode ^ ")")
                 `Quick (test_batch_determinism mode) ] ))
         [ Asp.Sat.Glucose; Asp.Sat.Luby ])
