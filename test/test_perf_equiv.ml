(* Performance-stack equivalence properties (reuse-pool pruning, batch
   determinism) over random fuzz universes: the fast paths must be
   observationally equivalent to the plain from-scratch solver.

   - pruning: closure-filtered encodes agree with unpruned encodes on
     solvability, optimal costs, and the solution DAG.
   - batch: concretize_batch is byte-identical for any domain count. *)

module CC = Core.Concretizer

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

let prop_prune_parity =
  QCheck.Test.make ~name:"pruned solves agree with unpruned solves (glucose)"
    ~count:20 arb_universe (fun seed ->
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

(* ---- 2. batch determinism ---- *)

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

let test_batch_determinism () =
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
    (render_batch par);
  (* More jobs than cores run on one domain per core, and the batch
     span records the count that ran. *)
  let obs = Obs.create () in
  let wide = CC.concretize_batch ~repo ~options:{ opts with CC.obs } ~jobs:64 requests in
  Alcotest.(check string) "jobs=1 and jobs=64 byte-identical" (render_batch seq)
    (render_batch wide);
  match
    List.find_map
      (function
        | Obs.Span { name = "batch"; attrs; _ } -> List.assoc_opt "jobs" attrs
        | _ -> None)
      (Obs.events obs)
  with
  | Some (Obs.I jobs) ->
    Alcotest.(check bool)
      (Printf.sprintf "batch ran %d domains on %d cores" jobs
         (Domain.recommended_domain_count ()))
      true
      (jobs >= 1 && jobs <= Domain.recommended_domain_count ())
  | _ -> Alcotest.fail "no batch span with a jobs attribute"

let () =
  Alcotest.run "perf_equiv"
    [ ( "equivalence-glucose",
        [ QCheck_alcotest.to_alcotest prop_prune_parity;
          Alcotest.test_case "batch determinism (glucose)" `Quick
            test_batch_determinism ] ) ]
