(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (6).

     dune exec bench/main.exe -- table1          Table 1 (spec syntax)
     dune exec bench/main.exe -- fig5            RQ1: encoding overhead
     dune exec bench/main.exe -- fig6            RQ2/RQ3: splicing
     dune exec bench/main.exe -- fig7            RQ4: candidate scaling, plus
                                                 buildcache-pool scaling
                                                 (unpruned vs pruned; writes
                                                 BENCH_fig7.json; tiers via
                                                 --sizes)
     dune exec bench/main.exe -- ablate          design-choice ablations
     dune exec bench/main.exe -- micro           bechamel substrate micro-benches
     dune exec bench/main.exe -- resil-smoke     mirror-layer fault-injection smoke
     dune exec bench/main.exe -- perf-smoke      small pool-scaling config + batch
                                                 determinism (also: dune build
                                                 @perf-smoke)
     dune exec bench/main.exe -- sat-smoke       glucose-class SAT core: conflict
                                                 and calibrated time gates,
                                                 Verify-clean answers, bounded
                                                 learnt DB, certified PHP proof
                                                 (also: dune build @sat-smoke;
                                                 writes BENCH_sat.json)
     dune exec bench/main.exe -- obs-smoke       traced concretize+install: trace
                                                 parses, spans nest, disabled-path
                                                 overhead gate (also: dune build
                                                 @obs-smoke)
     dune exec bench/main.exe -- serve-smoke     resident solve server: 2000-request
                                                 replay over 4 worker domains,
                                                 byte-equivalence vs one-shot
                                                 solves, p50/p99 latency and
                                                 speedup-vs-stateless gates
                                                 (also: dune build
                                                 @serve-smoke; writes
                                                 BENCH_serve.json)
     dune exec bench/main.exe -- all             everything (the default)

   Knobs (anywhere on the command line):
     --reps N           repetitions per measurement (default 3; paper: 30)
     --public-nodes N   reusable-node pool size for the "public" cache
                        (default 800; the paper's public cache holds ~20k
                        specs — raise this if you have the minutes)
     --full             run all 32 objectives instead of the
                        representative subset
     --sizes N,N,...    buildcache-pool tiers for fig7's pool-scaling
                        section (default 50,200,1000,5000; the paper's
                        public cache calls for ...,20000 — above 5000
                        the unpruned mode is skipped and the pruned
                        wall is gated at 10 s)

   Absolute times are not comparable to the paper's (their substrate is
   clingo on a 96-core Icelake node; ours is a from-scratch OCaml ASP
   engine in a container) — the claims under test are the *relative*
   shapes: percent overheads, who wins, where things cross over. *)

let reps = ref 3
let public_nodes = ref 800
let quick = ref true
let fig7_sizes : int list option ref = ref None

let repo = Radiuss.Universe.repo ()

let quick_specs =
  [ "mfem"; "samrai"; "hypre"; "scr"; "visit"; "glvis"; "raja"; "zfp"; "py-shroud" ]

let objectives () = if !quick then quick_specs else Radiuss.Universe.top_level

let mpi_objectives () =
  List.filter (fun n -> List.mem n Radiuss.Universe.mpi_dependent) (objectives ())

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  let m = mean l in
  sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

(* Where a BENCH_*.json row was measured: the host's core count, the
   OCaml version and the rep count behind every best-of or median. *)
let host_json ?(reps = !reps) () =
  Sjson.Object
    [ ("cores", Sjson.Int (Domain.recommended_domain_count ()));
      ("ocaml", Sjson.String Sys.ocaml_version);
      ("reps", Sjson.Int reps) ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed_reps f =
  List.init !reps (fun _ ->
      let t0 = Obs.Clock.now_s () in
      f ();
      Obs.Clock.now_s () -. t0)

let pct_increase base new_ = (new_ -. base) /. base *. 100.0

let caches =
  lazy
    (let t0 = Obs.Clock.now_s () in
     let local = Radiuss.Caches.local ~repo () in
     let public, synthetic =
       Radiuss.Caches.public_scaled ~repo ~configs:3 ~target_nodes:!public_nodes ()
     in
     let public_pool = Radiuss.Caches.reusable_specs public @ synthetic in
     Printf.printf
       "[setup] local cache: %d node entries; public pool: %d specs / ~%d nodes; built in %.1fs\n%!"
       (Radiuss.Caches.node_count local)
       (List.length public_pool) !public_nodes
       (Obs.Clock.now_s () -. t0);
     (local, public_pool))

let local_pool () = Radiuss.Caches.reusable_specs (fst (Lazy.force caches))
let public_pool () = snd (Lazy.force caches)

let concretize ?(encoding = Core.Encode.Hash_attr) ?(splicing = false) ~pool requests =
  let options =
    { Core.Concretizer.default_options with
      Core.Concretizer.encoding;
      splicing;
      reuse = pool }
  in
  Core.Concretizer.concretize ~repo ~options requests

(* ------------------------------------------------------------------ *)

let table1 () =
  Printf.printf "\n=== Table 1: spec syntax ===\n";
  Printf.printf "%-24s %-28s %s\n" "Example" "Meaning" "Round-trip";
  List.iter
    (fun (example, meaning) ->
      let parsed = Spec.Parser.parse example in
      Printf.printf "%-24s %-28s %s\n" example meaning (Spec.Abstract.to_string parsed))
    [ ("hdf5@1.14.5", "require version");
      ("hdf5+cxx", "require variant");
      ("hdf5~mpi", "disable variant");
      ("hdf5 ^zlib", "depends on (link-run)");
      ("hdf5 %clang", "depends on (build)");
      ("hdf5 target=icelake", "require target");
      ("hdf5 api=default", "variant holds value") ]

(* Figure 5 / RQ1: old vs hash_attr encoding, splicing disabled.
   Paper: +4.7% (local) / +7.1% (public) mean concretization time. *)
let fig5 () =
  Printf.printf "\n=== Figure 5 (RQ1): reusable-spec encoding overhead ===\n";
  Printf.printf "%d runs per cell; times in seconds\n" !reps;
  Printf.printf "%-14s %-7s | %-18s | %-18s | %s\n" "spec" "cache" "old spack"
    "splice spack" "delta";
  let overall = Hashtbl.create 4 in
  List.iter
    (fun (cache_name, pool) ->
      List.iter
        (fun name ->
          let run encoding =
            timed_reps (fun () ->
                match concretize ~encoding ~pool [ Core.Encode.request_of_string name ] with
                | Ok _ -> ()
                | Error e -> failwith (name ^ ": " ^ e))
          in
          let old_t = run Core.Encode.Old in
          let new_t = run Core.Encode.Hash_attr in
          Printf.printf "%-14s %-7s | %8.3f ± %6.3f | %8.3f ± %6.3f | %+6.1f%%\n" name
            cache_name (mean old_t) (stddev old_t) (mean new_t) (stddev new_t)
            (pct_increase (mean old_t) (mean new_t));
          let l = try Hashtbl.find overall cache_name with Not_found -> [] in
          Hashtbl.replace overall cache_name ((mean old_t, mean new_t) :: l))
        (objectives ()))
    [ ("local", local_pool ()); ("public", public_pool ()) ];
  List.iter
    (fun cache_name ->
      let cells = Hashtbl.find overall cache_name in
      let old_total = List.fold_left (fun a (o, _) -> a +. o) 0.0 cells in
      let new_total = List.fold_left (fun a (_, n) -> a +. n) 0.0 cells in
      Printf.printf
        "[fig5] %s cache: %+.1f%% mean concretization time from the encoding change (paper: %s)\n"
        cache_name
        (pct_increase old_total new_total)
        (if cache_name = "local" then "+4.7%" else "+7.1%"))
    [ "local"; "public" ]

(* Figure 6 / RQ2+RQ3: old spack resolving ^mpich vs splice spack
   resolving ^mpiabi with splicing on. Paper: +17.1% (local) / +153%
   (public); py-shroud unaffected; spliced solutions always found. *)
let fig6 () =
  Printf.printf "\n=== Figure 6 (RQ2, RQ3): splicing correctness and overhead ===\n";
  Printf.printf "%d runs per cell; times in seconds\n" !reps;
  Printf.printf "%-14s %-7s | %-18s | %-18s | %-7s | %s\n" "spec" "cache"
    "old ^mpich" "splice ^mpiabi" "spliced" "delta";
  let specs = mpi_objectives () @ [ Radiuss.Universe.no_mpi_control ] in
  let overall = Hashtbl.create 4 in
  List.iter
    (fun (cache_name, pool) ->
      List.iter
        (fun name ->
          let mpi = List.mem name Radiuss.Universe.mpi_dependent in
          let old_req = if mpi then name ^ " ^mpich@3.4.3" else name in
          let new_req = if mpi then name ^ " ^mpiabi" else name in
          let old_t =
            timed_reps (fun () ->
                match
                  concretize ~encoding:Core.Encode.Old ~pool
                    [ Core.Encode.request_of_string old_req ]
                with
                | Ok _ -> ()
                | Error e -> failwith (old_req ^ ": " ^ e))
          in
          let spliced = ref false in
          let new_t =
            timed_reps (fun () ->
                match
                  concretize ~splicing:true ~pool
                    [ Core.Encode.request_of_string new_req ]
                with
                | Ok o ->
                  spliced := Core.Decode.is_spliced_solution o.Core.Concretizer.solution
                | Error e -> failwith (new_req ^ ": " ^ e))
          in
          if mpi && not !spliced then
            Printf.printf "!! RQ2 violation: %s did not come back spliced\n" name;
          Printf.printf "%-14s %-7s | %8.3f ± %6.3f | %8.3f ± %6.3f | %-7s | %+6.1f%%\n"
            name cache_name (mean old_t) (stddev old_t) (mean new_t) (stddev new_t)
            (if mpi then string_of_bool !spliced else "n/a")
            (pct_increase (mean old_t) (mean new_t));
          if mpi then begin
            let l = try Hashtbl.find overall cache_name with Not_found -> [] in
            Hashtbl.replace overall cache_name ((mean old_t, mean new_t) :: l)
          end)
        specs)
    [ ("local", local_pool ()); ("public", public_pool ()) ];
  List.iter
    (fun cache_name ->
      let cells = Hashtbl.find overall cache_name in
      let old_total = List.fold_left (fun a (o, _) -> a +. o) 0.0 cells in
      let new_total = List.fold_left (fun a (_, n) -> a +. n) 0.0 cells in
      Printf.printf
        "[fig6] %s cache: MPI-dependent specs %+.1f%% with splicing (paper: %s)\n"
        cache_name
        (pct_increase old_total new_total)
        (if cache_name = "local" then "+17.1%" else "+153%"))
    [ "local"; "public" ]

(* Figure 7 / RQ4: scaling the number of splice candidates; requests
   forbid mpich. Paper: +74.2% from 10 to 100 replicas for
   MPI-dependent specs, ~flat otherwise. *)
let fig7 () =
  Printf.printf "\n=== Figure 7 (RQ4): scaling splice candidates ===\n";
  Printf.printf "%d runs per cell; local cache; times in seconds\n" !reps;
  let replica_counts = if !quick then [ 10; 50; 100 ] else [ 10; 25; 50; 75; 100 ] in
  let pool = local_pool () in
  let specs = mpi_objectives () @ [ Radiuss.Universe.no_mpi_control ] in
  Printf.printf "%-14s" "spec";
  List.iter (fun n -> Printf.printf " | N=%-12d" n) replica_counts;
  Printf.printf " | 10 -> max\n";
  let increases = ref [] in
  List.iter
    (fun name ->
      let mpi = List.mem name Radiuss.Universe.mpi_dependent in
      Printf.printf "%-14s%!" name;
      let times =
        List.map
          (fun n ->
            let repo_n = Radiuss.Universe.with_replicas repo n in
            let req = Core.Encode.request_of_string ~forbid:[ "mpich" ] name in
            let options =
              { Core.Concretizer.default_options with
                Core.Concretizer.splicing = true;
                reuse = pool }
            in
            let t =
              timed_reps (fun () ->
                  match Core.Concretizer.concretize ~repo:repo_n ~options [ req ] with
                  | Ok o ->
                    if
                      mpi
                      && not (Core.Decode.is_spliced_solution o.Core.Concretizer.solution)
                    then Printf.printf "!! %s N=%d: not spliced%!" name n
                  | Error e -> failwith (name ^ ": " ^ e))
            in
            Printf.printf " | %6.3f ± %5.3f%!" (mean t) (stddev t);
            mean t)
          replica_counts
      in
      match (times, List.rev times) with
      | first :: _, last :: _ ->
        let d = pct_increase first last in
        Printf.printf " | %+6.1f%%\n" d;
        if mpi then increases := d :: !increases
      | _ -> Printf.printf "\n")
    specs;
  Printf.printf
    "[fig7] mean increase for MPI-dependent specs, 10 -> %d replicas: %+.1f%% (paper: +74.2%% at 100)\n"
    (List.fold_left max 0 replica_counts)
    (mean !increases)

(* Buildcache-pool scaling: how concretization cost grows with the
   reusable pool, and what reuse-pool pruning buys back. Two modes over
   the same pool:

     unpruned   fresh solve over every pool spec (the pre-pruning
                behaviour: hash_attr facts for all 5000 entries)
     pruned     fresh solve over the dependency closure of the request

   Both must agree on optimal costs and produce Verify-clean specs —
   asserted here, not just eyeballed. Results also land in
   BENCH_fig7.json for machine consumption, with the process's peak
   major heap over the whole run recorded once: OCaml keeps no per-tier
   peak, and every tier runs in the same process. A [~smoke] run only
   checks the agreement and prints its rows: no speedup gate, no
   JSON. *)
let fig7_pool ?(sizes = [ 50; 200; 1000; 5000 ]) ?(smoke = false) () =
  Printf.printf "\n=== Figure 7b: buildcache-pool scaling (pruning) ===\n";
  let specs = [ "mfem"; "hypre"; "visit" ] in
  Printf.printf
    "%d requests (%s) per cell; times in ms (total over requests, median of %d passes)\n"
    (List.length specs) (String.concat ", " specs) (max 1 !reps);
  Printf.printf "%-9s %-10s | %10s | %12s | %10s | %10s\n" "pool" "mode"
    "wall ms" "ground atoms" "clauses" "vs unpruned";
  let json_rows = ref [] in
  let verify_clean name spec =
    Core.Verify.check_solution ~repo ~request:(Spec.Parser.parse name) spec = []
  in
  let sat_of stats k =
    match List.assoc_opt k stats.Core.Concretizer.sat_stats with
    | Some v -> v
    | None -> 0
  in
  let emit ~pool_size ~mode ~walls ~ground_ms ~atoms ~clauses ~baseline =
    let wall_ms = median walls in
    Printf.printf "%-9d %-10s | %10.1f | %12d | %10d | %9.1fx\n%!" pool_size mode
      wall_ms atoms clauses
      (if wall_ms > 0.0 then baseline /. wall_ms else 0.0);
    json_rows :=
      Sjson.Object
        [ ("mode", Sjson.String mode);
          ("pool_size", Sjson.Int pool_size);
          ("ground_atoms", Sjson.Int atoms);
          ("clauses", Sjson.Int clauses);
          ("wall_ms", Sjson.Float wall_ms);
          ("wall_ms_min", Sjson.Float (List.fold_left min infinity walls));
          ("wall_ms_max", Sjson.Float (List.fold_left max 0.0 walls));
          ("ground_ms", Sjson.Float ground_ms) ]
      :: !json_rows
  in
  (* total grounding time across the requests of one mode, in ms *)
  let ground_ms outs =
    1000.0
    *. List.fold_left
         (fun acc (_, (o : Core.Concretizer.outcome)) ->
           acc +. o.Core.Concretizer.stats.Core.Concretizer.ground_seconds)
         0.0 outs
  in
  let speedup_at_max = ref None in
  List.iter
    (fun target ->
      let public, synthetic =
        Radiuss.Caches.public_scaled ~repo ~configs:3 ~target_nodes:target ()
      in
      (* the CI-churn synthesizer can re-pin a variant such that a
         conditional dependency becomes active without its edge — a
         spec no real buildcache would hold (it was never a solver
         output). Reusing one wholesale would fail independent
         verification in every mode, so keep the pool to entries that
         verify on their own. *)
      let raw_pool = Radiuss.Caches.reusable_specs public @ synthetic in
      let pool =
        List.filter (fun s -> Core.Verify.check_solution ~repo s = []) raw_pool
      in
      if List.length pool < List.length raw_pool then
        Printf.printf "(pool target %d: dropped %d invalid synthetic specs)\n%!"
          target
          (List.length raw_pool - List.length pool);
      let options prune =
        { Core.Concretizer.default_options with
          Core.Concretizer.reuse = pool; prune }
      in
      (* one mode, [--reps] passes over the requests: each pass's total
         wall ms, and the last pass's outcomes as (request, outcome)
         pairs *)
      let run_fresh prune =
        let pass () =
          let t0 = Obs.Clock.now_s () in
          let outs =
            List.map
              (fun name ->
                match
                  Core.Concretizer.concretize_v ~repo ~options:(options prune)
                    [ Core.Encode.request_of_string name ]
                with
                | Ok o -> (name, o)
                | Error f -> failwith (name ^ ": " ^ f.Core.Concretizer.f_message))
              specs
          in
          ((Obs.Clock.now_s () -. t0) *. 1000.0, outs)
        in
        (* keep only the last pass's outcomes: unpruned outcomes are
           large, and holding every pass's more than doubled the run's
           peak RSS at five passes *)
        let walls = List.init (max 1 !reps - 1) (fun _ -> fst (pass ())) in
        let wall, outs = pass () in
        (walls @ [ wall ], outs)
      in
      (* above 5000 nodes the unpruned mode (full from-scratch ground of
         every pool entry per request) is the cost this bench exists to
         show is avoidable — skip it rather than spend minutes proving
         the point, and fall back to pruned as the agreement baseline *)
      let unpruned_res = if target <= 5000 then Some (run_fresh false) else None in
      if unpruned_res = None then
        Printf.printf "(pool target %d: skipping unpruned mode above 5000 nodes)\n%!"
          target;
      let pruned_walls, pruned = run_fresh true in
      let pruned_ms = median pruned_walls in
      (* agreement: same optimal costs as unpruned, Verify-clean spec *)
      List.iter2
        (fun (name, (a : Core.Concretizer.outcome)) (name', b) ->
          assert (name = name');
          if
            a.Core.Concretizer.stats.Core.Concretizer.costs
            <> b.Core.Concretizer.stats.Core.Concretizer.costs
          then
            failwith
              (Printf.sprintf "fig7b: %s costs diverge (unpruned vs pruned)" name);
          let spec = List.hd b.Core.Concretizer.solution.Core.Decode.specs in
          if not (verify_clean name spec) then
            failwith (Printf.sprintf "fig7b: pruned solution for %s failed Verify" name))
        (match unpruned_res with Some (_, outs) -> outs | None -> pruned)
        pruned;
      let worst f outs =
        List.fold_left
          (fun acc (_, (o : Core.Concretizer.outcome)) ->
            max acc (f o.Core.Concretizer.stats))
          0 outs
      in
      let atoms o = o.Core.Concretizer.ground_atoms in
      let clauses s = sat_of s "clauses" in
      let baseline_ms =
        match unpruned_res with Some (walls, _) -> median walls | None -> pruned_ms
      in
      (match unpruned_res with
      | Some (walls, unpruned) ->
        emit ~pool_size:(List.length pool) ~mode:"unpruned" ~walls
          ~ground_ms:(ground_ms unpruned) ~atoms:(worst atoms unpruned)
          ~clauses:(worst clauses unpruned) ~baseline:baseline_ms
      | None -> ());
      emit ~pool_size:(List.length pool) ~mode:"pruned" ~walls:pruned_walls
        ~ground_ms:(ground_ms pruned) ~atoms:(worst atoms pruned)
        ~clauses:(worst clauses pruned) ~baseline:baseline_ms;
      (let phase f =
         1000.0
         *. List.fold_left
              (fun acc (_, (o : Core.Concretizer.outcome)) ->
                acc +. f o.Core.Concretizer.stats)
              0.0 pruned
       in
       Printf.printf
         "          (pruned split: encode %.0f ms, ground %.0f ms, solve %.0f ms)\n%!"
         (phase (fun s -> s.Core.Concretizer.encode_seconds))
         (phase (fun s -> s.Core.Concretizer.ground_seconds))
         (phase (fun s -> s.Core.Concretizer.solve_seconds)));
      if target >= 20000 && pruned_ms > 10_000.0 then
        failwith
          (Printf.sprintf
             "fig7b: pruned wall %.0f ms at pool target %d exceeds the 10 s budget"
             pruned_ms target);
      match unpruned_res with
      | Some (walls, _) ->
        speedup_at_max := Some (List.length pool, median walls /. pruned_ms)
      | None -> ())
    sizes;
  let json =
    Sjson.Object
      [ ("host", host_json ());
        ("process_top_heap_words", Sjson.Int (Gc.quick_stat ()).Gc.top_heap_words);
        ("fig7_pool", Sjson.Array (List.rev !json_rows)) ]
  in
  if not smoke then begin
    let oc = open_out "BENCH_fig7.json" in
    output_string oc (Sjson.to_string ~pretty:true json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "[fig7b] wrote BENCH_fig7.json (%d rows)\n" (List.length !json_rows)
  end;
  match !speedup_at_max with
  | None -> ()
  | Some (pool_size, s) ->
    Printf.printf "[fig7b] pool=%d: pruned %.1fx faster than unpruned\n" pool_size s;
    if (not smoke) && s < 5.0 then
      failwith
        (Printf.sprintf
           "fig7b: expected >= 5x from pruning at the largest pool, got %.1fx" s)

(* Ablations over the design choices DESIGN.md calls out. *)
let ablate () =
  Printf.printf "\n=== Ablations ===\n";
  let pool = local_pool () in
  List.iter
    (fun (label, encoding) ->
      match concretize ~encoding ~pool [ Core.Encode.request_of_string "mfem" ] with
      | Ok o ->
        let s = o.Core.Concretizer.stats in
        Printf.printf
          "time split (%-9s): encode %.3fs ground %.3fs solve %.3fs (atoms %d, rules %d)\n"
          label s.Core.Concretizer.encode_seconds s.Core.Concretizer.ground_seconds
          s.Core.Concretizer.solve_seconds s.Core.Concretizer.ground_atoms
          s.Core.Concretizer.ground_rules
      | Error e -> Printf.printf "ablate: %s\n" e)
    [ ("old", Core.Encode.Old); ("hash_attr", Core.Encode.Hash_attr) ];
  (* The stability check runs only where positive loops exist: plain
     mfem grounds to a tight program; with splicing on, the splice
     rules close positive loops. *)
  List.iter
    (fun (text, splicing) ->
      let obs = Obs.create () in
      let options =
        { Core.Concretizer.default_options with
          Core.Concretizer.splicing;
          reuse = pool;
          obs }
      in
      match
        Core.Concretizer.concretize ~repo ~options [ Core.Encode.request_of_string text ]
      with
      | Ok _ ->
        let counter k =
          match List.assoc_opt k (Obs.metrics obs) with
          | Some (Obs.Counter n) -> n
          | _ -> 0
        in
        Printf.printf
          "stable-model machinery (%-12s): %d checks run, %d skipped (tight), %d SCC atoms\n"
          text (counter "logic.stable_checks")
          (counter "logic.stable_checks_skipped")
          (counter "logic.scc_atoms")
      | Error e -> Printf.printf "ablate: %s\n" e)
    [ ("mfem", false); ("mfem ^mpiabi", true) ];
  let control = Radiuss.Universe.no_mpi_control in
  let t_off =
    timed_reps (fun () ->
        ignore (concretize ~pool [ Core.Encode.request_of_string control ]))
  in
  let t_on =
    timed_reps (fun () ->
        ignore (concretize ~splicing:true ~pool [ Core.Encode.request_of_string control ]))
  in
  Printf.printf
    "splicing flag on %s (no candidates): %.3fs -> %.3fs (%+.1f%%; paper: 'virtually no difference')\n"
    control (mean t_off) (mean t_on)
    (pct_increase (mean t_off) (mean t_on))

(* Bechamel micro-benchmarks over the substrate operations. *)
let micro () =
  Printf.printf "\n=== Substrate micro-benchmarks (bechamel, ns/op) ===\n%!";
  let open Bechamel in
  let spec_text = "example@1.0.0 +bzip arch=linux-centos8-skylake ^zlib@1.2.11 ^mpich" in
  let program_text =
    "p(1). p(2). p(3). q(X) :- p(X), X >= 2. 1 { r(X) : q(X) } 1. :- r(2)."
  in
  let small_repo =
    Pkg.Repo.of_packages
      Pkg.Package.
        [ make "a" |> version "1.0" |> depends_on "b" |> depends_on "c";
          make "b" |> version "1.0" |> depends_on "c";
          make "c" |> version "1.0" ]
  in
  let concrete =
    match Core.Concretizer.concretize_spec ~repo:small_repo "a" with
    | Ok o -> List.hd o.Core.Concretizer.solution.Core.Decode.specs
    | Error e -> failwith e
  in
  let payload = String.make 1024 'x' in
  (* hash_attr-heavy join: the rule selects on the THIRD argument, so
     this measures the grounder's first-ground-argument index (the old
     index only covered argument 0, degenerating to a scan here) *)
  let arg_index_prog =
    let b = Buffer.create 8192 in
    for i = 0 to 399 do
      Buffer.add_string b
        (Printf.sprintf "hash_attr(\"h%d\", \"version\", \"p%d\", \"1.0\").\n" i
           (i mod 20))
    done;
    Buffer.add_string b "pick(\"p3\").\n";
    Buffer.add_string b "sel(H, N) :- pick(N), hash_attr(H, \"version\", N, V).\n";
    Asp.parse (Buffer.contents b)
  in
  let tests =
    Test.make_grouped ~name:"substrate"
      [ Test.make ~name:"spec-parse"
          (Staged.stage (fun () -> ignore (Spec.Parser.parse spec_text)));
        Test.make ~name:"sha256-1k"
          (Staged.stage (fun () -> ignore (Chash.Sha256.digest payload)));
        Test.make ~name:"asp-parse"
          (Staged.stage (fun () -> ignore (Asp.parse program_text)));
        Test.make ~name:"asp-solve"
          (Staged.stage (fun () -> ignore (Asp.solve_text program_text)));
        Test.make ~name:"ground-arg-index"
          (Staged.stage (fun () -> ignore (Asp.Ground.ground arg_index_prog)));
        Test.make ~name:"dag-hash"
          (Staged.stage (fun () ->
               let nodes = Spec.Concrete.nodes concrete in
               let edges = Spec.Concrete.edges concrete in
               ignore
                 (Spec.Concrete.dag_hash
                    (Spec.Concrete.create ~root:(Spec.Concrete.root concrete) ~nodes
                       ~edges ()))));
        Test.make ~name:"concretize-small"
          (Staged.stage (fun () ->
               ignore (Core.Concretizer.concretize_spec ~repo:small_repo "a"))) ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ est ] -> Printf.printf "%-32s %14.1f\n" name est
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)

(* A fixed-seed slice of the fuzzing harness, small enough for CI:
   clean runs must be violation-free with every UNSAT certified, and an
   injected solver bug must be caught. *)
let fuzz_smoke () =
  let rounds = if !quick then 15 else 100 in
  let clean = Fuzz.Harness.run ~seed:42 ~rounds () in
  Printf.printf "fuzz-smoke clean: %s\n"
    (Format.asprintf "%a" Fuzz.Oracle.pp_stats clean.Fuzz.Harness.stats);
  if clean.Fuzz.Harness.failures <> [] then begin
    Format.printf "%a" Fuzz.Harness.pp_report clean;
    failwith "fuzz-smoke: violations on a clean run"
  end;
  if clean.Fuzz.Harness.stats.Fuzz.Oracle.unsat_certified = 0 then
    failwith "fuzz-smoke: no UNSAT answer was certified";
  let injected =
    Fuzz.Harness.run ~inject:Fuzz.Harness.Drop_pb ~seed:42 ~rounds:5 ()
  in
  (match injected.Fuzz.Harness.failures with
  | [] -> failwith "fuzz-smoke: injected PB bug was not caught"
  | f :: _ ->
    Printf.printf "fuzz-smoke injected: caught, shrunk to %s\n"
      (Fuzz.Gen.summary f.Fuzz.Harness.shrunk))

(* Fast CI gate over the performance stack (dune build @perf-smoke):
   the pool-scaling modes must agree at small sizes, and batch
   concretization must be byte-deterministic in the number of
   domains. *)
let perf_smoke () =
  fig7_pool ~sizes:[ 50; 200 ] ~smoke:true ();
  Printf.printf "\n=== perf-smoke: batch determinism ===\n";
  let pool = local_pool () in
  let names = objectives () in
  let requests =
    List.init 50 (fun i ->
        Core.Encode.request_of_string (List.nth names (i mod List.length names)))
  in
  let options =
    { Core.Concretizer.default_options with Core.Concretizer.reuse = pool }
  in
  let render results =
    String.concat "\n"
      (List.map
         (function
           | Ok (o : Core.Concretizer.outcome) ->
             let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
             Printf.sprintf "ok %s %s"
               (Spec.Concrete.dag_hash spec)
               (String.concat ","
                  (List.map
                     (fun (p, c) -> Printf.sprintf "%d@%d" c p)
                     o.Core.Concretizer.stats.Core.Concretizer.costs))
           | Error (f : Core.Concretizer.failure) ->
             "error " ^ f.Core.Concretizer.f_message)
         results)
  in
  let t1 = Obs.Clock.now_s () in
  let seq = Core.Concretizer.concretize_batch ~repo ~options ~jobs:1 requests in
  let t2 = Obs.Clock.now_s () in
  let par = Core.Concretizer.concretize_batch ~repo ~options ~jobs:4 requests in
  let t3 = Obs.Clock.now_s () in
  if render seq <> render par then
    failwith "perf-smoke: --jobs 1 and --jobs 4 batch results differ";
  Printf.printf
    "50-request batch: jobs=1 %.2fs, jobs=4 (ran %d) %.2fs — results \
     byte-identical\n"
    (t2 -. t1)
    (Core.Concretizer.batch_jobs ~jobs:4 (List.length requests))
    (t3 -. t2)


(* SAT-core smoke (dune build @sat-smoke): the glucose-class CDCL core
   on the fig7b workload at the 5000-entry pool, solved unpruned so the
   solver sees buildcache-scale clause databases. Gates:

   - conflicts: the summed conflict count over the requests is
     deterministic and must stay <= 112 (the retired MiniSat-style
     baseline core needed 135 on this work; 112 keeps the old >= 1.2x
     reduction gate);
   - SAT-core time: the summed [sat.solve] spans per propagation they
     made, divided by the time per 64-byte block of a SHA-256 digest
     of a fixed 64 KiB buffer, timed after each request of the same
     pass (median over the reps), must stay within 1.5x of the median measured on the tree
     before the gate moved here: 0.184 on a 2-core host. The hashing
     is work no measured layer owns, so the ratio cancels the +/-35%
     host swings that raw wall time shows here, and translation time
     does not enter it;
   - every solution is Verify-clean;
   - on a conflict-heavy UNSAT instance (pigeonhole) with an aggressive
     reduction interval, the learnt DB stays bounded — reductions fire,
     clauses actually get removed, and the live DB ends well below the
     total ever learnt — while the deletion-bearing DRUP proof still
     certifies with the independent checker.

   The numbers land in BENCH_sat.json. *)
let sat_smoke () =
  Printf.printf "\n=== sat-smoke: glucose-class SAT core ===\n%!";
  let target = 5000 in
  let max_conflicts = 112 in
  let ref_ratio = 0.184 in
  (* the calibration: one digest of a fixed 64 KiB buffer per request *)
  let calib_input = String.init 65536 (fun i -> Char.chr (i land 255)) in
  let calib_blocks = String.length calib_input / 64 in
  let specs = quick_specs in
  let public, synthetic =
    Radiuss.Caches.public_scaled ~repo ~configs:3 ~target_nodes:target ()
  in
  let raw_pool = Radiuss.Caches.reusable_specs public @ synthetic in
  let pool =
    List.filter (fun s -> Core.Verify.check_solution ~repo s = []) raw_pool
  in
  Printf.printf "pool: %d verifiable specs (target %d nodes); %d requests, unpruned\n%!"
    (List.length pool) target (List.length specs);
  (* one pass of every request: summed SAT-core nanoseconds and the
     propagations made inside them (from the sat.solve spans),
     translation nanoseconds (logic.translate spans), calibration
     nanoseconds, and the outcomes *)
  let run () =
    let sat_ns = ref 0L and sat_props = ref 0 and translate_ns = ref 0L in
    let calib_ns = ref 0.0 in
    let outs =
      List.map
        (fun name ->
          let obs = Obs.create () in
          let options =
            { Core.Concretizer.default_options with
              Core.Concretizer.reuse = pool;
              prune = false;
              obs }
          in
          match
            Core.Concretizer.concretize_v ~repo ~options
              [ Core.Encode.request_of_string name ]
          with
          | Ok o ->
            List.iter
              (function
                | Obs.Span { name = "sat.solve"; dur_ns; attrs; _ } ->
                  sat_ns := Int64.add !sat_ns dur_ns;
                  (match List.assoc_opt "propagations" attrs with
                  | Some (Obs.I n) -> sat_props := !sat_props + n
                  | _ -> ())
                | Obs.Span { name = "logic.translate"; dur_ns; _ } ->
                  translate_ns := Int64.add !translate_ns dur_ns
                | _ -> ())
              (Obs.events obs);
            let t0 = Obs.Clock.now_s () in
            ignore (Sys.opaque_identity (Chash.Sha256.digest calib_input));
            calib_ns := !calib_ns +. ((Obs.Clock.now_s () -. t0) *. 1e9);
            (name, o)
          | Error f -> failwith (name ^ ": " ^ f.Core.Concretizer.f_message))
        specs
    in
    let per_prop = Int64.to_float !sat_ns /. float_of_int !sat_props in
    let per_block = !calib_ns /. float_of_int (calib_blocks * List.length specs) in
    ( Int64.to_float !sat_ns /. 1e9,
      Int64.to_float !translate_ns /. 1e9,
      (per_prop, per_block, !sat_props),
      outs )
  in
  let passes = List.init (max 1 !reps) (fun _ -> run ()) in
  let ratios = List.map (fun (_, _, (pp, pb, _), _) -> pp /. pb) passes in
  let ratio = median ratios in
  let sat_s = median (List.map (fun (s, _, _, _) -> s) passes) in
  let translate_s = median (List.map (fun (_, t, _, _) -> t) passes) in
  let per_prop = median (List.map (fun (_, _, (pp, _, _), _) -> pp) passes) in
  let per_block = median (List.map (fun (_, _, (_, pb, _), _) -> pb) passes) in
  let _, _, (_, _, solve_props), outs = List.hd passes in
  List.iter
    (fun (name, (o : Core.Concretizer.outcome)) ->
      let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
      if
        Core.Verify.check_solution ~repo ~request:(Spec.Parser.parse name) spec
        <> []
      then failwith ("sat-smoke: solution for " ^ name ^ " failed Verify"))
    outs;
  let sum k =
    List.fold_left
      (fun a (_, (o : Core.Concretizer.outcome)) ->
        a
        + Option.value ~default:0
            (List.assoc_opt k o.Core.Concretizer.stats.Core.Concretizer.sat_stats))
      0 outs
  in
  let conflicts = sum "conflicts" in
  Printf.printf
    "[sat-smoke] sat %.1f ms over %d propagations = %.1f ns each; SHA-256 \
     %.1f ns per block; ratio %.3f (median of %d; range %.3f-%.3f); \
     translate %.1f ms; conflicts %d, propagations %d, learnts %d; \
     Verify clean\n%!"
    (sat_s *. 1000.0) solve_props per_prop per_block ratio (List.length ratios)
    (List.fold_left min infinity ratios)
    (List.fold_left max 0.0 ratios)
    (translate_s *. 1000.0) conflicts (sum "propagations") (sum "learnts");
  (* (b) learnt-DB boundedness: pigeonhole PHP(8,7) is conflict-heavy
     UNSAT; with a 50-clause reduction interval the live DB must end
     far below the total ever learnt, and the proof (now containing
     P_delete steps) must still certify *)
  let interval = 50 in
  let pigeons = 8 and holes = 7 in
  let php = Asp.Sat.create () in
  Asp.Sat.enable_proof php;
  Asp.Sat.set_reduce_interval php interval;
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Asp.Sat.new_var php))
  in
  for i = 0 to pigeons - 1 do
    Asp.Sat.add_clause php (Array.to_list (Array.map Asp.Sat.pos v.(i)))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        Asp.Sat.add_clause php [ Asp.Sat.neg v.(i).(j); Asp.Sat.neg v.(k).(j) ]
      done
    done
  done;
  let t0 = Obs.Clock.now_s () in
  if Asp.Sat.solve php then failwith "sat-smoke: PHP(8,7) came back SAT";
  let php_s = Obs.Clock.now_s () -. t0 in
  let st = Asp.Sat.stats php in
  let g k = match List.assoc_opt k st with Some x -> x | None -> 0 in
  let deletes =
    match Asp.Sat.proof php with
    | None -> 0
    | Some steps ->
      (match Fuzz.Drup.check steps with
      | Ok () -> ()
      | Error e -> failwith ("sat-smoke: PHP proof rejected: " ^ e));
      List.length
        (List.filter
           (function Asp.Sat.P_delete _ -> true | _ -> false)
           steps)
  in
  Printf.printf
    "PHP(%d,%d): UNSAT in %.2fs; conflicts %d, learnt %d, live DB %d, reduces %d, removed %d, rephases %d, proof deletions %d (certified)\n%!"
    pigeons holes php_s (g "conflicts") (g "learnts") (g "learnt_db")
    (g "reduces") (g "removed") (g "rephases") deletes;
  if g "reduces" = 0 then
    failwith "sat-smoke: reduction interval 50 never triggered reduce_db";
  if g "removed" = 0 then failwith "sat-smoke: reduce_db removed nothing";
  if deletes = 0 then failwith "sat-smoke: no P_delete steps in the proof";
  let bound = 2 * (interval + (300 * g "reduces")) in
  if g "learnt_db" > bound then
    failwith
      (Printf.sprintf
         "sat-smoke: learnt DB unbounded: %d live clauses > %d allowance"
         (g "learnt_db") bound);
  let json =
    Sjson.Object
      [ ("host", host_json ());
        ("pool_size", Sjson.Int (List.length pool));
        ("sat_ms", Sjson.Float (sat_s *. 1000.0));
        ("translate_ms", Sjson.Float (translate_s *. 1000.0));
        ("solve_propagations", Sjson.Int solve_props);
        ("sat_ns_per_propagation", Sjson.Float per_prop);
        ("sha256_ns_per_block", Sjson.Float per_block);
        ("sat_calibrated_ratio", Sjson.Float ratio);
        ( "sat_calibrated_ratios",
          Sjson.Array (List.map (fun r -> Sjson.Float r) ratios) );
        ("sat_calibrated_ratio_max", Sjson.Float (1.5 *. ref_ratio));
        ("conflicts", Sjson.Int conflicts);
        ("conflicts_max", Sjson.Int max_conflicts);
        ("propagations", Sjson.Int (sum "propagations"));
        ("learnts", Sjson.Int (sum "learnts"));
        ( "pigeonhole",
          Sjson.Object
            [ ("conflicts", Sjson.Int (g "conflicts"));
              ("learnts", Sjson.Int (g "learnts"));
              ("learnt_db", Sjson.Int (g "learnt_db"));
              ("reduces", Sjson.Int (g "reduces"));
              ("removed", Sjson.Int (g "removed"));
              ("rephases", Sjson.Int (g "rephases"));
              ("proof_deletions", Sjson.Int deletes);
              ("seconds", Sjson.Float php_s) ] ) ]
  in
  let oc = open_out "BENCH_sat.json" in
  output_string oc (Sjson.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "[sat-smoke] wrote BENCH_sat.json\n%!";
  if conflicts > max_conflicts then
    failwith
      (Printf.sprintf
         "sat-smoke: %d conflicts on the %d-entry-pool SAT work (gate: <= %d)"
         conflicts target max_conflicts);
  if ratio > 1.5 *. ref_ratio then
    failwith
      (Printf.sprintf
         "sat-smoke: sat.solve time per propagation / SHA-256 time per \
          block = %.3f on the %d-entry-pool work (gate: <= %.3f, 1.5x \
          the reference %.3f)"
         ratio target (1.5 *. ref_ratio) ref_ratio)

(* Observability smoke (dune build @obs-smoke): a traced
   concretize+install must produce a parseable Chrome trace whose phase
   spans are present and well-nested per domain, and instrumentation
   with tracing disabled must stay within noise of the same pipeline
   before the instrumentation existed. *)
let obs_smoke () =
  Printf.printf "\n=== obs-smoke: tracing correctness and overhead ===\n%!";
  let pool = local_pool () in
  let request () = Core.Encode.request_of_string "mfem ^mpiabi" in
  let run obs =
    let options =
      { Core.Concretizer.default_options with
        Core.Concretizer.reuse = pool;
        splicing = true;
        obs }
    in
    match Core.Concretizer.concretize ~repo ~options [ request () ] with
    | Error e -> failwith ("obs-smoke: concretize: " ^ e)
    | Ok o ->
      let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
      let store = Binary.Store.create ~root:"/obs" (Binary.Vfs.create ()) in
      (match
         Binary.Installer.install store ~repo
           ~caches:[ (fst (Lazy.force caches)).Radiuss.Caches.cache ] ~obs spec
       with
      | Ok _ -> ()
      | Error e ->
        failwith (Format.asprintf "obs-smoke: install: %a" Binary.Errors.pp e))
  in
  (* 1. the traced run: trace parses and contains the phase spans *)
  let obs = Obs.create () in
  run obs;
  let trace = Obs.Sink.render obs Obs.Sink.Chrome in
  let json =
    match Sjson.of_string trace with
    | j -> j
    | exception Sjson.Parse_error e -> failwith ("obs-smoke: bad chrome trace: " ^ e)
  in
  let span_names =
    List.filter_map
      (fun ev ->
        match Sjson.member_opt "ph" ev with
        | Some (Sjson.String "X") ->
          Some (Sjson.get_string (Sjson.member "name" ev))
        | _ -> None)
      (Sjson.to_list (Sjson.member "traceEvents" json))
  in
  List.iter
    (fun phase ->
      if not (List.mem phase span_names) then
        failwith ("obs-smoke: trace is missing the " ^ phase ^ " span"))
    [ "concretize"; "encode"; "ground"; "solve"; "decode"; "sat.solve";
      "install"; "install.node" ];
  (* 2. spans must nest per domain: any two spans on one tid are either
     disjoint or one contains the other *)
  let spans_by_tid = Hashtbl.create 4 in
  List.iter
    (function
      | Obs.Span { tid; t0_ns; dur_ns; name; _ } ->
        let l = try Hashtbl.find spans_by_tid tid with Not_found -> [] in
        Hashtbl.replace spans_by_tid tid
          ((name, t0_ns, Int64.add t0_ns dur_ns) :: l)
      | Obs.Instant _ -> ())
    (Obs.events obs);
  Hashtbl.iter
    (fun tid spans ->
      List.iter
        (fun (n1, s1, e1) ->
          List.iter
            (fun (n2, s2, e2) ->
              let lt = Int64.compare in
              let overlap = lt (max s1 s2) (min e1 e2) < 0 in
              let contains a b c d = lt a c <= 0 && lt d b <= 0 in
              if
                overlap
                && not (contains s1 e1 s2 e2)
                && not (contains s2 e2 s1 e1)
              then
                failwith
                  (Printf.sprintf
                     "obs-smoke: spans %s and %s partially overlap on domain %d"
                     n1 n2 tid))
            spans)
        spans)
    spans_by_tid;
  Printf.printf
    "trace: %d spans over %d domain(s), all expected phases present, well-nested\n%!"
    (List.length span_names)
    (Hashtbl.length spans_by_tid);
  (* 3. overhead gate: the disabled-context path must stay within noise
     of itself — compare against a fully traced run for scale, and fail
     only if the untraced median regresses past a generous threshold of
     the traced one (i.e. the "disabled" path secretly started paying
     tracing costs) *)
  let reps = 7 in
  let time obs =
    median
      (List.init reps (fun _ ->
           let t0 = Obs.Clock.now_s () in
           run obs;
           Obs.Clock.now_s () -. t0))
  in
  ignore (time Obs.disabled) (* warm up *);
  let untraced = time Obs.disabled in
  let traced = time (Obs.create ()) in
  Printf.printf "median over %d reps: untraced %.4fs, traced %.4fs (%+.1f%%)\n%!"
    reps untraced traced
    (pct_increase untraced traced);
  if untraced > traced *. 1.30 then
    failwith
      (Printf.sprintf
         "obs-smoke: untraced run (%.4fs) is >30%% slower than a fully traced \
          one (%.4fs) — the disabled path is paying tracing costs"
         untraced traced)

(* Fixed-seed resilience smoke: the scenarios the mirror layer exists
   for, each run to completion and checked for convergence —

   - a clean install through a faultless mirror;
   - a mid-install crash followed by Store.recover and a resumed
     install;
   - every mirror hard-down, degrading to source builds;

   plus a multi-seed slice of the Resil fuzz oracle (random universes ×
   random fault plans). *)
let resil_smoke () =
  let open Spec.Types in
  let node name version =
    { Spec.Concrete.name; version = Vers.Version.of_string version;
      variants = Smap.empty; os = "linux"; target = "x86_64"; build_hash = None }
  in
  let small_repo =
    Pkg.Repo.of_packages
      Pkg.Package.
        [ make "app" |> version "1.0" |> depends_on "libx" |> depends_on "zlib";
          make "libx" |> version "2.0" |> depends_on "zlib";
          make "zlib" |> version "1.3.1" ]
  in
  let spec =
    Spec.Concrete.create ~root:"app"
      ~nodes:[ node "app" "1.0"; node "libx" "2.0"; node "zlib" "1.3.1" ]
      ~edges:
        [ ("app", "libx", dt_link); ("app", "zlib", dt_link);
          ("libx", "zlib", dt_link) ]
      ()
  in
  let farm = Binary.Store.create ~root:"/farm" (Binary.Vfs.create ()) in
  ignore (Binary.Errors.ok_exn (Binary.Builder.build_all farm ~repo:small_repo spec));
  let origin = Binary.Buildcache.create ~name:"origin" in
  ignore (Binary.Errors.ok_exn (Binary.Buildcache.push origin farm spec));
  let policy =
    { Binary.Mirror.default_retry with
      Binary.Mirror.base_delay_ms = 1.0; max_delay_ms = 8.0 }
  in
  let fresh () =
    let vfs = Binary.Vfs.create () in
    (vfs, Binary.Store.create ~root:"/ice" vfs)
  in
  let install ?mirrors ?caches store =
    Binary.Errors.ok_exn
      (Binary.Installer.install store ~repo:small_repo ?caches ?mirrors spec)
  in
  (* reference state every scenario must converge to *)
  let _, ref_store = fresh () in
  ignore (install ~caches:[ origin ] ref_store);
  let ref_fp = Binary.Store.fingerprint ref_store in
  let expect_converged what store =
    if Binary.Store.fingerprint store <> ref_fp then
      failwith ("resil-smoke: " ^ what ^ " diverged from the fault-free state")
  in
  (* 1. clean run through a mirror *)
  let _, s1 = fresh () in
  let g1 =
    Binary.Mirror.group ~policy [ Binary.Mirror.create ~name:"m0" origin ]
  in
  let r1 = install ~mirrors:g1 s1 in
  expect_converged "clean mirror install" s1;
  Printf.printf "resil-smoke clean:      %s\n"
    (Format.asprintf "%a" Binary.Installer.pp_report r1);
  (* 2. crash mid-install, recover, resume — at several fixed points *)
  let writes = Binary.Store.write_count s1 in
  List.iter
    (fun k ->
      let crash_at = k mod writes in
      let vfs, s2 = fresh () in
      Binary.Store.set_crash_after s2 (Some crash_at);
      match install ~caches:[ origin ] s2 with
      | exception Binary.Store.Crashed _ ->
        let recovered, r = Binary.Store.recover ~root:"/ice" vfs in
        ignore (install ~caches:[ origin ] recovered);
        expect_converged
          (Printf.sprintf "crash at write %d + recover + resume" crash_at)
          recovered;
        Printf.printf "resil-smoke crash@%-3d:  recovered (%s), converged\n"
          crash_at
          (Format.asprintf "%a" Binary.Store.pp_recovery r)
      | _ -> expect_converged "uncrashed run" s2)
    [ 1; 7; 42 ];
  (* 3. every mirror hard-down: degrade to source builds *)
  let down name =
    Binary.Mirror.create
      ~faults:
        { Binary.Mirror.no_faults with
          Binary.Mirror.fp_outage_after = Some 0; fp_outage_len = None }
      ~name origin
  in
  let g3 = Binary.Mirror.group ~policy [ down "m0"; down "m1" ] in
  let _, s3 = fresh () in
  let r3 = install ~mirrors:g3 s3 in
  expect_converged "all-mirrors-down install" s3;
  if Binary.Installer.degraded_count r3 = 0 then
    failwith "resil-smoke: expected degradation with every mirror down";
  Printf.printf "resil-smoke all-down:   %s\n"
    (Format.asprintf "%a" Binary.Installer.pp_report r3);
  (* 4. the fuzz oracle across several fixed seeds *)
  let rounds = if !quick then 5 else 25 in
  List.iter
    (fun seed ->
      let report = Fuzz.Resil.run ~seed ~rounds () in
      Printf.printf "resil-smoke fuzz s=%-4d: %s\n" seed
        (Format.asprintf "%a" Fuzz.Resil.pp_stats report.Fuzz.Resil.stats);
      if report.Fuzz.Resil.failures <> [] then begin
        Format.printf "%a" Fuzz.Resil.pp_report report;
        failwith "resil-smoke: resilience oracle violations"
      end)
    [ 11; 42; 1337 ]

(* Resident-server smoke (dune build @serve-smoke): replay >= 2000
   mixed requests (solves and pings) over >= 4 worker domains from 4
   concurrent client connections, and gate

     - byte-equivalence: every solve response's canonical result is
       byte-identical to a one-shot [concretize_v] run on the same
       repo, pool, and options;
     - latency: p50/p99 of the server-side serve.latency_ms histogram
       (receipt to response, queueing included);
     - speedup: the served p50 against the stateless baseline of every
       client grounding the whole buildcache per request.

   The numbers land in BENCH_serve.json. *)
let serve_smoke () =
  Printf.printf "\n=== serve-smoke: resident multi-tenant solve server ===\n%!";
  let pool = local_pool () in
  let workers = 4 and clients = 4 and total = 2000 in
  let obs = Obs.create () in
  let options =
    { Core.Concretizer.default_options with Core.Concretizer.reuse = pool; obs }
  in
  let config = { Core.Serve.default_config with Core.Serve.workers; options } in
  let socket = Printf.sprintf "/tmp/spackml-bench-%d.sock" (Unix.getpid ()) in
  let t =
    match Core.Serve.start ~repo ~config ~socket () with
    | Ok t -> t
    | Error e -> failwith ("serve-smoke: start: " ^ e)
  in
  Fun.protect ~finally:(fun () -> Core.Serve.stop t) @@ fun () ->
  let specs = Array.of_list quick_specs in
  let nspecs = Array.length specs in
  (* expected canonical results: one one-shot solve per distinct spec,
     run without the server's obs ctx so the histograms below are the
     server's alone *)
  let one_shot_opts = { options with Core.Concretizer.obs = Obs.disabled } in
  let expected = Hashtbl.create 16 in
  let t0 = Obs.Clock.now_s () in
  Array.iter
    (fun s ->
      let r =
        Core.Concretizer.concretize_v ~repo ~options:one_shot_opts
          [ Core.Encode.request_of_string s ]
      in
      Hashtbl.replace expected s
        (Sjson.to_string (Core.Serve.canonical_of_result r)))
    specs;
  let one_shot_ms =
    (Obs.Clock.now_s () -. t0) *. 1000.0 /. float_of_int nspecs
  in
  Printf.printf "one-shot solve (encode+ground+solve, pruned): %.1f ms mean\n%!"
    one_shot_ms;
  (* the stateless baseline the server replaces: every client running
     its own from-scratch concretizer, grounding the whole buildcache
     per request (the unpruned mode of fig7b).
     Measured at the replay's client concurrency so both sides pay the
     same core-contention and domain-GC tax. *)
  let unpruned_opts = { one_shot_opts with Core.Concretizer.prune = false } in
  let unpruned_ms =
    let per_client () =
      let acc = ref 0.0 in
      Array.iter
        (fun s ->
          let t0 = Obs.Clock.now_s () in
          (match
             Core.Concretizer.concretize_v ~repo ~options:unpruned_opts
               [ Core.Encode.request_of_string s ]
           with
          | Ok _ -> ()
          | Error f ->
            failwith
              ("serve-smoke: unpruned " ^ s ^ ": "
             ^ f.Core.Concretizer.f_message));
          acc := !acc +. ((Obs.Clock.now_s () -. t0) *. 1000.0))
        specs;
      !acc
    in
    let totals =
      List.map Domain.join
        (List.init clients (fun _ -> Domain.spawn per_client))
    in
    List.fold_left ( +. ) 0.0 totals /. float_of_int (clients * nspecs)
  in
  Printf.printf
    "stateless baseline: unpruned full-pool solve at %d-way concurrency: \
     %.1f ms mean\n%!"
    clients unpruned_ms;
  let connect () =
    match Core.Serve.Client.connect socket with
    | Ok c -> c
    | Error e -> failwith ("serve-smoke: connect: " ^ e)
  in
  (* cold: the first request, on a fresh connection *)
  let cold_ms =
    let c = connect () in
    let t0 = Obs.Clock.now_s () in
    (match Core.Serve.Client.solve c specs.(0) with
    | Ok resp ->
      let got = Sjson.to_string (Sjson.member "result" resp) in
      if got <> Hashtbl.find expected specs.(0) then
        failwith "serve-smoke: cold response diverges from one-shot"
    | Error e -> failwith ("serve-smoke: cold solve: " ^ e));
    let ms = (Obs.Clock.now_s () -. t0) *. 1000.0 in
    Core.Serve.Client.close c;
    ms
  in
  Printf.printf "cold first request: %.1f ms\n%!" cold_ms;
  (* replay: [total] mixed requests round-robin over [clients] client
     domains; every 100th is a ping, the rest solves *)
  let run_client cid =
    let c = connect () in
    let mismatches = ref 0 and pings = ref 0 and not_ok = ref 0 in
    let i = ref cid in
    while !i < total do
      let idx = !i in
      (if idx mod 100 = 0 then begin
         incr pings;
         match Core.Serve.Client.ping c with
         | Ok resp ->
           if Sjson.get_string (Sjson.member "status" resp) <> "ok" then
             incr not_ok
         | Error e -> failwith ("serve-smoke: ping: " ^ e)
       end
       else begin
         let spec = specs.(idx mod nspecs) in
         match Core.Serve.Client.solve c spec with
         | Ok resp ->
           if Sjson.get_string (Sjson.member "status" resp) <> "ok" then
             incr not_ok;
           let got = Sjson.to_string (Sjson.member "result" resp) in
           if got <> Hashtbl.find expected spec then incr mismatches
         | Error e -> failwith ("serve-smoke: solve: " ^ e)
       end);
      i := !i + clients
    done;
    Core.Serve.Client.close c;
    (!mismatches, !pings, !not_ok)
  in
  let t0 = Obs.Clock.now_s () in
  let results =
    List.map Domain.join
      (List.init clients (fun cid -> Domain.spawn (fun () -> run_client cid)))
  in
  let replay_s = Obs.Clock.now_s () -. t0 in
  let mismatches = List.fold_left (fun a (m, _, _) -> a + m) 0 results in
  let pings = List.fold_left (fun a (_, p, _) -> a + p) 0 results in
  let not_ok = List.fold_left (fun a (_, _, n) -> a + n) 0 results in
  (* the server-side latency histogram *)
  let metrics = Obs.metrics obs in
  let lat =
    match List.assoc_opt "serve.latency_ms" metrics with
    | Some (Obs.Histogram h) -> h
    | _ -> failwith "serve-smoke: no serve.latency_ms histogram"
  in
  let p50 = Obs.Hist.quantile lat 0.5 in
  let p99 = Obs.Hist.quantile lat 0.99 in
  (* what a request costs against the resident state vs the stateless
     full-pool grounding it replaces, at equal concurrency *)
  let warm_speedup = unpruned_ms /. p50 in
  Printf.printf
    "replayed %d requests (%d pings) over %d clients x %d workers in %.1fs \
     (%.0f req/s)\n%!"
    total pings clients workers replay_s
    (float_of_int total /. replay_s);
  Printf.printf
    "latency p50 %.2f ms, p99 %.2f ms (%d samples); vs stateless %.1fx\n%!"
    p50 p99 (Obs.Hist.count lat) warm_speedup;
  let json =
    Sjson.Object
      [ ("host", host_json ~reps:1 ());
        ("requests", Sjson.Int total);
        ("workers", Sjson.Int workers);
        ("clients", Sjson.Int clients);
        ("pool_size", Sjson.Int (List.length pool));
        ("replay_seconds", Sjson.Float replay_s);
        ("throughput_rps", Sjson.Float (float_of_int total /. replay_s));
        ("cold_first_request_ms", Sjson.Float cold_ms);
        ("one_shot_pruned_ms", Sjson.Float one_shot_ms);
        ("stateless_baseline_ms", Sjson.Float unpruned_ms);
        ("latency_p50_ms", Sjson.Float p50);
        ("latency_p99_ms", Sjson.Float p99);
        ("warm_speedup", Sjson.Float warm_speedup);
        ("byte_mismatches", Sjson.Int mismatches);
        ("pings", Sjson.Int pings);
        ("statuses_not_ok", Sjson.Int not_ok) ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Sjson.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "[serve-smoke] wrote BENCH_serve.json\n%!";
  (* gates *)
  if mismatches > 0 then
    failwith
      (Printf.sprintf
         "serve-smoke: %d responses diverge byte-wise from one-shot solves"
         mismatches);
  if not_ok > 0 then
    failwith (Printf.sprintf "serve-smoke: %d requests did not answer ok" not_ok);
  if p50 > 250.0 then
    failwith (Printf.sprintf "serve-smoke: p50 %.1f ms > 250 ms" p50);
  if p99 > 2500.0 then
    failwith (Printf.sprintf "serve-smoke: p99 %.1f ms > 2500 ms" p99);
  if warm_speedup < 2.0 then
    failwith
      (Printf.sprintf
         "serve-smoke: p50 only %.2fx faster than stateless full-pool \
          grounding — the resident server is not paying for itself"
         warm_speedup)

(* Live-telemetry smoke (dune build @obs-live-smoke): the windowed
   stats, flight recorder, and enabled-path overhead of the solve
   server's telemetry layer.

     - agreement: replay a serve-smoke-style trace against a server
       whose telemetry horizon covers the whole replay. The wire
       "stats" windowed solve_ms histogram then summarizes exactly the
       samples of the server's cumulative serve.solve_ms histogram, so
       the windowed p99 must match the post-hoc p99 within one
       histogram bucket's relative error (bucket ratio 2^(1/4)) and
       the sample counts must match exactly.
     - recorder: a deliberately missed deadline (deadline_ms ~ 0) with
       a client-chosen rid must answer [timeout], echo the rid, and be
       retrievable via "dump" under the "deadline" keep class with a
       Perfetto-loadable span tree.
     - overhead: interleaved min-of-3 replays against two long-lived
       servers — telemetry on vs off, shared tracing disabled on both
       sides — gate the enabled path at <= 5% wall. *)
let obs_live_smoke () =
  Printf.printf
    "\n=== obs-live-smoke: live telemetry (windows + recorder + overhead) \
     ===\n\
     %!";
  let pool = local_pool () in
  let workers = 4 and clients = 4 in
  let specs = Array.of_list quick_specs in
  let nspecs = Array.length specs in
  let start ~telemetry ~obs tag =
    let options =
      { Core.Concretizer.default_options with Core.Concretizer.reuse = pool; obs }
    in
    let config =
      { Core.Serve.default_config with Core.Serve.workers; telemetry; options }
    in
    let socket =
      Printf.sprintf "/tmp/spackml-obslive-%d-%s.sock" (Unix.getpid ()) tag
    in
    match Core.Serve.start ~repo ~config ~socket () with
    | Ok t -> (t, socket)
    | Error e -> failwith ("obs-live-smoke: start " ^ tag ^ ": " ^ e)
  in
  let connect socket =
    match Core.Serve.Client.connect socket with
    | Ok c -> c
    | Error e -> failwith ("obs-live-smoke: connect: " ^ e)
  in
  let num = function
    | Sjson.Int n -> float_of_int n
    | Sjson.Float f -> f
    | _ -> failwith "obs-live-smoke: expected a JSON number"
  in
  (* Replay [total] solve requests round-robin over [clients] client
     domains. Returns wall seconds and the count of non-ok responses. *)
  let replay socket total =
    let run_client cid =
      let c = connect socket in
      let not_ok = ref 0 in
      let i = ref cid in
      while !i < total do
        let idx = !i in
        let spec = specs.(idx mod nspecs) in
        (match Core.Serve.Client.solve c spec with
        | Ok resp ->
          if Sjson.get_string (Sjson.member "status" resp) <> "ok" then
            incr not_ok
        | Error e -> failwith ("obs-live-smoke: solve: " ^ e));
        i := !i + clients
      done;
      Core.Serve.Client.close c;
      !not_ok
    in
    let t0 = Obs.Clock.now_s () in
    let not_ok =
      List.fold_left ( + ) 0
        (List.map Domain.join
           (List.init clients (fun cid -> Domain.spawn (fun () -> run_client cid))))
    in
    (Obs.Clock.now_s () -. t0, not_ok)
  in
  (* --- agreement + flight recorder: telemetry on, horizon >> replay --- *)
  let total = 500 in
  let obs = Obs.create () in
  let telemetry =
    Some { Core.Serve.default_telemetry with Core.Serve.horizon_s = 600. }
  in
  let t, socket = start ~telemetry ~obs "live" in
  let miss_rid = "bench-deadline-miss" in
  let replay_s, w_count, w_p50, w_p99, recorder_seen, recorder_kept =
    Fun.protect ~finally:(fun () -> Core.Serve.stop t) @@ fun () ->
    let replay_s, not_ok = replay socket total in
    if not_ok > 0 then
      failwith
        (Printf.sprintf "obs-live-smoke: %d replay requests not ok" not_ok);
    Printf.printf "replayed %d requests in %.1fs with live telemetry on\n%!"
      total replay_s;
    let c = connect socket in
    Fun.protect ~finally:(fun () -> Core.Serve.Client.close c) @@ fun () ->
    (* a missed deadline, tagged with a client-chosen rid *)
    (match
       Core.Serve.Client.solve ~deadline_ms:0.0001 ~rid:miss_rid c specs.(0)
     with
    | Ok resp ->
      let st = Sjson.get_string (Sjson.member "status" resp) in
      if st <> "timeout" then
        failwith ("obs-live-smoke: deadline_ms~0 solve answered " ^ st);
      if Sjson.get_string (Sjson.member "rid" resp) <> miss_rid then
        failwith "obs-live-smoke: response does not echo the client rid"
    | Error e -> failwith ("obs-live-smoke: deadline solve: " ^ e));
    (* the missed deadline is in the flight recorder, under its rid,
       with a Perfetto-loadable span tree *)
    let dump =
      match Core.Serve.Client.dump ~n:256 ~keep:"deadline" c with
      | Ok d -> Sjson.member "result" d
      | Error e -> failwith ("obs-live-smoke: dump: " ^ e)
    in
    let traces = Sjson.to_list (Sjson.member "traces" dump) in
    let mine =
      List.filter
        (fun tr -> Sjson.get_string (Sjson.member "rid" tr) = miss_rid)
        traces
    in
    (match mine with
    | [] ->
      failwith
        "obs-live-smoke: missed-deadline trace not retrievable via dump"
    | tr :: _ ->
      let events = Sjson.to_list (Sjson.member "traceEvents" (Sjson.member "trace" tr)) in
      let has_request_span =
        List.exists
          (fun ev ->
            match (Sjson.member_opt "name" ev, Sjson.member_opt "ph" ev) with
            | Some (Sjson.String "serve.request"), Some (Sjson.String "X") ->
              true
            | _ -> false)
          events
      in
      if not has_request_span then
        failwith
          "obs-live-smoke: dumped deadline trace lacks a serve.request span");
    Printf.printf "flight recorder: rid %s retrieved via dump (keep=deadline)\n%!"
      miss_rid;
    (* windowed stats over the full horizon *)
    let stats =
      match Core.Serve.Client.stats c with
      | Ok s -> Sjson.member "result" s
      | Error e -> failwith ("obs-live-smoke: stats: " ^ e)
    in
    let window =
      match Sjson.member_opt "window" stats with
      | Some w -> w
      | None -> failwith "obs-live-smoke: stats answer has no window block"
    in
    let wsolve = Sjson.member "solve_ms" window in
    let recorder = Sjson.member "recorder" window in
    ( replay_s,
      Sjson.get_int (Sjson.member "count" wsolve),
      num (Sjson.member "p50" wsolve),
      num (Sjson.member "p99" wsolve),
      Sjson.get_int (Sjson.member "seen" recorder),
      Sjson.get_int (Sjson.member "kept" recorder) )
  in
  (* post-hoc: the cumulative solve histogram the same requests fed *)
  let cum =
    match List.assoc_opt "serve.solve_ms" (Obs.metrics obs) with
    | Some (Obs.Histogram h) -> h
    | _ -> failwith "obs-live-smoke: no cumulative serve.solve_ms histogram"
  in
  let c_count = Obs.Hist.count cum in
  let c_p50 = Obs.Hist.quantile cum 0.5 in
  let c_p99 = Obs.Hist.quantile cum 0.99 in
  let bucket_ratio = Float.pow 2.0 0.25 in
  let p99_ratio = if c_p99 > 0.0 then w_p99 /. c_p99 else 1.0 in
  Printf.printf
    "windowed solve_ms p50 %.2f / p99 %.2f ms over %d samples; post-hoc p50 \
     %.2f / p99 %.2f ms over %d samples (p99 ratio %.3f, bucket %.3f)\n%!"
    w_p50 w_p99 w_count c_p50 c_p99 c_count p99_ratio bucket_ratio;
  (* --- overhead: telemetry on vs off, shared tracing disabled --- *)
  let rep_total = 480 and reps = 3 in
  let t_off, sock_off = start ~telemetry:None ~obs:Obs.disabled "off" in
  Fun.protect ~finally:(fun () -> Core.Serve.stop t_off) @@ fun () ->
  let t_on, sock_on =
    start ~telemetry:(Some Core.Serve.default_telemetry) ~obs:Obs.disabled "on"
  in
  Fun.protect ~finally:(fun () -> Core.Serve.stop t_on) @@ fun () ->
  (* warm both servers outside the measurement *)
  ignore (replay sock_off (4 * nspecs));
  ignore (replay sock_on (4 * nspecs));
  let off_min = ref infinity and on_min = ref infinity in
  for _ = 1 to reps do
    let s_off, n_off = replay sock_off rep_total in
    let s_on, n_on = replay sock_on rep_total in
    if n_off > 0 || n_on > 0 then
      failwith "obs-live-smoke: overhead replay requests not ok";
    off_min := Float.min !off_min s_off;
    on_min := Float.min !on_min s_on
  done;
  let overhead_pct = ((!on_min /. !off_min) -. 1.0) *. 100.0 in
  Printf.printf
    "overhead: %d fresh solves, min of %d reps: telemetry off %.3fs, on %.3fs \
     (%+.2f%%)\n%!"
    rep_total reps !off_min !on_min overhead_pct;
  (* record alongside the serve-smoke numbers without clobbering them *)
  let bench_file = "BENCH_serve.json" in
  let existing =
    if Sys.file_exists bench_file then (
      try
        let ic = open_in_bin bench_file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Sjson.of_string s with Sjson.Object kvs -> kvs | _ -> []
      with _ -> [])
    else []
  in
  let obs_live =
    Sjson.Object
      [ ("requests", Sjson.Int total);
        ("workers", Sjson.Int workers);
        ("clients", Sjson.Int clients);
        ("replay_seconds", Sjson.Float replay_s);
        ("windowed_count", Sjson.Int w_count);
        ("windowed_p50_ms", Sjson.Float w_p50);
        ("windowed_p99_ms", Sjson.Float w_p99);
        ("posthoc_count", Sjson.Int c_count);
        ("posthoc_p50_ms", Sjson.Float c_p50);
        ("posthoc_p99_ms", Sjson.Float c_p99);
        ("p99_ratio", Sjson.Float p99_ratio);
        ("bucket_ratio", Sjson.Float bucket_ratio);
        ("recorder_seen", Sjson.Int recorder_seen);
        ("recorder_kept", Sjson.Int recorder_kept);
        ("overhead_requests_per_rep", Sjson.Int rep_total);
        ("overhead_reps", Sjson.Int reps);
        ("telemetry_off_min_s", Sjson.Float !off_min);
        ("telemetry_on_min_s", Sjson.Float !on_min);
        ("overhead_pct", Sjson.Float overhead_pct) ]
  in
  let merged =
    List.remove_assoc "obs_live" existing @ [ ("obs_live", obs_live) ]
  in
  let oc = open_out bench_file in
  output_string oc (Sjson.to_string ~pretty:true (Sjson.Object merged));
  output_string oc "\n";
  close_out oc;
  Printf.printf "[obs-live-smoke] merged obs_live into %s\n%!" bench_file;
  (* gates *)
  if w_count <> c_count then
    failwith
      (Printf.sprintf
         "obs-live-smoke: windowed histogram saw %d solves, post-hoc saw %d"
         w_count c_count);
  if recorder_seen < w_count then
    failwith
      (Printf.sprintf
         "obs-live-smoke: recorder saw %d requests for %d solves" recorder_seen
         w_count);
  let tol = bucket_ratio *. 1.0001 in
  if p99_ratio > tol || p99_ratio < 1.0 /. tol then
    failwith
      (Printf.sprintf
         "obs-live-smoke: windowed p99 %.2f ms diverges from post-hoc %.2f ms \
          by more than one bucket (ratio %.3f, allowed %.3f)"
         w_p99 c_p99 p99_ratio tol);
  if !on_min > !off_min *. 1.05 then
    failwith
      (Printf.sprintf
         "obs-live-smoke: live telemetry costs %.2f%% wall (> 5%% gate)"
         overhead_pct)

(* Parallel-installer storm (dune build @install-storm): a synthetic
   universe of wide DAGs with fattened per-node payloads, installed
   from a local buildcache and through a faulty mirror fleet.

     - Phase A, speedup: one wide plan at --jobs 1/2/4; reports must
       be byte-identical across schedules, and jobs-4 must clear 2x
       over serial — the ready-set scheduler gate;
     - Phase B, storm: hundreds of overlapping installs race from 4
       client domains onto ONE shared store through a 24-mirror
       fleet with per-mirror fault/latency profiles; every
       install must succeed, the store must converge byte-for-byte to
       the serial union and hold no leftover claim, and p50/p99
       per-node latency comes from the install.node_ms histogram;
     - Phase C, crash: the same storm is crashed mid-flight, the store
       recovered (timed), and a faultless re-run must converge.

   The numbers land in BENCH_install.json. *)
let install_storm () =
  let open Spec.Types in
  Printf.printf "\n=== install-storm: parallel crash-safe installer ===\n%!";
  (* -- synthetic universe; fat payload variants give each node real
     CPU weight (digests, codec, relocation scans) -- *)
  let blob seed =
    let b = Bytes.create 4096 in
    let s = ref ((seed * 2654435761) land 0x3fffffff) in
    for i = 0 to Bytes.length b - 1 do
      s := ((!s * 1103515245) + 12345) land 0x3fffffff;
      Bytes.set b i (Char.chr (32 + (!s mod 94)))
    done;
    Bytes.to_string b
  in
  let leaves = 12 and mids = 48 and apps = 24 in
  let leaf i = Printf.sprintf "lib%02d" i in
  let mid i = Printf.sprintf "mid%02d" i in
  let app i = Printf.sprintf "app%02d" i in
  let mid_deps i = List.init 5 (fun k -> leaf ((i + k) mod leaves)) in
  let app_deps i = List.init 6 (fun k -> mid (((2 * i) + k) mod mids)) in
  let pkg name deps =
    List.fold_left
      (fun p d -> Pkg.Package.depends_on d p)
      Pkg.Package.(make name |> version "1.0")
      deps
  in
  let repo =
    Pkg.Repo.of_packages
      (List.init leaves (fun i -> pkg (leaf i) [])
      @ List.init mids (fun i -> pkg (mid i) (mid_deps i))
      @ List.init apps (fun i -> pkg (app i) (app_deps i))
      @ [ pkg "wide" (List.init mids mid) ])
  in
  let node name =
    { Spec.Concrete.name; version = Vers.Version.of_string "1.0";
      variants = Smap.singleton "payload" (Str (blob (Hashtbl.hash name)));
      os = "linux"; target = "x86_64"; build_hash = None }
  in
  let dedup l = List.sort_uniq String.compare l in
  let spec_of root deps_of =
    (* nodes = the closure of [root]; edges all dt_link *)
    let rec closure acc n =
      if List.mem n acc then acc
      else List.fold_left closure (n :: acc) (deps_of n)
    in
    let names = dedup (closure [] root) in
    Spec.Concrete.create ~root ~nodes:(List.map node names)
      ~edges:
        (List.concat_map
           (fun n -> List.map (fun d -> (n, d, dt_link)) (deps_of n))
           names)
      ()
  in
  let deps_of n =
    if n = "wide" then List.init mids mid
    else
      match int_of_string_opt (String.sub n 3 2) with
      | Some i when String.length n = 5 && String.sub n 0 3 = "mid" ->
        mid_deps i
      | Some i when String.length n = 5 && String.sub n 0 3 = "app" ->
        app_deps i
      | _ -> []
  in
  let wide = spec_of "wide" deps_of in
  let app_specs = List.init apps (fun i -> spec_of (app i) deps_of) in
  (* -- populate the origin cache once; push dedups shared nodes -- *)
  let farm = Binary.Store.create ~root:"/farm" (Binary.Vfs.create ()) in
  ignore (Binary.Errors.ok_exn (Binary.Builder.build_all farm ~repo wide));
  List.iter
    (fun s -> ignore (Binary.Errors.ok_exn (Binary.Builder.build_all farm ~repo s)))
    app_specs;
  let origin = Binary.Buildcache.create ~name:"origin" in
  List.iter
    (fun s -> ignore (Binary.Buildcache.push_exn origin farm s))
    (wide :: app_specs);
  let fresh () =
    let vfs = Binary.Vfs.create () in
    (vfs, Binary.Store.create ~root:"/ice" vfs)
  in
  let fast_policy =
    { Binary.Mirror.default_retry with
      Binary.Mirror.base_delay_ms = 1.0; max_delay_ms = 8.0 }
  in
  (* -- Phase A: scheduler speedup on the wide plan. Delivery is
     latency-bound (each fetch really sleeps fp_latency_ms, as network
     fetches are in production): the win to measure is the scheduler
     overlapping per-node delivery waits, not CPU parallelism, so the
     gate holds on any core count. -- *)
  (* each serial/jobs timing is the best of this many installs; every
     rep's time and their median are recorded next to it *)
  let timing_reps = 3 in
  let delivery () =
    Binary.Mirror.group ~policy:fast_policy
      (List.init 4 (fun i ->
           Binary.Mirror.create
             ~name:(Printf.sprintf "d%d" i)
             ~faults:
               { Binary.Mirror.no_faults with
                 Binary.Mirror.fp_latency_ms = 10.0; fp_wall = true }
             origin))
  in
  let timed_install jobs =
    let report = ref None in
    let times =
      List.init timing_reps (fun _ ->
          let _, store = fresh () in
          let mirrors = delivery () in
          let t0 = Obs.Clock.now_s () in
          let r =
            Binary.Errors.ok_exn
              (Binary.Installer.install store ~repo ~mirrors ~jobs wide)
          in
          report := Some r;
          (Obs.Clock.now_s () -. t0) *. 1000.0)
    in
    (List.fold_left min infinity times, times, Option.get !report)
  in
  let serial_ms, serial_times, serial_rep = timed_install 1 in
  let jobs2_ms, jobs2_times, jobs2_rep = timed_install 2 in
  let jobs4_ms, jobs4_times, jobs4_rep = timed_install 4 in
  let spread name times =
    [ (name ^ "_reps", Sjson.Array (List.map (fun t -> Sjson.Float t) times));
      (name ^ "_median", Sjson.Float (median times)) ]
  in
  let canon = Binary.Installer.canonical_report serial_rep in
  List.iter
    (fun (jobs, rep) ->
      if Binary.Installer.canonical_report rep <> canon then
        failwith
          (Printf.sprintf
             "install-storm: jobs-%d report diverges byte-wise from serial"
             jobs))
    [ (2, jobs2_rep); (4, jobs4_rep) ];
  let speedup4 = serial_ms /. jobs4_ms in
  Printf.printf
    "install-storm wide plan (%d nodes): serial %.1f ms, jobs-2 %.1f ms, \
     jobs-4 %.1f ms (%.2fx)\n%!"
    (List.length (Spec.Concrete.nodes wide))
    serial_ms jobs2_ms jobs4_ms speedup4;
  (* -- Phase B: overlapping installs onto one store via a faulty
     fleet. fast_policy's 1-ms base delay sits below every fleet
     mirror's latency (2-80 ms), so an untried mirror ranks ahead of
     every measured one with as few consecutive failures. -- *)
  let union_fp =
    let _, store = fresh () in
    List.iter
      (fun s ->
        ignore
          (Binary.Errors.ok_exn
             (Binary.Installer.install store ~repo ~caches:[ origin ] s)))
      app_specs;
    Binary.Store.fingerprint store
  in
  let obs = Obs.create () in
  let fleet_size = 24 and storm_domains = 4 and storm_installs = 240 in
  let fleet =
    Binary.Mirror.fleet ~seed:7 ~policy:fast_policy ~obs ~size:fleet_size origin
  in
  let _, storm_store = fresh () in
  let specs = Array.of_list app_specs in
  let t0 = Obs.Clock.now_s () in
  let failures =
    List.init storm_domains (fun d ->
        Domain.spawn (fun () ->
            let bad = ref 0 in
            let i = ref d in
            while !i < storm_installs do
              (match
                 Binary.Installer.install storm_store ~repo ~mirrors:fleet ~obs
                   specs.(!i mod Array.length specs)
               with
              | Ok _ -> ()
              | Error _ -> incr bad);
              i := !i + storm_domains
            done;
            !bad))
    |> List.map Domain.join |> List.fold_left ( + ) 0
  in
  let storm_wall_ms = (Obs.Clock.now_s () -. t0) *. 1000.0 in
  if failures > 0 then
    failwith
      (Printf.sprintf "install-storm: %d of %d storm installs failed" failures
         storm_installs);
  if Binary.Store.in_flight storm_store <> [] then
    failwith "install-storm: storm left claims in flight";
  if Binary.Store.fingerprint storm_store <> union_fp then
    failwith "install-storm: storm store diverged from the serial union";
  let node_hist =
    match List.assoc_opt "install.node_ms" (Obs.metrics obs) with
    | Some (Obs.Histogram h) -> h
    | _ -> failwith "install-storm: no install.node_ms histogram"
  in
  let node_p50 = Obs.Hist.quantile node_hist 0.5 in
  let node_p99 = Obs.Hist.quantile node_hist 0.99 in
  let throughput = float_of_int storm_installs /. (storm_wall_ms /. 1000.0) in
  Printf.printf
    "install-storm storm: %d installs over %d domains via %d mirrors in %.0f \
     ms (%.1f installs/s), node p50 %.2f ms p99 %.2f ms\n%!"
    storm_installs storm_domains fleet_size storm_wall_ms throughput node_p50
    node_p99;
  (* -- Phase C: crash mid-storm, timed recovery, converging re-run -- *)
  let vfs, crash_store = fresh () in
  let crash_at =
    (* roughly half of one plan's mutations: always mid-flight *)
    let _, probe = fresh () in
    ignore
      (Binary.Errors.ok_exn
         (Binary.Installer.install probe ~repo ~caches:[ origin ]
            (List.hd app_specs)));
    Binary.Store.write_count probe / 2
  in
  Binary.Store.set_crash_after crash_store (Some crash_at);
  let crashed =
    List.init storm_domains (fun d ->
        Domain.spawn (fun () ->
            match
              Binary.Installer.install crash_store ~repo ~caches:[ origin ]
                specs.(d)
            with
            | exception Binary.Store.Crashed _ -> 1
            | Ok _ | Error _ -> 0))
    |> List.map Domain.join |> List.fold_left ( + ) 0
  in
  if crashed = 0 then
    failwith "install-storm: crash plan fired no Crashed on any domain";
  let t0 = Obs.Clock.now_s () in
  let recovered, recovery = Binary.Store.recover ~root:"/ice" vfs in
  let recover_ms = (Obs.Clock.now_s () -. t0) *. 1000.0 in
  List.init storm_domains (fun d ->
      Domain.spawn (fun () ->
          Binary.Installer.install recovered ~repo ~caches:[ origin ] specs.(d)))
  |> List.iter (fun dom ->
         match Domain.join dom with
         | Ok _ -> ()
         | Error e ->
           failwith ("install-storm: post-recovery re-run failed: "
                     ^ Binary.Errors.to_string e));
  let partial_fp =
    let _, store = fresh () in
    List.iter
      (fun d ->
        ignore
          (Binary.Errors.ok_exn
             (Binary.Installer.install store ~repo ~caches:[ origin ] specs.(d))))
      (List.init storm_domains Fun.id);
    Binary.Store.fingerprint store
  in
  if Binary.Store.fingerprint recovered <> partial_fp then
    failwith "install-storm: post-crash recovery diverged";
  Printf.printf
    "install-storm crash: %d/%d domains crashed at write %d; recovery %.2f ms \
     (%s), re-run converged\n%!"
    crashed storm_domains crash_at recover_ms
    (Format.asprintf "%a" Binary.Store.pp_recovery recovery);
  (* -- report + gates -- *)
  let json =
    Sjson.Object
      ([ ("host", host_json ~reps:timing_reps ());
         ("wide_nodes", Sjson.Int (List.length (Spec.Concrete.nodes wide)));
         ("serial_ms", Sjson.Float serial_ms);
         ("jobs2_ms", Sjson.Float jobs2_ms);
         ("jobs4_ms", Sjson.Float jobs4_ms) ]
      @ spread "serial_ms" serial_times
      @ spread "jobs2_ms" jobs2_times
      @ spread "jobs4_ms" jobs4_times
      @ [ ("speedup_jobs4", Sjson.Float speedup4);
          ("storm_installs", Sjson.Int storm_installs);
          ("storm_domains", Sjson.Int storm_domains);
          ("fleet_size", Sjson.Int fleet_size);
          ("storm_wall_ms", Sjson.Float storm_wall_ms);
          ("storm_installs_per_s", Sjson.Float throughput);
          ("node_p50_ms", Sjson.Float node_p50);
          ("node_p99_ms", Sjson.Float node_p99);
          ("crash_write", Sjson.Int crash_at);
          ("recover_ms", Sjson.Float recover_ms) ])
  in
  let oc = open_out "BENCH_install.json" in
  output_string oc (Sjson.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "[install-storm] wrote BENCH_install.json\n%!";
  if speedup4 < 2.0 then
    failwith
      (Printf.sprintf
         "install-storm: jobs-4 speedup %.2fx < 2x — the scheduler is not \
          paying for itself"
         speedup4);
  if node_p99 > 250.0 then
    failwith
      (Printf.sprintf "install-storm: node p99 %.2f ms > 250 ms" node_p99);
  if recover_ms > 1000.0 then
    failwith
      (Printf.sprintf "install-storm: recovery took %.0f ms > 1000 ms"
         recover_ms)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let commands = ref [] in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest ->
      reps := int_of_string n;
      parse rest
    | "--public-nodes" :: n :: rest ->
      public_nodes := int_of_string n;
      parse rest
    | "--full" :: rest ->
      quick := false;
      parse rest
    | "--sizes" :: s :: rest ->
      fig7_sizes :=
        Some (List.map int_of_string (String.split_on_char ',' s));
      parse rest
    | cmd :: rest ->
      commands := cmd :: !commands;
      parse rest
  in
  parse args;
  let commands = match List.rev !commands with [] -> [ "all" ] | l -> l in
  let dispatch = function
    | "table1" -> table1 ()
    | "fig5" -> fig5 ()
    | "fig6" -> fig6 ()
    | "fig7" ->
      fig7 ();
      fig7_pool ?sizes:!fig7_sizes ()
    | "fig7b" -> fig7_pool ?sizes:!fig7_sizes ()
    | "ablate" -> ablate ()
    | "micro" -> micro ()
    | "fuzz-smoke" -> fuzz_smoke ()
    | "resil-smoke" -> resil_smoke ()
    | "perf-smoke" -> perf_smoke ()
    | "sat-smoke" -> sat_smoke ()
    | "obs-smoke" -> obs_smoke ()
    | "serve-smoke" -> serve_smoke ()
    | "obs-live-smoke" -> obs_live_smoke ()
    | "install-storm" -> install_storm ()
    | "all" ->
      table1 ();
      micro ();
      fig5 ();
      fig6 ();
      fig7 ();
      fig7_pool ?sizes:!fig7_sizes ();
      ablate ()
    | other ->
      Printf.eprintf
        "unknown command %s (try \
         table1|fig5|fig6|fig7|ablate|micro|fuzz-smoke|resil-smoke|perf-smoke|sat-smoke|obs-smoke|serve-smoke|obs-live-smoke|install-storm|all)\n"
        other;
      exit 2
  in
  List.iter dispatch commands
