(* Resilience oracle: install through the fault-injected mirror layer
   and demand that nothing semantic ever depends on the weather.

   For every generated universe and seeded fault plan:

   - with fallback enabled, [Installer.install] over faulty mirrors
     must succeed and produce a store whose {!Binary.Store.fingerprint}
     is byte-identical to the fault-free run's (degrading to source
     builds is allowed; diverging is not), with the root still linking
     whenever the fault-free root linked;
   - with fallback disabled, it must either converge identically or
     fail with a typed {!Binary.Errors.t} leaving the store with the
     empty fingerprint (untouched);
   - with a crash injected at an arbitrary store mutation,
     {!Binary.Store.recover} must resolve the journal completely
     (no staging or journal residue), and resuming the install on the
     recovered store must converge to the fault-free fingerprint. *)

type plan = {
  pl_mirrors : (string * Binary.Mirror.fault_plan) list;
  pl_crash_at : int;  (* reduced mod the run's write count at use *)
  pl_jobs : int;  (* domains for the parallel-schedule scenarios *)
}

let pp_plan fmt p =
  List.iter
    (fun (name, fp) ->
      Format.fprintf fmt "%s: %a@." name Binary.Mirror.pp_fault_plan fp)
    p.pl_mirrors;
  Format.fprintf fmt "crash-at: %d jobs: %d@." p.pl_crash_at p.pl_jobs

let gen_fault_plan rng =
  { Binary.Mirror.fp_seed = Rng.int rng 1_000_000;
    fp_transient_pct = Rng.pick rng [ 0; 10; 30; 60 ];
    fp_corrupt_pct = Rng.pick rng [ 0; 0; 15; 40 ];
    fp_latency_ms = float_of_int (Rng.int rng 20);
    fp_wall = false;
    fp_outage_after = (if Rng.chance rng 30 then Some (Rng.int rng 20) else None);
    fp_outage_len = (if Rng.chance rng 50 then Some (Rng.range rng 1 10) else None) }

let gen_plan rng =
  let mirror_count = Rng.range rng 1 3 in
  { pl_mirrors =
      List.init mirror_count (fun i ->
          (Printf.sprintf "m%d" i, gen_fault_plan rng));
    pl_crash_at = Rng.int rng 10_000;
    pl_jobs = Rng.pick rng [ 2; 2; 3; 4 ] }

type stats = {
  mutable installs_converged : int;
  mutable degraded_converged : int;  (* converged despite taking a fallback *)
  mutable typed_failures_clean : int;  (* no-fallback error, store untouched *)
  mutable crashes_recovered : int;
  mutable parallel_converged : int;  (* jobs-N runs byte-equal to serial *)
  mutable parallel_crashes_recovered : int;
  mutable storms_converged : int;  (* concurrent multi-install unions *)
  mutable entries_quarantined : int;
}

let fresh_stats () =
  { installs_converged = 0;
    degraded_converged = 0;
    typed_failures_clean = 0;
    crashes_recovered = 0;
    parallel_converged = 0;
    parallel_crashes_recovered = 0;
    storms_converged = 0;
    entries_quarantined = 0 }

let add_stats a b =
  a.installs_converged <- a.installs_converged + b.installs_converged;
  a.degraded_converged <- a.degraded_converged + b.degraded_converged;
  a.typed_failures_clean <- a.typed_failures_clean + b.typed_failures_clean;
  a.crashes_recovered <- a.crashes_recovered + b.crashes_recovered;
  a.parallel_converged <- a.parallel_converged + b.parallel_converged;
  a.parallel_crashes_recovered <-
    a.parallel_crashes_recovered + b.parallel_crashes_recovered;
  a.storms_converged <- a.storms_converged + b.storms_converged;
  a.entries_quarantined <- a.entries_quarantined + b.entries_quarantined

let pp_stats fmt s =
  Format.fprintf fmt
    "converged=%d degraded-converged=%d typed-clean=%d crashes-recovered=%d \
     parallel=%d parallel-crashes=%d storms=%d quarantined=%d"
    s.installs_converged s.degraded_converged s.typed_failures_clean
    s.crashes_recovered s.parallel_converged s.parallel_crashes_recovered
    s.storms_converged s.entries_quarantined

let store_root = "/ice"

let empty_fingerprint =
  lazy (Binary.Store.fingerprint (Binary.Store.create ~root:store_root (Binary.Vfs.create ())))

let link_ok (r : Binary.Installer.report) =
  match r.Binary.Installer.link_result with Ok _ -> true | Error _ -> false

let check ?(stats = fresh_stats ()) (u : Gen.t) plan =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (try
     let repo = Gen.to_repo u in
     (* Populate one buildcache from the cache roots, exactly as the
        base oracle does; it is the truth every mirror fronts. *)
     let farm = Binary.Store.create ~root:"/farm" (Binary.Vfs.create ()) in
     let cache = Binary.Buildcache.create ~name:"origin" in
     List.iter
       (fun r ->
         match Core.Concretizer.concretize_spec ~repo r with
         | Error _ -> ()
         | Ok o -> (
           let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
           match Binary.Builder.build_all farm ~repo spec with
           | Error e -> fail "cache build %s: %s" r (Binary.Errors.to_string e)
           | Ok _ -> (
             match Binary.Buildcache.push cache farm spec with
             | Error e -> fail "cache push %s: %s" r (Binary.Errors.to_string e)
             | Ok _ -> ())))
       u.Gen.u_cache_roots;
     let pool = Binary.Buildcache.specs cache in
     let options =
       { Core.Concretizer.default_options with
         Core.Concretizer.reuse = pool;
         splicing = pool <> [] }
     in
     let fresh_mirrors ?(faultless = false) () =
       Binary.Mirror.group
         (List.map
            (fun (name, fp) ->
              Binary.Mirror.create
                ~faults:(if faultless then Binary.Mirror.no_faults else fp)
                ~name cache)
            plan.pl_mirrors)
     in
     let quarantined g =
       List.fold_left
         (fun acc m -> acc + List.length (Binary.Mirror.quarantined m))
         0 (Binary.Mirror.mirrors g)
     in
     let storm_specs = ref [] in
     List.iter
       (fun r ->
         match Core.Concretizer.concretize_spec ~repo ~options r with
         | Error _ -> ()  (* random universes may be UNSAT *)
         | Ok o -> (
           let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
           (* fault-free reference *)
           let ref_store =
             Binary.Store.create ~root:store_root (Binary.Vfs.create ())
           in
           match
             Binary.Installer.install ref_store ~repo ~caches:[ cache ] spec
           with
           | Error e ->
             fail "request %s: fault-free install failed: %s" r
               (Binary.Errors.to_string e)
           | Ok ref_report -> (
             let ref_fp = Binary.Store.fingerprint ref_store in
             storm_specs := spec :: !storm_specs;
             (* 1. faulty mirrors, degradation allowed: must converge *)
             let store =
               Binary.Store.create ~root:store_root (Binary.Vfs.create ())
             in
             let g = fresh_mirrors () in
             let writes_observed = ref 0 in
             (match Binary.Installer.install store ~repo ~mirrors:g spec with
             | Error e ->
               fail "request %s: faulty install failed despite fallback: %s" r
                 (Binary.Errors.to_string e)
             | Ok rep ->
               writes_observed := Binary.Store.write_count store;
               stats.entries_quarantined <-
                 stats.entries_quarantined + quarantined g;
               if Binary.Store.fingerprint store <> ref_fp then
                 fail "request %s: faulty install diverged from fault-free state" r
               else begin
                 stats.installs_converged <- stats.installs_converged + 1;
                 if Binary.Installer.degraded_count rep > 0 then
                   stats.degraded_converged <- stats.degraded_converged + 1
               end;
               if link_ok ref_report && not (link_ok rep) then
                 fail "request %s: faulty install broke the root link" r);
             (* 2. no fallback: converge or fail typed with store untouched *)
             let store2 =
               Binary.Store.create ~root:store_root (Binary.Vfs.create ())
             in
             (match
                Binary.Installer.install store2 ~repo
                  ~mirrors:(fresh_mirrors ()) ~fallback:false spec
              with
             | Ok _ ->
               if Binary.Store.fingerprint store2 <> ref_fp then
                 fail "request %s: no-fallback install diverged" r
             | Error _ ->
               if Binary.Store.fingerprint store2 <> Lazy.force empty_fingerprint
               then
                 fail "request %s: typed failure left the store modified" r
               else
                 stats.typed_failures_clean <- stats.typed_failures_clean + 1);
             (* 3. crash mid-install, recover, resume: must converge *)
             if !writes_observed > 0 then begin
               let crash_at = plan.pl_crash_at mod !writes_observed in
               let vfs = Binary.Vfs.create () in
               let store3 = Binary.Store.create ~root:store_root vfs in
               Binary.Store.set_crash_after store3 (Some crash_at);
               match
                 Binary.Installer.install store3 ~repo ~mirrors:(fresh_mirrors ())
                   spec
               with
               | exception Binary.Store.Crashed _ -> (
                 match Binary.Store.recover ~root:store_root vfs with
                 | exception Binary.Errors.Binary_error e ->
                   fail "request %s: recovery failed: %s" r
                     (Binary.Errors.to_string e)
                 | recovered, _report -> (
                   if
                     Binary.Vfs.list_prefix vfs (store_root ^ "/.journal") <> []
                     || Binary.Vfs.list_prefix vfs (store_root ^ "/.staging") <> []
                   then
                     fail "request %s: recovery left journal/staging residue" r;
                   match
                     Binary.Installer.install recovered ~repo
                       ~mirrors:(fresh_mirrors ~faultless:true ()) spec
                   with
                   | Error e ->
                     fail "request %s: resumed install after crash failed: %s" r
                       (Binary.Errors.to_string e)
                   | Ok _ ->
                     if Binary.Store.fingerprint recovered <> ref_fp then
                       fail
                         "request %s: crash at write %d + recover + resume diverged"
                         r crash_at
                     else stats.crashes_recovered <- stats.crashes_recovered + 1))
               | Ok _ ->
                 (* the fault dice rolled differently and the crash point
                    was never reached: still must have converged *)
                 if Binary.Store.fingerprint store3 <> ref_fp then
                   fail "request %s: uncrashed run diverged" r
               | Error e ->
                 fail "request %s: crash-run install failed typed: %s" r
                   (Binary.Errors.to_string e)
             end;
             (* 4. parallel schedule, faultless: the report must be
                byte-identical to the serial one, not just the store *)
             let store4 =
               Binary.Store.create ~root:store_root (Binary.Vfs.create ())
             in
             (match
                Binary.Installer.install store4 ~repo ~caches:[ cache ]
                  ~jobs:plan.pl_jobs spec
              with
             | Error e ->
               fail "request %s: jobs-%d install failed: %s" r plan.pl_jobs
                 (Binary.Errors.to_string e)
             | Ok rep4 ->
               if Binary.Store.fingerprint store4 <> ref_fp then
                 fail "request %s: jobs-%d install diverged from serial state" r
                   plan.pl_jobs
               else if
                 Binary.Installer.canonical_report rep4
                 <> Binary.Installer.canonical_report ref_report
               then
                 fail "request %s: jobs-%d report differs from serial report" r
                   plan.pl_jobs
               else stats.parallel_converged <- stats.parallel_converged + 1);
             (* 5. crash a parallel faulty run, recover, resume serially:
                the write count under contention depends on the
                interleaving, so the crash point is sampled, not swept —
                the exhaustive per-write sweep lives in the unit tests *)
             if !writes_observed > 0 then begin
               let crash_at =
                 ((plan.pl_crash_at * 7) + 3) mod !writes_observed
               in
               let vfs5 = Binary.Vfs.create () in
               let store5 = Binary.Store.create ~root:store_root vfs5 in
               Binary.Store.set_crash_after store5 (Some crash_at);
               match
                 Binary.Installer.install store5 ~repo
                   ~mirrors:(fresh_mirrors ()) ~jobs:plan.pl_jobs spec
               with
               | exception Binary.Store.Crashed _ -> (
                 match Binary.Store.recover ~root:store_root vfs5 with
                 | exception Binary.Errors.Binary_error e ->
                   fail "request %s: parallel-crash recovery failed: %s" r
                     (Binary.Errors.to_string e)
                 | recovered, _report -> (
                   if
                     Binary.Vfs.list_prefix vfs5 (store_root ^ "/.journal") <> []
                     || Binary.Vfs.list_prefix vfs5 (store_root ^ "/.staging")
                        <> []
                   then
                     fail
                       "request %s: parallel-crash recovery left journal/staging \
                        residue"
                       r;
                   match
                     Binary.Installer.install recovered ~repo
                       ~mirrors:(fresh_mirrors ~faultless:true ()) spec
                   with
                   | Error e ->
                     fail "request %s: resume after parallel crash failed: %s" r
                       (Binary.Errors.to_string e)
                   | Ok _ ->
                     if Binary.Store.fingerprint recovered <> ref_fp then
                       fail
                         "request %s: jobs-%d crash at write %d + recover + \
                          resume diverged"
                         r plan.pl_jobs crash_at
                     else
                       stats.parallel_crashes_recovered <-
                         stats.parallel_crashes_recovered + 1))
               | Ok _ ->
                 if Binary.Store.fingerprint store5 <> ref_fp then
                   fail "request %s: uncrashed jobs-%d run diverged" r
                     plan.pl_jobs
               | Error e ->
                 fail "request %s: parallel crash-run failed typed: %s" r
                   (Binary.Errors.to_string e)
             end)))
       (u.Gen.u_cache_roots @ u.Gen.u_requests);
     (* 6. install storm: several independent installs — including two of
        the same spec, to force cross-install claim contention — race
        onto one shared store through one simulated mirror fleet. The
        union must equal the serial union, and no claim may leak. *)
     (match List.rev !storm_specs with
      | [] -> ()
      | specs ->
        let take n l =
          List.filteri (fun i _ -> i < n) l
        in
        let distinct = take 3 specs in
        let racers = distinct @ take 1 distinct in
        let ref_union =
          Binary.Store.create ~root:store_root (Binary.Vfs.create ())
        in
        let union_ok =
          List.for_all
            (fun s ->
              match
                Binary.Installer.install ref_union ~repo ~caches:[ cache ] s
              with
              | Ok _ -> true
              | Error e ->
                fail "storm reference install failed: %s"
                  (Binary.Errors.to_string e);
                false)
            distinct
        in
        if union_ok then begin
          let storm_store =
            Binary.Store.create ~root:store_root (Binary.Vfs.create ())
          in
          let fleet =
            Binary.Mirror.fleet ~seed:plan.pl_crash_at ~size:8 cache
          in
          let results =
            List.map
              (fun s ->
                Domain.spawn (fun () ->
                    Binary.Installer.install storm_store ~repo ~mirrors:fleet s))
              racers
            |> List.map Domain.join
          in
          List.iter
            (function
              | Ok _ -> ()
              | Error e ->
                fail "storm install failed despite fallback: %s"
                  (Binary.Errors.to_string e))
            results;
          if Binary.Store.in_flight storm_store <> [] then
            fail "storm left claims in flight";
          if
            Binary.Store.fingerprint storm_store
            <> Binary.Store.fingerprint ref_union
          then fail "storm union diverged from serial union"
          else stats.storms_converged <- stats.storms_converged + 1
        end)
   with
  | Binary.Store.Crashed w ->
    violations := Printf.sprintf "unexpected crash escaped: %s" w :: !violations
  | e ->
    violations := Printf.sprintf "exception: %s" (Printexc.to_string e) :: !violations);
  List.rev !violations

(* ---- harness ------------------------------------------------------- *)

type failure = {
  round : int;
  violations : string list;
  plan : plan;
  shrunk : Gen.t;
  shrunk_violations : string list;
}

type report = {
  seed : int;
  rounds : int;
  stats : stats;
  failures : failure list;
}

let plan_for ~seed ~round =
  gen_plan (Rng.create ((seed * 2_000_003) + round))

let run ?(log = ignore) ~seed ~rounds () =
  let stats = fresh_stats () in
  let failures = ref [] in
  for round = 0 to rounds - 1 do
    let u = Harness.universe ~seed ~round in
    let plan = plan_for ~seed ~round in
    match check ~stats u plan with
    | [] ->
      if round mod 10 = 0 then
        log (Printf.sprintf "resil round %d ok (%s)" round (Gen.summary u))
    | violations ->
      log
        (Printf.sprintf "resil round %d: %d violation(s); shrinking %s" round
           (List.length violations) (Gen.summary u));
      let still_fails u' = check u' plan <> [] in
      let shrunk = Shrink.shrink ~still_fails u in
      failures :=
        { round; violations; plan; shrunk; shrunk_violations = check shrunk plan }
        :: !failures
  done;
  { seed; rounds; stats; failures = List.rev !failures }

let pp_failure fmt f =
  Format.fprintf fmt "round %d: %d violation(s)@." f.round
    (List.length f.violations);
  List.iter (fun v -> Format.fprintf fmt "  - %s@." v) f.violations;
  Format.fprintf fmt "fault plan:@.%a" pp_plan f.plan;
  Format.fprintf fmt "shrunk to %s:@." (Gen.summary f.shrunk);
  List.iter (fun v -> Format.fprintf fmt "  - %s@." v) f.shrunk_violations;
  Format.fprintf fmt "--- paste-ready reproducer ---@.%s" (Gen.to_ocaml f.shrunk)

let pp_report fmt r =
  Format.fprintf fmt "resil: seed %d, %d rounds, %a@." r.seed r.rounds pp_stats
    r.stats;
  match r.failures with
  | [] -> Format.fprintf fmt "no violations@."
  | fs ->
    Format.fprintf fmt "%d failing round(s)@." (List.length fs);
    List.iter (fun f -> Format.fprintf fmt "%a" pp_failure f) fs
