(* The resilience layer: retry/backoff schedule properties (qcheck),
   the circuit-breaker state machine, fault-injected mirror fetches
   (transient retries, corruption quarantine + failover, outages),
   graceful degradation to source builds, transactional installs with
   crash injection + recovery, the satellite regressions (prefix
   stripping, splice arity), and a fixed-seed slice of the Resil fuzz
   oracle. *)

open Spec.Types
module B = Binary
module M = B.Mirror

let v = Vers.Version.of_string

let node ?build_hash name version =
  { Spec.Concrete.name; version = v version; variants = Smap.empty;
    os = "linux"; target = "x86_64"; build_hash }

let repo =
  Pkg.Repo.of_packages
    Pkg.Package.
      [ make "app" |> version "1.0" |> depends_on "libx" |> depends_on "zlib";
        make "libx" |> version "2.0" |> depends_on "zlib";
        make "zlib" |> version "1.3.1" |> version "1.2.13" ]

let app_spec =
  Spec.Concrete.create ~root:"app"
    ~nodes:[ node "app" "1.0"; node "libx" "2.0"; node "zlib" "1.3.1" ]
    ~edges:
      [ ("app", "libx", dt_link); ("app", "zlib", dt_link); ("libx", "zlib", dt_link) ]
    ()

(* One shared origin cache holding the full app spec, as a build farm
   would have populated it. *)
let origin =
  lazy
    (let farm = B.Store.create ~root:"/farm" (B.Vfs.create ()) in
     ignore (B.Errors.ok_exn (B.Builder.build_all farm ~repo app_spec));
     let cache = B.Buildcache.create ~name:"origin" in
     ignore (B.Errors.ok_exn (B.Buildcache.push cache farm app_spec));
     cache)

let fresh_store () =
  let vfs = B.Vfs.create () in
  (vfs, B.Store.create ~root:"/ice" vfs)

let reference_fingerprint =
  lazy
    (let _, store = fresh_store () in
     ignore
       (B.Errors.ok_exn
          (B.Installer.install store ~repo ~caches:[ Lazy.force origin ] app_spec));
     B.Store.fingerprint store)

let empty_fingerprint = lazy (B.Store.fingerprint (snd (fresh_store ())))

let check_converged what store =
  Alcotest.(check string) (what ^ " converged to the fault-free state")
    (Lazy.force reference_fingerprint)
    (B.Store.fingerprint store)

let check_untouched what store =
  Alcotest.(check string) (what ^ " left the store untouched")
    (Lazy.force empty_fingerprint)
    (B.Store.fingerprint store)

(* ---- retry/backoff schedule (qcheck) ---- *)

let arb_policy =
  QCheck.make
    ~print:(fun (p : M.retry_policy) ->
      Printf.sprintf "attempts=%d base=%.1f mult=%.2f cap=%.1f jitter=%d%%"
        p.M.max_attempts p.M.base_delay_ms p.M.multiplier p.M.max_delay_ms
        p.M.jitter_pct)
    QCheck.Gen.(
      let* max_attempts = int_range 1 8 in
      let* base = float_range 0.5 100.0 in
      let* mult = float_range 1.0 4.0 in
      let* cap = float_range base (base *. 64.0) in
      let* jitter = int_range 0 90 in
      return
        { M.max_attempts; base_delay_ms = base; multiplier = mult;
          max_delay_ms = cap; jitter_pct = jitter })

let qcheck_backoff_monotone_capped =
  QCheck.Test.make ~name:"nominal backoff is monotone up to the cap" ~count:200
    arb_policy (fun p ->
      let ds = List.init 10 (fun i -> M.nominal_delay p ~attempt:(i + 1)) in
      List.for_all (fun d -> d <= p.M.max_delay_ms +. 1e-9) ds
      && fst
           (List.fold_left (fun (mono, prev) d -> (mono && d >= prev, d)) (true, 0.0) ds))

let qcheck_backoff_jitter_bounded =
  QCheck.Test.make ~name:"jitter is bounded and never negative" ~count:200
    QCheck.(pair arb_policy (pair (int_range 0 1_000_000) (int_range 1 10)))
    (fun (p, (seed, attempt)) ->
      let nominal = M.nominal_delay p ~attempt in
      let d = M.delay p ~seed ~attempt in
      d >= 0.0
      && Float.abs (d -. nominal)
         <= (nominal *. float_of_int p.M.jitter_pct /. 100.0) +. 1e-6)

let qcheck_backoff_deterministic =
  QCheck.Test.make ~name:"delay is a pure function of (seed, attempt)" ~count:200
    QCheck.(pair arb_policy (pair (int_range 0 1_000_000) (int_range 1 10)))
    (fun (p, (seed, attempt)) ->
      M.delay p ~seed ~attempt = M.delay p ~seed ~attempt)

(* ---- circuit breaker ---- *)

let threshold = M.default_breaker.M.failure_threshold

let cooldown = M.default_breaker.M.cooldown_ms

let fail_times b clk n =
  for _ = 1 to n do
    ignore (M.breaker_record b clk ~ok:false)
  done

let test_breaker_trips_and_recovers () =
  let b = M.breaker () in
  let clk = M.clock () in
  Alcotest.(check bool) "starts closed" true (M.breaker_state b = M.Closed);
  fail_times b clk (threshold - 1);
  Alcotest.(check bool) "below threshold stays closed" true
    (M.breaker_state b = M.Closed);
  Alcotest.(check bool) "the threshold failure trips" true
    (M.breaker_record b clk ~ok:false);
  Alcotest.(check bool) "open" true (M.breaker_state b = M.Open);
  Alcotest.(check bool) "open rejects" false (M.breaker_allows b clk);
  M.advance clk (cooldown -. 1.0);
  Alcotest.(check bool) "still cooling down" false (M.breaker_allows b clk);
  M.advance clk 1.0;
  Alcotest.(check bool) "cooldown elapsed admits a probe" true (M.breaker_allows b clk);
  Alcotest.(check bool) "half-open" true (M.breaker_state b = M.Half_open);
  (* a failed probe re-opens immediately, no threshold *)
  ignore (M.breaker_record b clk ~ok:false);
  Alcotest.(check bool) "failed probe re-opens" true (M.breaker_state b = M.Open);
  M.advance clk cooldown;
  Alcotest.(check bool) "probe again" true (M.breaker_allows b clk);
  ignore (M.breaker_record b clk ~ok:true);
  Alcotest.(check bool) "successful probe closes" true (M.breaker_state b = M.Closed);
  fail_times b clk (threshold - 1);
  ignore (M.breaker_record b clk ~ok:true);
  Alcotest.(check bool) "success clears the failure count" true
    (M.breaker_state b = M.Closed);
  fail_times b clk (threshold - 1);
  Alcotest.(check bool) "count restarted after success" true
    (M.breaker_state b = M.Closed)

let test_breaker_consecutive_failures_reset () =
  let b = M.breaker () in
  let clk = M.clock () in
  fail_times b clk (threshold - 1);
  ignore (M.breaker_record b clk ~ok:true);
  fail_times b clk (threshold - 1);
  Alcotest.(check bool) "non-consecutive failures do not trip" true
    (M.breaker_state b = M.Closed);
  ignore (M.breaker_record b clk ~ok:false);
  Alcotest.(check bool) "consecutive ones do" true (M.breaker_state b = M.Open);
  Alcotest.(check int) "one trip recorded" 1 (M.breaker_trips b)

(* ---- mirror fetches under faults ---- *)

let root_hash () = Spec.Concrete.dag_hash app_spec

let fast_policy =
  { M.default_retry with M.max_attempts = 4; base_delay_ms = 1.0; max_delay_ms = 8.0 }

let test_transient_then_success () =
  (* 60% transient failures, 4 attempts: seed 5 fails twice then
     delivers (deterministic, so the exact schedule is stable). *)
  let faults = { M.no_faults with M.fp_seed = 5; fp_transient_pct = 60 } in
  let m = M.create ~faults ~name:"flaky" (Lazy.force origin) in
  let g = M.group ~policy:fast_policy [ m ] in
  let result, t = M.fetch_entry g ~hash:(root_hash ()) in
  (match result with
  | Ok _ -> ()
  | Error vs ->
    Alcotest.failf "expected success, got: %s"
      (String.concat "; " (List.map (fun (m, e) -> m ^ ":" ^ M.describe_error e) vs)));
  Alcotest.(check bool) "retried at least once" true (t.M.retries > 0);
  Alcotest.(check bool) "backoff advanced the clock" true (t.M.backoff_ms > 0.0);
  Alcotest.(check bool) "clock is simulated" true (M.now (M.group_clock g) > 0.0)

let test_corrupt_quarantine_failover () =
  let bad =
    M.create
      ~faults:{ M.no_faults with M.fp_seed = 1; fp_corrupt_pct = 100 }
      ~name:"bad" (Lazy.force origin)
  in
  let good = M.create ~name:"good" (Lazy.force origin) in
  let g = M.group ~policy:fast_policy [ bad; good ] in
  let hash = root_hash () in
  let result, t = M.fetch_entry g ~hash in
  (match result with
  | Ok e ->
    (* the delivered entry is the intact one *)
    Alcotest.(check string) "verified digest" (M.entry_digest e)
      (M.entry_digest (Option.get (B.Buildcache.find (Lazy.force origin) ~hash)))
  | Error _ -> Alcotest.fail "failover should have delivered");
  Alcotest.(check bool) "corrupt entry quarantined on the bad mirror" true
    (List.mem hash (M.quarantined bad));
  Alcotest.(check (list string)) "good mirror quarantined nothing" []
    (M.quarantined good);
  Alcotest.(check bool) "failover counted" true (t.M.failovers > 0);
  Alcotest.(check bool) "quarantine counted" true (t.M.quarantines > 0);
  (* sticky: asking the bad mirror again short-circuits *)
  let clk = M.group_clock g in
  (match M.fetch bad clk ~hash with
  | Error M.Quarantined -> ()
  | _ -> Alcotest.fail "quarantine should be sticky")

let test_outage_trips_breaker () =
  let faults =
    { M.no_faults with M.fp_outage_after = Some 0; fp_outage_len = None }
  in
  let down = M.create ~faults ~name:"down" (Lazy.force origin) in
  let g = M.group ~policy:fast_policy [ down ] in
  let hash = root_hash () in
  (match fst (M.fetch_entry g ~hash) with
  | Ok _ -> Alcotest.fail "an offline mirror cannot deliver"
  | Error ((_, e) :: _) ->
    Alcotest.(check bool) "offline verdict" true (e = M.Offline || e = M.Breaker_open)
  | Error [] -> Alcotest.fail "expected a verdict");
  (* keep asking: the breaker opens and later fetches are skipped *)
  ignore (M.fetch_entry g ~hash);
  ignore (M.fetch_entry g ~hash);
  Alcotest.(check bool) "breaker opened" true
    (M.breaker_state (M.breaker_of down) = M.Open);
  let result, t = M.fetch_entry g ~hash in
  (match result with
  | Ok _ -> Alcotest.fail "still offline"
  | Error _ -> ());
  Alcotest.(check bool) "open breaker short-circuits" true (t.M.breaker_skips > 0)

(* ---- graceful degradation through the installer ---- *)

let test_all_mirrors_down_falls_back_to_build () =
  let down name =
    M.create
      ~faults:{ M.no_faults with M.fp_outage_after = Some 0; fp_outage_len = None }
      ~name (Lazy.force origin)
  in
  let g = M.group ~policy:fast_policy [ down "m0"; down "m1" ] in
  let _, store = fresh_store () in
  let report = B.Errors.ok_exn (B.Installer.install store ~repo ~mirrors:g app_spec) in
  Alcotest.(check int) "every node degraded to a source build" 3
    (List.length report.B.Installer.fallback_built);
  Alcotest.(check int) "degraded counter" 3 (B.Installer.degraded_count report);
  Alcotest.(check bool) "telemetry attached" true
    (report.B.Installer.fetch_telemetry <> None);
  check_converged "all-mirrors-down install" store

let test_no_fallback_fails_typed_store_unchanged () =
  let down =
    M.create
      ~faults:{ M.no_faults with M.fp_outage_after = Some 0; fp_outage_len = None }
      ~name:"down" (Lazy.force origin)
  in
  let g = M.group ~policy:fast_policy [ down ] in
  let _, store = fresh_store () in
  (match B.Installer.install store ~repo ~mirrors:g ~fallback:false app_spec with
  | Ok _ -> Alcotest.fail "expected a typed failure"
  | Error (B.Errors.Fetch_failed { attempts; mirrors; _ }) ->
    Alcotest.(check bool) "verdicts recorded" true (attempts >= 1 && mirrors <> [])
  | Error e -> Alcotest.failf "unexpected error: %s" (B.Errors.to_string e));
  check_untouched "typed failure" store

let test_absent_entry_is_not_degradation () =
  (* a mirror that has never heard of the spec: authoritative miss,
     building was always the plan — not a fallback *)
  let empty_cache = B.Buildcache.create ~name:"empty" in
  let m = M.create ~name:"sparse" empty_cache in
  let g = M.group ~policy:fast_policy [ m ] in
  let _, store = fresh_store () in
  let report = B.Errors.ok_exn (B.Installer.install store ~repo ~mirrors:g app_spec) in
  Alcotest.(check int) "planned builds" 3 (List.length report.B.Installer.built);
  Alcotest.(check int) "no degradation" 0 (B.Installer.degraded_count report);
  check_converged "miss-everywhere install" store

let test_faulty_mirror_install_converges () =
  let faults =
    { M.fp_seed = 99; fp_transient_pct = 40; fp_corrupt_pct = 30;
      fp_latency_ms = 2.0; fp_wall = false; fp_outage_after = Some 4;
      fp_outage_len = Some 3 }
  in
  let g =
    M.group ~policy:fast_policy
      [ M.create ~faults ~name:"rough" (Lazy.force origin);
        M.create ~name:"steady" (Lazy.force origin) ]
  in
  let _, store = fresh_store () in
  ignore (B.Errors.ok_exn (B.Installer.install store ~repo ~mirrors:g app_spec));
  check_converged "faulty-mirror install" store

(* ---- transactional installs: crash + recover ---- *)

let crash_recover_at crash_at =
  let vfs, store = fresh_store () in
  B.Store.set_crash_after store (Some crash_at);
  match
    B.Installer.install store ~repo ~caches:[ Lazy.force origin ] app_spec
  with
  | exception B.Store.Crashed _ ->
    let recovered, r = B.Store.recover ~root:"/ice" vfs in
    Alcotest.(check (list string))
      (Printf.sprintf "no journal residue (crash at %d)" crash_at)
      []
      (B.Vfs.list_prefix vfs "/ice/.journal");
    Alcotest.(check (list string))
      (Printf.sprintf "no staging residue (crash at %d)" crash_at)
      []
      (B.Vfs.list_prefix vfs "/ice/.staging");
    Alcotest.(check bool) "recovery resolved something or store was clean" true
      (r.B.Store.rolled_back <> [] || r.B.Store.rolled_forward <> []
      || B.Vfs.file_count vfs = 0 || r.B.Store.reregistered >= 0);
    ignore
      (B.Errors.ok_exn
         (B.Installer.install recovered ~repo ~caches:[ Lazy.force origin ] app_spec));
    check_converged (Printf.sprintf "crash at write %d + recover + resume" crash_at)
      recovered
  | Ok _ ->
    (* the run needed fewer writes than the crash point *)
    check_converged "uncrashed run" store
  | Error e -> Alcotest.failf "typed failure under crash plan: %s" (B.Errors.to_string e)

let test_crash_recover_everywhere () =
  (* first measure how many writes a clean run needs, then crash at
     every single mutation point *)
  let _, probe = fresh_store () in
  ignore
    (B.Errors.ok_exn (B.Installer.install probe ~repo ~caches:[ Lazy.force origin ] app_spec));
  let writes = B.Store.write_count probe in
  Alcotest.(check bool) "clean run mutates the store" true (writes > 0);
  for k = 0 to writes - 1 do
    crash_recover_at k
  done

let test_recover_idempotent () =
  let vfs, store = fresh_store () in
  ignore
    (B.Errors.ok_exn (B.Installer.install store ~repo ~caches:[ Lazy.force origin ] app_spec));
  let recovered, r = B.Store.recover ~root:"/ice" vfs in
  Alcotest.(check (list string)) "nothing to roll back" [] r.B.Store.rolled_back;
  Alcotest.(check (list string)) "nothing to roll forward" [] r.B.Store.rolled_forward;
  Alcotest.(check int) "records rebuilt from disk" 3 r.B.Store.reregistered;
  check_converged "recover on a clean store" recovered;
  Alcotest.(check bool) "records answer installed-queries" true
    (B.Store.is_installed recovered ~hash:(root_hash ()))

(* ---- parallel installs: schedules, contention, crashes ---- *)

let serial_reference_report =
  lazy
    (let _, store = fresh_store () in
     B.Errors.ok_exn
       (B.Installer.install store ~repo ~caches:[ Lazy.force origin ] app_spec))

let test_parallel_matches_serial () =
  let serial = B.Installer.canonical_report (Lazy.force serial_reference_report) in
  List.iter
    (fun jobs ->
      let _, store = fresh_store () in
      let rep =
        B.Errors.ok_exn
          (B.Installer.install store ~repo ~caches:[ Lazy.force origin ] ~jobs
             app_spec)
      in
      Alcotest.(check string)
        (Printf.sprintf "jobs-%d report is byte-identical to serial" jobs)
        serial
        (B.Installer.canonical_report rep);
      check_converged (Printf.sprintf "jobs-%d install" jobs) store)
    [ 2; 3; 4 ]

let test_concurrent_installs_dedup () =
  (* two independent installs of the same spec race onto one store:
     the per-hash claim lease must dedup in-flight work, both must
     succeed, and no lease may survive the wave *)
  let _, store = fresh_store () in
  let results =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            B.Installer.install store ~repo ~caches:[ Lazy.force origin ] app_spec))
    |> List.map Domain.join
  in
  List.iter (fun r -> ignore (B.Errors.ok_exn r)) results;
  Alcotest.(check (list string)) "no claims left in flight" []
    (B.Store.in_flight store);
  check_converged "concurrent same-spec installs" store

(* Two installs into their own stores share one mirror whose
   deliveries really sleep, so their fetches overlap: each report
   counts its own three fetches. *)
let test_concurrent_installs_count_own_fetches () =
  let m =
    M.create
      ~faults:{ M.no_faults with M.fp_latency_ms = 5.0; fp_wall = true }
      ~name:"wall" (Lazy.force origin)
  in
  let g = M.group ~policy:fast_policy [ m ] in
  List.init 2 (fun _ ->
      Domain.spawn (fun () ->
          let _, store = fresh_store () in
          B.Errors.ok_exn (B.Installer.install store ~repo ~mirrors:g app_spec)))
  |> List.map Domain.join
  |> List.iter (fun r ->
         match r.B.Installer.fetch_telemetry with
         | Some t -> Alcotest.(check int) "an install counts its own fetches" 3 t.M.fetched
         | None -> Alcotest.fail "no fetch telemetry")

(* r -> a -> c and r -> b, every fetch failing: in depth-first
   post-order (c, a, b, r) c fails first. Two workers start on the two
   leaves, c and b, and may both fail; the lowest-ranked failure, c, is
   reported. *)
let test_lowest_ranked_failure_reported () =
  let spec =
    Spec.Concrete.create ~root:"r"
      ~nodes:[ node "r" "1.0"; node "a" "1.0"; node "b" "1.0"; node "c" "1.0" ]
      ~edges:[ ("r", "a", dt_link); ("r", "b", dt_link); ("a", "c", dt_link) ]
      ()
  in
  let c = Spec.Concrete.node_hash spec "c" in
  for _ = 1 to 10 do
    List.iter
      (fun jobs ->
        let down =
          M.create
            ~faults:{ M.no_faults with M.fp_outage_after = Some 0; fp_outage_len = None }
            ~name:"down" (Lazy.force origin)
        in
        let g = M.group ~policy:fast_policy [ down ] in
        let _, store = fresh_store () in
        (match B.Installer.install store ~repo ~mirrors:g ~fallback:false ~jobs spec with
        | Error (B.Errors.Fetch_failed { hash; _ }) ->
          Alcotest.(check string) (Printf.sprintf "jobs-%d reports c" jobs) c hash
        | Ok _ -> Alcotest.fail "expected a typed failure"
        | Error e -> Alcotest.failf "unexpected error: %s" (B.Errors.to_string e));
        check_untouched (Printf.sprintf "jobs-%d failure" jobs) store)
      [ 1; 2 ]
  done

let parallel_crash_recover_at ~jobs crash_at =
  let vfs, store = fresh_store () in
  B.Store.set_crash_after store (Some crash_at);
  match
    B.Installer.install store ~repo ~caches:[ Lazy.force origin ] ~jobs app_spec
  with
  | exception B.Store.Crashed _ ->
    let recovered, _ = B.Store.recover ~root:"/ice" vfs in
    Alcotest.(check (list string))
      (Printf.sprintf "no journal residue (jobs %d, crash at %d)" jobs crash_at)
      []
      (B.Vfs.list_prefix vfs "/ice/.journal");
    Alcotest.(check (list string))
      (Printf.sprintf "no staging residue (jobs %d, crash at %d)" jobs crash_at)
      []
      (B.Vfs.list_prefix vfs "/ice/.staging");
    Alcotest.(check (list string)) "no claims on the recovered store" []
      (B.Store.in_flight recovered);
    ignore
      (B.Errors.ok_exn
         (B.Installer.install recovered ~repo ~caches:[ Lazy.force origin ]
            app_spec));
    check_converged
      (Printf.sprintf "jobs-%d crash at write %d + recover + resume" jobs
         crash_at)
      recovered
  | Ok _ -> check_converged "uncrashed parallel run" store
  | Error e ->
    Alcotest.failf "typed failure under parallel crash plan: %s"
      (B.Errors.to_string e)

let test_parallel_crash_recover_everywhere () =
  (* total mutation count is schedule-independent (same transactions,
     different order), so the serial count bounds the sweep *)
  let _, probe = fresh_store () in
  ignore
    (B.Errors.ok_exn
       (B.Installer.install probe ~repo ~caches:[ Lazy.force origin ] app_spec));
  let writes = B.Store.write_count probe in
  for k = 0 to writes - 1 do
    parallel_crash_recover_at ~jobs:3 k
  done

let qcheck_recover_idempotent =
  QCheck.Test.make
    ~name:"recover is idempotent across crash points and schedules" ~count:40
    QCheck.(pair (int_range 0 80) (int_range 1 4))
    (fun (crash_at, jobs) ->
      let vfs, store = fresh_store () in
      B.Store.set_crash_after store (Some crash_at);
      (match
         B.Installer.install store ~repo ~caches:[ Lazy.force origin ] ~jobs
           app_spec
       with
      | exception B.Store.Crashed _ -> ()
      | Ok _ | Error _ -> ());
      let s1, _ = B.Store.recover ~root:"/ice" vfs in
      let fp1 = B.Store.fingerprint s1 in
      let files1 = B.Vfs.file_count vfs in
      (* recovering an already-recovered (consistent) store is a no-op *)
      let s2, r2 = B.Store.recover ~root:"/ice" vfs in
      r2.B.Store.rolled_back = []
      && r2.B.Store.rolled_forward = []
      && B.Store.fingerprint s2 = fp1
      && B.Vfs.file_count vfs = files1)

(* ---- mirror ranking ---- *)

let test_rank_sinks_and_recovers () =
  let cache = Lazy.force origin in
  let lat ms = { M.no_faults with M.fp_latency_ms = ms } in
  let slow = M.create ~name:"slow" ~faults:(lat 50.0) cache in
  let fast = M.create ~name:"fast" ~faults:(lat 1.0) cache in
  let g = M.group ~policy:fast_policy [ slow; fast ] in
  let clk = M.group_clock g in
  Alcotest.(check (list string)) "unmeasured mirrors keep configured order"
    [ "slow"; "fast" ]
    (List.map M.name (M.rank g));
  (* one measured request each: the slow mirror sinks *)
  ignore (M.fetch slow clk ~hash:(root_hash ()));
  ignore (M.fetch fast clk ~hash:(root_hash ()));
  Alcotest.(check (list string)) "slow mirror sinks behind the fast one"
    [ "fast"; "slow" ]
    (List.map M.name (M.rank g));
  (* trip the fast mirror's breaker: it sinks to the very back *)
  let b = M.breaker_of fast in
  fail_times b clk threshold;
  Alcotest.(check bool) "breaker open" true (M.breaker_state b = M.Open);
  Alcotest.(check (list string)) "tripped mirror sinks to the back"
    [ "slow"; "fast" ]
    (List.map M.name (M.rank g));
  (* cooldown elapses, probes succeed: it recovers to the front *)
  M.advance clk cooldown;
  Alcotest.(check bool) "cooldown admits the probe" true (M.breaker_allows b clk);
  ignore (M.breaker_record b clk ~ok:true);
  Alcotest.(check (list string)) "recovered mirror returns to the front"
    [ "fast"; "slow" ]
    (List.map M.name (M.rank g))

(* Latencies straddle fast_policy's 1-ms base delay, what an unmeasured
   mirror ranks at, so measured mirrors land on both sides of it. *)
let qcheck_rank_by_latency =
  QCheck.Test.make
    ~name:"rank orders healthy mirrors by latency, untried at one retry wait"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 2 6)
        (pair (make Gen.(oneof [ int_range 0 2; int_range 0 500 ])) bool))
    (fun mirrors ->
      let cache = Lazy.force origin in
      let ms =
        List.mapi
          (fun i (l, _) ->
            M.create
              ~name:(Printf.sprintf "m%d" i)
              ~faults:{ M.no_faults with M.fp_latency_ms = float_of_int l }
              cache)
          mirrors
      in
      let g = M.group ~policy:fast_policy ms in
      let clk = M.group_clock g in
      List.iter2
        (fun m (_, measured) ->
          if measured then ignore (M.fetch m clk ~hash:(root_hash ())))
        ms mirrors;
      let expected =
        List.mapi
          (fun i (l, measured) ->
            ((if measured then float_of_int l else fast_policy.M.base_delay_ms), i))
          mirrors
        |> List.sort compare
        |> List.map (fun (_, i) -> Printf.sprintf "m%d" i)
      in
      List.map M.name (M.rank g) = expected)

let qcheck_tripped_mirrors_sink =
  QCheck.Test.make
    ~name:"mirrors with open breakers sink behind every healthy one" ~count:40
    QCheck.(list_of_size (Gen.int_range 2 6) bool)
    (fun trips ->
      let cache = Lazy.force origin in
      let ms = List.mapi (fun i _ -> M.create ~name:(string_of_int i) cache) trips in
      let g = M.group ms in
      let clk = M.group_clock g in
      List.iteri
        (fun i m -> if List.nth trips i then fail_times (M.breaker_of m) clk threshold)
        ms;
      let is_tripped name = List.nth trips (int_of_string name) in
      let rec healthy_prefix = function
        | [] -> true
        | x :: rest ->
          if is_tripped x then List.for_all is_tripped rest
          else healthy_prefix rest
      in
      healthy_prefix (List.map M.name (M.rank g)))

(* ---- satellite regressions ---- *)

let test_relative_requires_separator () =
  Alcotest.(check string) "strips its own tree" "bar"
    (B.Buildcache.relative ~prefix:"/opt/foo" "/opt/foo/bar");
  Alcotest.(check string) "sibling with a shared name prefix survives"
    "/opt/foobar/baz"
    (B.Buildcache.relative ~prefix:"/opt/foo" "/opt/foobar/baz");
  Alcotest.(check string) "the prefix itself is not inside itself" "/opt/foo"
    (B.Buildcache.relative ~prefix:"/opt/foo" "/opt/foo")

let test_splice_arity_mismatch_is_typed () =
  (* an "app" spliced against an original that linked one more library:
     the leftovers cannot be paired, and silently dropping the extra
     (old List.combine-via-zip behaviour) would ship a binary still
     linked against a prefix the plan never installs *)
  let original_app_hash = Spec.Concrete.node_hash app_spec "app" in
  let crafted =
    Spec.Concrete.create ~root:"app"
      ~nodes:
        [ node ~build_hash:original_app_hash "app" "1.0";
          node "libx" "2.0"; node "zlib" "1.3.1" ]
      ~edges:[ ("app", "libx", dt_link); ("libx", "zlib", dt_link) ]
      ()
  in
  let _, store = fresh_store () in
  (match
     B.Installer.install store ~repo ~caches:[ Lazy.force origin ] crafted
   with
  | Ok _ -> Alcotest.fail "expected a splice-arity failure"
  | Error (B.Errors.Splice_arity_mismatch { node = "app"; replaced; replacements }) ->
    Alcotest.(check (list string)) "replaced" [ "zlib" ] replaced;
    Alcotest.(check (list string)) "replacements" [] replacements
  | Error e -> Alcotest.failf "unexpected error: %s" (B.Errors.to_string e));
  check_untouched "splice-arity failure" store

(* ---- degraded concretization ---- *)

let test_unreachable_mirrors_contribute_no_reuse () =
  let up = M.create ~name:"up" (Lazy.force origin) in
  let down =
    M.create
      ~faults:{ M.no_faults with M.fp_outage_after = Some 0; fp_outage_len = None }
      ~name:"down" (Lazy.force origin)
  in
  let reachable = M.reachable_specs (M.group ~policy:fast_policy [ up; down ]) in
  Alcotest.(check bool) "reachable mirror indexes the spec" true
    (List.exists
       (fun s -> Spec.Concrete.dag_hash s = root_hash ())
       reachable);
  let none = M.reachable_specs (M.group ~policy:fast_policy [ down ]) in
  Alcotest.(check (list string)) "outage contributes nothing" []
    (List.map Spec.Concrete.dag_hash none);
  (* threading through the concretizer: mirrors show up as reuse *)
  let options =
    { Core.Concretizer.default_options with
      Core.Concretizer.mirrors = Some (M.group ~policy:fast_policy [ up ]) }
  in
  match Core.Concretizer.concretize_spec ~repo ~options "app" with
  | Error e -> Alcotest.failf "concretize: %s" e
  | Ok o ->
    let sol = o.Core.Concretizer.solution in
    Alcotest.(check (list string)) "nothing to build: everything reused" []
      sol.Core.Decode.built

(* ---- fixed-seed slice of the resilience fuzz oracle ---- *)

let test_resil_oracle_smoke () =
  let report = Fuzz.Resil.run ~seed:42 ~rounds:6 () in
  (match report.Fuzz.Resil.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "resil oracle violations: %s"
      (String.concat "; " f.Fuzz.Resil.violations));
  let s = report.Fuzz.Resil.stats in
  Alcotest.(check bool) "some installs converged" true (s.Fuzz.Resil.installs_converged > 0);
  Alcotest.(check bool) "some crashes recovered" true (s.Fuzz.Resil.crashes_recovered > 0)

let () =
  Alcotest.run "resilience"
    [ ( "backoff",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_backoff_monotone_capped;
            qcheck_backoff_jitter_bounded;
            qcheck_backoff_deterministic ] );
      ( "breaker",
        [ Alcotest.test_case "trips, probes, recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "consecutive failures reset on success" `Quick
            test_breaker_consecutive_failures_reset ] );
      ( "mirror",
        [ Alcotest.test_case "transient then success" `Quick test_transient_then_success;
          Alcotest.test_case "corruption quarantines and fails over" `Quick
            test_corrupt_quarantine_failover;
          Alcotest.test_case "outage trips the breaker" `Quick test_outage_trips_breaker ] );
      ( "degradation",
        [ Alcotest.test_case "all mirrors down falls back to building" `Quick
            test_all_mirrors_down_falls_back_to_build;
          Alcotest.test_case "no-fallback fails typed, store unchanged" `Quick
            test_no_fallback_fails_typed_store_unchanged;
          Alcotest.test_case "authoritative miss is not degradation" `Quick
            test_absent_entry_is_not_degradation;
          Alcotest.test_case "faulty mirrors still converge" `Quick
            test_faulty_mirror_install_converges ] );
      ( "transactions",
        [ Alcotest.test_case "crash at every write point recovers" `Quick
            test_crash_recover_everywhere;
          Alcotest.test_case "recover is safe on a clean store" `Quick
            test_recover_idempotent ] );
      ( "parallel",
        [ Alcotest.test_case "parallel reports are byte-identical to serial"
            `Quick test_parallel_matches_serial;
          Alcotest.test_case "concurrent installs dedup via claim leases"
            `Quick test_concurrent_installs_dedup;
          Alcotest.test_case "concurrent installs count their own fetches"
            `Quick test_concurrent_installs_count_own_fetches;
          Alcotest.test_case "the lowest-ranked failure is reported" `Quick
            test_lowest_ranked_failure_reported;
          Alcotest.test_case "jobs-3 crash at every write point recovers"
            `Quick test_parallel_crash_recover_everywhere;
          QCheck_alcotest.to_alcotest qcheck_recover_idempotent ] );
      ( "selection",
        [ Alcotest.test_case "rank sinks and recovers mirrors"
            `Quick test_rank_sinks_and_recovers;
          QCheck_alcotest.to_alcotest qcheck_rank_by_latency;
          QCheck_alcotest.to_alcotest qcheck_tripped_mirrors_sink ] );
      ( "satellites",
        [ Alcotest.test_case "relative requires a separator" `Quick
            test_relative_requires_separator;
          Alcotest.test_case "splice arity mismatch is typed" `Quick
            test_splice_arity_mismatch_is_typed ] );
      ( "degraded-concretization",
        [ Alcotest.test_case "only reachable mirrors contribute reuse" `Quick
            test_unreachable_mirrors_contribute_no_reuse ] );
      ( "fuzz",
        [ Alcotest.test_case "resil oracle fixed-seed slice" `Quick
            test_resil_oracle_smoke ] ) ]
