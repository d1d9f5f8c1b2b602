(* The one-shot workload [install-local]: concretize against the
   64-spec local buildcache, then install from it into a fresh store —
   [spackml install <spec> --reuse --splice]. One client, one domain,
   closed loop. *)

open Common

type env = {
  repo : Pkg.Repo.t;
  options : Core.Concretizer.options;
  caches : Binary.Buildcache.t list;  (** the local buildcache *)
  requests : Core.Encode.request array;  (** parsed [Common.objectives] *)
}

type answer = {
  result : (Core.Concretizer.outcome, Core.Concretizer.failure) result;
  install : (Binary.Installer.report, Binary.Errors.t) result option;
      (** [None] when the concretize failed *)
  solve_ms : float;  (** the concretize part of the request *)
  wall_ms : float;
}

(* The install root [spackml install] uses; prefix lengths decide
   whether relocation patches in place or grows a slot. *)
let fresh_store () = Binary.Store.create ~root:"/opt/spackml" (Binary.Vfs.create ())

let build_env () =
  let repo = Radiuss.Universe.repo () in
  let local = Radiuss.Caches.local ~repo () in
  { repo;
    options = options ~reuse:(Radiuss.Caches.reusable_specs local);
    caches = [ local.Radiuss.Caches.cache ];
    requests = Array.map Core.Encode.request_of_string objectives }

(* The untraced request: the calls a user's command makes. *)
let run env i =
  let t0 = now () in
  let result =
    Core.Concretizer.concretize_v ~repo:env.repo ~options:env.options
      [ env.requests.(i) ]
  in
  let t1 = now () in
  let install =
    match result with
    | Error _ -> None
    | Ok o ->
      Some
        (Binary.Installer.install (fresh_store ()) ~repo:env.repo ~caches:env.caches
           (List.hd o.Core.Concretizer.solution.Core.Decode.specs))
  in
  let t2 = now () in
  { result; install; solve_ms = ms_of_s (t1 -. t0); wall_ms = ms_of_s (t2 -. t0) }

(* Warm-up before the first timed request: one pass over the objectives
   in a fixed order. *)
let warm_up env =
  for i = 0 to Array.length objectives - 1 do
    ignore (run env i)
  done

let setup () =
  let env = build_env () in
  warm_up env;
  env

(* ---- checks --------------------------------------------------------- *)

let install_problem = function
  | None -> None
  | Some (Error e) -> Some (Format.asprintf "install: %a" Binary.Errors.pp e)
  | Some (Ok (rep : Binary.Installer.report)) -> (
    match rep.Binary.Installer.link_result with
    | Error _ -> Some "install: link failed"
    | Ok _ when rep.Binary.Installer.built <> [] ->
      Some
        (Printf.sprintf "install: %d nodes built from source"
           (List.length rep.Binary.Installer.built))
    | Ok _ -> None)

(* The answer's own checks: status ok, Verify-clean, spliced when the
   request asks for mpiabi. They depend only on the request and the
   answer, so they run once per distinct (request, answer). *)
let answer_problem env verdicts i (o : Core.Concretizer.outcome) =
  let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
  let key = (i, answer_key spec o.Core.Concretizer.stats.Core.Concretizer.costs) in
  match Hashtbl.find_opt verdicts key with
  | Some v -> v
  | None ->
    let o_ = env.options in
    let v =
      match
        Core.Verify.check_solution ~repo:env.repo
          ~request:env.requests.(i).Core.Encode.req
          ~host_os:o_.Core.Concretizer.host_os
          ~host_target:o_.Core.Concretizer.host_target spec
      with
      | viol :: _ -> Some (Format.asprintf "verify: %a" Core.Verify.pp_violation viol)
      | [] ->
        if wants_splice objectives.(i)
           && not (Core.Decode.is_spliced_solution o.Core.Concretizer.solution)
        then Some "answer is not spliced"
        else None
    in
    Hashtbl.replace verdicts key v;
    v

(* [true] iff the answer passes every check; failures are tallied. *)
let check env verdicts tally i a =
  attempt tally;
  let problem =
    match a.result with
    | Error f -> Some ("concretize: " ^ f.Core.Concretizer.f_message)
    | Ok o -> (
      match answer_problem env verdicts i o with
      | Some p -> Some p
      | None -> install_problem a.install)
  in
  match problem with
  | Some p ->
    fail tally (objectives.(i) ^ ": " ^ p);
    false
  | None -> true

(* ---- the untraced run ----------------------------------------------- *)

(* Requests run until [seconds] of request time have been measured and
   the current pass is complete. Checks run between requests, outside
   every timing window. *)
let untraced env ~seed ~seconds =
  let tally = tally () and verdicts = Hashtbl.create 64 in
  let stream = Stream.create ~seed in
  let busy_ms = ref 0.0 and passed = ref 0 in
  let walls = ref [] and solves = ref [] in
  while !busy_ms < seconds *. 1000.0 || not (Stream.at_pass_end stream) do
    let i = Stream.next stream in
    let a = run env i in
    busy_ms := !busy_ms +. a.wall_ms;
    walls := a.wall_ms :: !walls;
    solves := a.solve_ms :: !solves;
    if check env verdicts tally i a then incr passed
  done;
  let rss = peak_rss_mb () in
  ( tally,
    [ { name = "throughput_per_s";
        value = float_of_int !passed /. (!busy_ms /. 1000.0);
        unit_ = "1/s" };
      { name = "latency_p50_ms"; value = median !walls; unit_ = "ms" };
      { name = "latency_p90_ms"; value = quantile !walls 0.9; unit_ = "ms" };
      { name = "peak_rss_mb"; value = rss; unit_ = "MB" };
      (* A one-shot call re-reads the pool it is given, so every solve
         is the first on its pool: the median concretize time. *)
      { name = "reload_solve_ms"; value = median !solves; unit_ = "ms" } ] )

(* ---- the traced run ------------------------------------------------- *)

let stat model key =
  Option.value ~default:0 (List.assoc_opt key model.Asp.Logic.sat_stats)

let span ctx ~rid name f =
  Obs.with_span ctx ~cat:"perfbench" ~attrs:[ ("rid", Obs.I rid) ] name (fun _ -> f ())

(* [concretize_v]'s layer sequence with the untraced run's options, one
   span per public entry point, then the install. Returns the layers'
   outputs or the failure. *)
let replay env ctx ~rid i =
  let o = env.options in
  let req = env.requests.(i) in
  let span name f = span ctx ~rid name f in
  let encoded =
    span "encode" (fun () ->
        Core.Encode.encode ~repo:env.repo ~encoding:o.Core.Concretizer.encoding
          ~splicing:o.Core.Concretizer.splicing ~reuse:o.Core.Concretizer.reuse
          ~prune:o.Core.Concretizer.prune ~host_os:o.Core.Concretizer.host_os
          ~host_target:o.Core.Concretizer.host_target [ req ])
  in
  let statements =
    span "assemble" (fun () ->
        Asp.parse
          (Core.Program.assemble ~encoding:o.Core.Concretizer.encoding
             ~splicing:o.Core.Concretizer.splicing ())
        @ encoded.Core.Encode.rules @ encoded.Core.Encode.facts)
  in
  let ground =
    span "ground" (fun () -> Asp.Ground.ground ~jobs:o.Core.Concretizer.ground_jobs statements)
  in
  let outcome =
    span "logic" (fun () ->
        Asp.Logic.solve ~certify:o.Core.Concretizer.certify
          ~portfolio:o.Core.Concretizer.portfolio ground)
  in
  match outcome with
  | Asp.Logic.Unsat _ -> Error "UNSAT"
  | Asp.Logic.Sat model -> (
    match
      span "decode" (fun () ->
          Core.Decode.decode ~pool:encoded.Core.Encode.pool ~requests:[ req ] model)
    with
    | Error e -> Error ("decode: " ^ e)
    | Ok solution ->
      let spec = List.hd solution.Core.Decode.specs in
      let install =
        Some
          (span "install" (fun () ->
               Binary.Installer.install (fresh_store ()) ~repo:env.repo ~caches:env.caches
                 spec))
      in
      Ok (encoded, ground, model, spec, install))

(* Per-request counts, taken after the request's spans closed. *)
let count_layers ctx (encoded, ground, model, _spec, install) =
  let add name by = Obs.incr ctx ~by name in
  add "encode.facts" (List.length encoded.Core.Encode.facts);
  add "encode.kept" (Core.Encode.pool_size encoded.Core.Encode.pool);
  add "encode.pool" encoded.Core.Encode.pool_total;
  add "ground.atoms" (Asp.Ground.atom_count ground);
  add "ground.rules" (List.length (Asp.Ground.rules ground));
  add "ground.index_hits" (Asp.Ground.index_hits ground);
  add "ground.index_misses" (Asp.Ground.index_misses ground);
  List.iter
    (fun k -> add ("logic." ^ k) (stat model k))
    [ "conflicts"; "decisions"; "propagations" ];
  add "logic.stable_checks" model.Asp.Logic.stable_checks;
  add "logic.loop_clauses" model.Asp.Logic.loop_clauses;
  add "logic.inprocess_hits"
    (stat model "vivified" + stat model "subsumed" + stat model "probed_failed");
  match install with
  | Some (Ok (rep : Binary.Installer.report)) ->
    add "install.rewired" (List.length rep.Binary.Installer.rewired);
    add "install.from_cache" (List.length rep.Binary.Installer.from_cache);
    add "install.built" (List.length rep.Binary.Installer.built);
    add "install.relocs_patched" rep.Binary.Installer.reloc.Binary.Relocate.patched;
    add "install.relocs_grown" rep.Binary.Installer.reloc.Binary.Relocate.grown
  | Some (Error _) | None -> ()

(* Each request runs twice, untraced and as a traced replay, in
   alternating order: the pair gives the fidelity check (same answer)
   and the tracing overhead on identical inputs. The replay's spans
   nest in a "request" span, whose time beyond its layer spans is the
   residual. *)
let traced env ~seed ~seconds ~trace_file =
  let tally = tally () and verdicts = Hashtbl.create 64 in
  let ctx = Obs.create () in
  let stream = Stream.create ~seed in
  let spent_ms = ref 0.0 and untraced_ms = ref 0.0 and requests = ref 0 in
  let traced_once rid i = span ctx ~rid "request" (fun () -> replay env ctx ~rid i) in
  while !spent_ms < seconds *. 1000.0 || not (Stream.at_pass_end stream) do
    let i = Stream.next stream in
    let rid = !requests in
    let t0 = now () in
    let r, a =
      if rid mod 2 = 0 then
        let a = run env i in
        (traced_once rid i, a)
      else
        let r = traced_once rid i in
        (r, run env i)
    in
    spent_ms := !spent_ms +. ms_of_s (now () -. t0);
    incr requests;
    untraced_ms := !untraced_ms +. a.wall_ms;
    (match r with Ok layers -> count_layers ctx layers | Error _ -> ());
    if check env verdicts tally i a then begin
      match (r, a.result) with
      | Ok (_, _, model, spec, install), Ok o ->
        let want =
          answer_key
            (List.hd o.Core.Concretizer.solution.Core.Decode.specs)
            o.Core.Concretizer.stats.Core.Concretizer.costs
        in
        if answer_key spec model.Asp.Logic.costs <> want then
          fail tally (objectives.(i) ^ ": traced replay answer differs")
        else (
          match install_problem install with
          | Some p -> fail tally (objectives.(i) ^ ": traced replay " ^ p)
          | None -> ())
      | Error e, _ -> fail tally (objectives.(i) ^ ": traced replay: " ^ e)
      | _, Error _ -> ()
    end
  done;
  Obs.Sink.write_file ctx Obs.Sink.Chrome trace_file;
  let busy = Hashtbl.create 16 in
  List.iter
    (function
      | Obs.Span { name; dur_ns; _ } ->
        let ms = Int64.to_float dur_ns /. 1e6 in
        Hashtbl.replace busy name
          (ms +. Option.value ~default:0.0 (Hashtbl.find_opt busy name))
      | Obs.Instant _ -> ())
    (Obs.events ctx);
  let busy_ms name = Option.value ~default:0.0 (Hashtbl.find_opt busy name) in
  let request_ms = busy_ms "request" in
  let residual_ms =
    Hashtbl.fold (fun name ms r -> if name = "request" then r else r -. ms) busy request_ms
  in
  let counters = Obs.metrics ctx in
  let s k =
    match List.assoc_opt k counters with
    | Some (Obs.Counter n) -> float_of_int n
    | _ -> 0.0
  in
  let n = float_of_int !requests in
  let per k = s k /. n and per_busy name = busy_ms name /. n in
  (* The replay must account for the request: a residual above 5% of
     its wall means it has drifted from [concretize_v]'s sequence. *)
  attempt tally;
  if residual_ms > 0.05 *. request_ms then
    fail tally "trace residual above 5% of traced request wall";
  ( tally,
    Ledger.metrics
      [ ("encode.busy_ms", per_busy "encode");
        ("encode.facts", per "encode.facts");
        ("encode.keep_ratio", ratio (s "encode.kept") (s "encode.pool"));
        ("assemble.busy_ms", per_busy "assemble");
        ("ground.busy_ms", per_busy "ground");
        ("ground.atoms", per "ground.atoms");
        ("ground.rules", per "ground.rules");
        ( "ground.index_hit_ratio",
          ratio (s "ground.index_hits") (s "ground.index_hits" +. s "ground.index_misses") );
        ("logic.busy_ms", per_busy "logic");
        ("logic.conflicts", per "logic.conflicts");
        ("logic.decisions", per "logic.decisions");
        ("logic.propagations", per "logic.propagations");
        ("logic.stable_checks", per "logic.stable_checks");
        ("logic.loop_clauses", per "logic.loop_clauses");
        ("logic.loop_yield", ratio (s "logic.loop_clauses") (s "logic.stable_checks"));
        ("logic.inprocess_hits", per "logic.inprocess_hits");
        ("decode.busy_ms", per_busy "decode");
        ("install.busy_ms", per_busy "install");
        ("install.rewired", per "install.rewired");
        ("install.from_cache", per "install.from_cache");
        ("install.built", per "install.built");
        ("install.relocs_patched", per "install.relocs_patched");
        ("install.relocs_grown", per "install.relocs_grown");
        ("trace.residual_ms", residual_ms /. n);
        ("trace.overhead", ratio !untraced_ms request_ms -. 1.0) ] )
