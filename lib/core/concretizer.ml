type options = {
  encoding : Encode.encoding;
  splicing : bool;
  reuse : Spec.Concrete.t list;
  mirrors : Binary.Mirror.group option;
  host_os : string;
  host_target : string;
  certify : bool;
  prune : bool;
  verify : bool;
  ground_jobs : int;
  portfolio : int;
  obs : Obs.ctx;
}

let default_options =
  { encoding = Encode.Hash_attr;
    splicing = false;
    reuse = [];
    mirrors = None;
    host_os = "linux";
    host_target = "x86_64";
    certify = false;
    prune = true;
    verify = false;
    ground_jobs = 1;
    portfolio = 1;
    obs = Obs.disabled }

(* The reusable pool a degraded solve actually sees: the explicit specs
   plus whatever the reachable mirrors index right now (deduplicated by
   DAG hash, explicit specs winning). An unreachable mirror simply
   contributes nothing — the solve proceeds over partial metadata. *)
let effective_reuse options =
  match options.mirrors with
  | None -> options.reuse
  | Some g ->
    let seen = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.replace seen (Spec.Concrete.dag_hash s) ())
      options.reuse;
    options.reuse
    @ List.filter
        (fun s -> not (Hashtbl.mem seen (Spec.Concrete.dag_hash s)))
        (Binary.Mirror.reachable_specs g)

type stats = {
  ground_atoms : int;
  ground_rules : int;
  fact_count : int;
  pool_total : int;
  pool_used : int;
  sat_stats : (string * int) list;
  stable_checks : int;
  costs : (int * int) list;
  verify_violations : int option;  (* None = verification not run *)
  encode_seconds : float;
  ground_seconds : float;
  solve_seconds : float;
  total_seconds : float;
}

type outcome = {
  solution : Decode.solution;
  stats : stats;
}

let now () = Obs.Clock.now_s ()

(* Requests must name known packages (or virtuals): an unknown name
   would otherwise surface as a baffling UNSAT. *)
let check_known ~repo requests =
  let known n = Pkg.Repo.mem repo n || Pkg.Repo.is_virtual repo n in
  List.find_map
    (fun (r : Encode.request) ->
      let root = r.Encode.req.Spec.Abstract.root.Spec.Abstract.name in
      if Pkg.Repo.is_virtual repo root then
        Some
          (Printf.sprintf
             "virtual packages cannot be requested as roots: %s (request a provider: %s)"
             root
             (String.concat ", "
                (List.map
                   (fun (p : Pkg.Package.t) -> p.Pkg.Package.name)
                   (Pkg.Repo.providers repo root))))
      else
        let names =
          root
          :: List.map
               (fun (d : Spec.Abstract.dep) -> d.Spec.Abstract.node.Spec.Abstract.name)
               r.Encode.req.Spec.Abstract.deps
        in
        List.find_map
          (fun n ->
            if known n then None else Some (Printf.sprintf "unknown package: %s" n))
          names)
    requests

(* A failed concretization, with the refutation certificate when the
   failure was an UNSAT answer computed under [certify = true]. *)
type failure = {
  f_message : string;
  f_proof : Asp.Sat.proof_step list option;
  f_timeout : bool;
}

let fail msg = Error { f_message = msg; f_proof = None; f_timeout = false }

(* Independent re-validation of the solution ([options.verify]): each
   returned spec is checked against the repo and its request without
   the solver. Returns the total violation count. *)
let run_verify ~repo ~options ~requests (solution : Decode.solution) =
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "verify" @@ fun span ->
  let pairs =
    try List.combine requests solution.Decode.specs
    with Invalid_argument _ ->
      List.map (fun s -> (List.hd requests, s)) solution.Decode.specs
  in
  let total =
    List.fold_left
      (fun acc ((r : Encode.request), spec) ->
        let violations =
          Verify.check_solution ~repo ~request:r.Encode.req
            ~host_os:options.host_os ~host_target:options.host_target spec
        in
        acc + List.length violations)
      0 pairs
  in
  Obs.set_attr span "specs" (Obs.I (List.length solution.Decode.specs));
  Obs.set_attr span "violations" (Obs.I total);
  Obs.incr obs ~by:total "concretize.verify_violations";
  total

(* Publish a finished request's flat stats into the Obs metric
   registry, so traces carry the same numbers as [pp_stats]. *)
let publish_stats obs (s : stats) =
  if Obs.enabled obs then begin
    Obs.publish obs ~prefix:"sat" s.sat_stats;
    Obs.gauge obs "concretize.ground_atoms" s.ground_atoms;
    Obs.gauge obs "concretize.ground_rules" s.ground_rules;
    Obs.gauge obs "concretize.fact_count" s.fact_count;
    Obs.gauge obs "concretize.pool_total" s.pool_total;
    Obs.gauge obs "concretize.pool_used" s.pool_used;
    Obs.observe obs "concretize.solve_seconds" s.solve_seconds
  end

let concretize_v ~repo ?(options = default_options) ?budget ?closure
    ?(attrs = []) requests =
  match check_known ~repo requests with
  | Some e -> fail e
  | None ->
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "concretize"
    ~attrs:
      (( "roots",
         Obs.S
           (String.concat ","
              (List.map
                 (fun (r : Encode.request) ->
                   r.Encode.req.Spec.Abstract.root.Spec.Abstract.name)
                 requests)) )
      :: attrs)
  @@ fun _span ->
  let t0 = now () in
  let encoded =
    Obs.with_span obs ~cat:"concretize" "encode" (fun _ ->
        Encode.encode ~repo ~encoding:options.encoding ~splicing:options.splicing
          ~reuse:(effective_reuse options) ~prune:options.prune ?closure ~obs
          ~host_os:options.host_os ~host_target:options.host_target requests)
  in
  let statements =
    Obs.with_span obs ~cat:"concretize" "assemble" (fun _ ->
        Program.statements ~encoding:options.encoding ~splicing:options.splicing
        @ encoded.Encode.rules @ encoded.Encode.facts)
  in
  let t1 = now () in
  let ground =
    Obs.with_span obs ~cat:"concretize" "ground" (fun _ ->
        Asp.Ground.ground ~obs statements)
  in
  let t2 = now () in
  let result =
    match
      Obs.with_span obs ~cat:"concretize" "solve" (fun _ ->
          Asp.Logic.solve ~certify:options.certify ~obs ?budget ground)
    with
    | r -> Some r
    | exception Asp.Sat.Timeout -> None
  in
  let t3 = now () in
  match result with
  | None ->
    Error
      { f_message = "timeout: solve budget exhausted";
        f_proof = None;
        f_timeout = true }
  | Some (Asp.Logic.Unsat proof) ->
    Error
      { f_message = "UNSAT: no valid concretization exists";
        f_proof = proof;
        f_timeout = false }
  | Some (Asp.Logic.Sat model) -> (
    let decoded =
      Obs.with_span obs ~cat:"concretize" "decode" (fun _ ->
          Decode.decode ~pool:encoded.Encode.pool ~requests model)
    in
    match decoded with
    | Error e -> fail ("decode: " ^ e)
    | Ok solution ->
      let verify_violations =
        if options.verify then Some (run_verify ~repo ~options ~requests solution)
        else None
      in
      let stats =
        { ground_atoms = Asp.Ground.atom_count ground;
          ground_rules = List.length (Asp.Ground.rules ground);
          fact_count = List.length encoded.Encode.facts;
          pool_total = encoded.Encode.pool_total;
          pool_used = Encode.pool_size encoded.Encode.pool;
          sat_stats = model.Asp.Logic.sat_stats;
          stable_checks = model.Asp.Logic.stable_checks;
          costs = model.Asp.Logic.costs;
          verify_violations;
          encode_seconds = t1 -. t0;
          ground_seconds = t2 -. t1;
          solve_seconds = t3 -. t2;
          total_seconds = now () -. t0 }
      in
      publish_stats obs stats;
      Ok { solution; stats })

let concretize ~repo ?options requests =
  match concretize_v ~repo ?options requests with
  | Ok o -> Ok o
  | Error f -> Error f.f_message

let concretize_spec ~repo ?options text =
  match Encode.request_of_string text with
  | req -> concretize ~repo ?options [ req ]
  | exception Spec.Parser.Parse_error e -> Error ("parse error: " ^ e)

let pp_stats fmt s =
  let sat k = match List.assoc_opt k s.sat_stats with Some v -> v | None -> 0 in
  Format.fprintf fmt
    "atoms=%d rules=%d facts=%d pool=%d/%d clauses=%d conflicts=%d props=%d \
     restarts=%d learnts=%d stable_checks=%d encode=%.3fs ground=%.3fs \
     solve=%.3fs total=%.3fs"
    s.ground_atoms s.ground_rules s.fact_count s.pool_used s.pool_total
    (sat "clauses") (sat "conflicts") (sat "propagations") (sat "restarts")
    (sat "learnts") s.stable_checks s.encode_seconds s.ground_seconds
    s.solve_seconds s.total_seconds;
  (* Glucose-core DB-management and rephase counters; zero (and
     omitted) on solves too small to trigger them. *)
  if sat "reduces" > 0 then
    Format.fprintf fmt " reduces=%d removed=%d" (sat "reduces") (sat "removed");
  if sat "minimized" > 0 then Format.fprintf fmt " min_lits=%d" (sat "minimized");
  if sat "rephases" > 0 then Format.fprintf fmt " rephases=%d" (sat "rephases");
  match s.verify_violations with
  | None -> ()
  | Some 0 -> Format.fprintf fmt " verify=ok"
  | Some n -> Format.fprintf fmt " verify=%d-violation(s)" n

(* ----- multicore batch concretization ------------------------------ *)

let concretize_batch ~repo ?(options = default_options) ?(jobs = 1) requests =
  (* Resolve the mirror layer once, before any domain spawns: mirror
     probing mutates breaker state and must not race (and every domain
     must see the same pool for determinism). *)
  let options = { options with reuse = effective_reuse options; mirrors = None } in
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "batch"
    ~attrs:[ ("requests", Obs.I (List.length requests)); ("jobs", Obs.I jobs) ]
  @@ fun _span ->
  let arr = Array.of_list requests in
  let n = Array.length arr in
  let results : (outcome, failure) result option array = Array.make n None in
  let jobs = if n = 0 then 1 else max 1 (min jobs n) in
  (* Static round-robin partition: request [i] is solved by domain
     [i mod jobs] and written to slot [i], so the result list does not
     depend on the number of domains. The solves are fully independent,
     making batch output byte-identical for any [jobs]. The shared
     [obs] context is domain-safe; each domain's spans carry its own
     [tid], which is what renders the batch as per-domain timelines. *)
  let worker j =
    let i = ref j in
    while !i < n do
      results.(!i) <- Some (concretize_v ~repo ~options [ arr.(!i) ]);
      i := !i + jobs
    done
  in
  if jobs <= 1 then worker 0
  else begin
    let domains =
      List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    List.iter Domain.join domains
  end;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)
