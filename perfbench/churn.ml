(* [serve-churn]: the resident warm path. [Core.Serve] runs in-process
   with the shipped defaults (session mode, all-package session roots,
   recycling every 32 solves, live telemetry), splicing on and the
   local pool as reuse, on 1 worker domain: with the main domain
   (acceptor, readers, client threads) that fits 2 cores. Two
   connections on two client threads form a closed loop; after every
   48th solve the connection that answered it sends the wire [reload],
   and the reuse source installed here hands the server the next seeded
   pool variant. *)

open Common

let reload_every = 48

let variant_count = 3

let dropped_per_variant = 2

type sample = {
  obj : int;  (** index into [Common.objectives] *)
  rtt_ms : float;
  recv_s : float;
  status : string;
  costs : string option;  (** [Common.costs_key] of the answer *)
  generation : int;
  queue_ms : float;
  server_ms : float;
  mode : string;
}

type env = {
  repo : Pkg.Repo.t;
  pools : Spec.Concrete.t list array;
      (** [0]: the local pool the server starts with; then the variants *)
  server : Core.Serve.t;
  clients : Core.Serve.Client.t array;
  handed : int ref;  (** pool index the reuse source returned last *)
  initial_gen : int;
  gen_pool : (int, int) Hashtbl.t;  (** generation -> index into [pools] *)
  reload_mu : Mutex.t;
}

(* Variants of the local pool, each dropping [dropped_per_variant]
   seeded entries. No two drop the same set, so every reload changes
   the pool digest and bumps the generation. *)
let variants ~seed base =
  let rng = Random.State.make [| seed; 0xc4 |] in
  let n = List.length base in
  let rec draw d =
    if List.length d = dropped_per_variant then List.sort compare d
    else
      let k = Random.State.int rng n in
      draw (if List.mem k d then d else k :: d)
  in
  let rec pick acc =
    if List.length acc = variant_count then List.rev acc
    else
      let d = draw [] in
      pick (if List.mem d acc then acc else d :: acc)
  in
  List.map
    (fun dropped -> List.filteri (fun k _ -> not (List.mem k dropped)) base)
    (pick [])

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let status resp =
  match Sjson.member_opt "status" resp with
  | Some (Sjson.String s) -> s
  | _ -> "missing"

(* Repo, local buildcache, pool variants, server start, both
   connections, and the first session build (one solve). [socket] is
   relative to the checkout root. *)
let setup ~seed ~socket =
  let repo = Radiuss.Universe.repo () in
  let base = Radiuss.Caches.reusable_specs (Radiuss.Caches.local ~repo ()) in
  let pools = Array.of_list (base :: variants ~seed base) in
  let handed = ref 0 in
  let source () =
    handed := 1 + (!handed mod variant_count);
    pools.(!handed)
  in
  let config =
    { Core.Serve.default_config with
      Core.Serve.workers = 1;
      reuse_source = Some source;
      options = options ~reuse:base }
  in
  let server = ok_exn "serve start" (Core.Serve.start ~repo ~config ~socket ()) in
  let clients =
    Array.init 2 (fun _ -> ok_exn "connect" (Core.Serve.Client.connect socket))
  in
  let first = ok_exn "warm-up solve" (Core.Serve.Client.solve clients.(0) objectives.(0)) in
  if status first <> "ok" then failwith "warm-up solve: status is not ok";
  let initial_gen = Core.Serve.generation server in
  let gen_pool = Hashtbl.create 16 in
  Hashtbl.replace gen_pool initial_gen 0;
  { repo;
    pools;
    server;
    clients;
    handed;
    initial_gen;
    gen_pool;
    reload_mu = Mutex.create () }

let teardown env =
  Array.iter Core.Serve.Client.close env.clients;
  Core.Serve.stop env.server

(* ---- the closed loop ------------------------------------------------ *)

let num = function
  | Some (Sjson.Float f) -> f
  | Some (Sjson.Int n) -> float_of_int n
  | _ -> nan

let sample_of obj t0 t1 = function
  | Error e ->
    { obj; rtt_ms = ms_of_s (t1 -. t0); recv_s = t1; status = "transport: " ^ e;
      costs = None; generation = -1; queue_ms = nan; server_ms = nan; mode = "" }
  | Ok resp ->
    let result = Sjson.member_opt "result" resp in
    let server = Sjson.member_opt "server" resp in
    let field k = Option.bind server (Sjson.member_opt k) in
    let costs =
      match Option.bind result (Sjson.member_opt "costs") with
      | Some (Sjson.Array cs) ->
        Some
          (costs_key
             (List.map
                (function
                  | Sjson.Array [ Sjson.Int p; Sjson.Int c ] -> (p, c)
                  | _ -> (min_int, min_int))
                cs))
      | _ -> None
    in
    { obj;
      rtt_ms = ms_of_s (t1 -. t0);
      recv_s = t1;
      status = status resp;
      costs;
      generation =
        (match field "generation" with Some (Sjson.Int g) -> g | _ -> -1);
      queue_ms = num (field "queue_ms");
      server_ms = num (field "latency_ms");
      mode = (match field "mode" with Some (Sjson.String m) -> m | _ -> "") }

(* The wire reload; the generation it reports is mapped to the pool the
   reuse source handed out. Reloads are serialized so the two agree. *)
let reload env c =
  Mutex.lock env.reload_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock env.reload_mu) @@ fun () ->
  match Core.Serve.Client.reload c with
  | Error e -> Some ("reload: " ^ e)
  | Ok resp -> (
    let result = Sjson.member_opt "result" resp in
    let field k = Option.bind result (Sjson.member_opt k) in
    match (status resp, field "changed", field "generation") with
    | "ok", Some (Sjson.Bool true), Some (Sjson.Int g) ->
      Hashtbl.replace env.gen_pool g !(env.handed);
      None
    | s, _, _ -> Some ("reload: status " ^ s ^ " or pool unchanged"))

type phase = {
  samples : sample list;
  reloads : string option list;  (** one per reload: its problem, if any *)
  phase_s : float;
}

let run_phase env ~seed ~seconds =
  let stream = Stream.create ~seed and stream_mu = Mutex.create () in
  let solves = Atomic.make 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let client c =
    let samples = ref [] and reloads = ref [] in
    let next () =
      Mutex.lock stream_mu;
      let i =
        if now () < deadline || not (Stream.at_pass_end stream) then
          Some (Stream.next stream)
        else None
      in
      Mutex.unlock stream_mu;
      i
    in
    let rec go () =
      match next () with
      | None -> ()
      | Some i ->
        let t0 = now () in
        let r = Core.Serve.Client.solve c objectives.(i) in
        let t1 = now () in
        samples := sample_of i t0 t1 r :: !samples;
        if (Atomic.fetch_and_add solves 1 + 1) mod reload_every = 0 then
          reloads := reload env c :: !reloads;
        go ()
    in
    (try go ()
     with e -> reloads := Some ("client: " ^ Printexc.to_string e) :: !reloads);
    (!samples, !reloads)
  in
  let outs = Array.map (fun _ -> ref ([], [])) env.clients in
  let threads =
    Array.mapi
      (fun k c -> Thread.create (fun () -> outs.(k) := client c) ())
      env.clients
  in
  Array.iter Thread.join threads;
  let phase_s = now () -. t_start in
  { samples = List.concat_map (fun o -> fst !o) (Array.to_list outs);
    reloads = List.concat_map (fun o -> snd !o) (Array.to_list outs);
    phase_s }

(* ---- checks and metrics --------------------------------------------- *)

(* Every solve answers ok with the cost vector of a one-shot
   [concretize_v] of the same request on the pool its generation names
   (cost-tied models may differ, so answers are not compared byte for
   byte). References are computed here, after the timed phase. *)
let check env tally phase =
  let reference = Hashtbl.create 64 in
  let expected obj pool =
    match Hashtbl.find_opt reference (obj, pool) with
    | Some c -> c
    | None ->
      let c =
        match
          Core.Concretizer.concretize_v ~repo:env.repo
            ~options:(options ~reuse:env.pools.(pool))
            [ Core.Encode.request_of_string objectives.(obj) ]
        with
        | Ok o -> Some (costs_key o.Core.Concretizer.stats.Core.Concretizer.costs)
        | Error _ -> None
      in
      Hashtbl.replace reference (obj, pool) c;
      c
  in
  let passed = ref 0 in
  List.iter
    (fun s ->
      attempt tally;
      let problem =
        if s.status <> "ok" then Some ("status " ^ s.status)
        else
          match Hashtbl.find_opt env.gen_pool s.generation with
          | None -> Some (Printf.sprintf "unknown generation %d" s.generation)
          | Some pool ->
            if s.costs <> expected s.obj pool || s.costs = None then
              Some "cost vector differs from one-shot concretize_v"
            else None
      in
      match problem with
      | Some p -> fail tally (objectives.(s.obj) ^ ": " ^ p)
      | None -> incr passed)
    phase.samples;
  List.iter
    (fun r ->
      attempt tally;
      Option.iter (fail tally) r)
    phase.reloads;
  !passed

(* The first solve answered on each generation after the initial one:
   the request that paid for the delta reground and session rebuild. *)
let generation_firsts env phase =
  let firsts = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.generation > env.initial_gen then
        match Hashtbl.find_opt firsts s.generation with
        | Some f when f.recv_s <= s.recv_s -> ()
        | _ -> Hashtbl.replace firsts s.generation s)
    phase.samples;
  Hashtbl.fold (fun _ s acc -> s :: acc) firsts []

let end_to_end env tally phase =
  let rss = peak_rss_mb () in
  let passed = check env tally phase in
  let rtts = List.map (fun s -> s.rtt_ms) phase.samples in
  ( tally,
    [ { name = "throughput_per_s";
        value = float_of_int passed /. phase.phase_s;
        unit_ = "1/s" };
      { name = "latency_p50_ms"; value = median rtts; unit_ = "ms" };
      { name = "latency_p90_ms"; value = quantile rtts 0.9; unit_ = "ms" };
      { name = "peak_rss_mb"; value = rss; unit_ = "MB" };
      { name = "reload_solve_ms";
        value = median (List.map (fun s -> s.rtt_ms) (generation_firsts env phase));
        unit_ = "ms" } ] )

let untraced env ~seed ~seconds =
  let phase = run_phase env ~seed ~seconds in
  end_to_end env (tally ()) phase

(* The serve ledger comes from outside the server: each response's
   [server] fields split the round trip into transport, queue and
   service, and one [stats] call gives the window's closure hit rate
   and session recycles per request. The loop itself is the untraced
   one, so tracing costs nothing here. *)
let traced env ~seed ~seconds =
  let tally = tally () in
  let phase = run_phase env ~seed ~seconds in
  let window =
    match Core.Serve.Client.stats env.clients.(0) with
    | Ok resp ->
      Option.bind (Sjson.member_opt "result" resp) (Sjson.member_opt "window")
    | Error _ -> None
  in
  attempt tally;
  if window = None then fail tally "stats: no window block";
  let win k =
    match Option.bind window (Sjson.member_opt k) with
    | None -> 0.0
    | v -> num v
  in
  ignore (check env tally phase);
  let ok = List.filter (fun s -> s.status = "ok") phase.samples in
  let service s = s.server_ms -. s.queue_ms in
  let mean_of f = mean (List.map f ok) in
  let firsts = List.filter (fun s -> s.status = "ok") (generation_firsts env phase) in
  ( tally,
    Ledger.metrics
      [ ("serve.queue_ms", mean_of (fun s -> s.queue_ms));
        ("serve.service_ms", mean_of service);
        ("serve.transport_ms", mean_of (fun s -> s.rtt_ms -. s.server_ms));
        ( "serve.rebuild_ms",
          median (List.map service firsts) -. median (List.map service ok) );
        ( "serve.session_share",
          ratio
            (float_of_int (List.length (List.filter (fun s -> s.mode = "session") ok)))
            (float_of_int (List.length ok)) );
        ("serve.closure_hit_rate", win "closure_hit_rate");
        ("serve.recycles", ratio (win "session_recycles") (win "requests")) ] )
