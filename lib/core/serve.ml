(* spackml serve: a resident multi-tenant concretization server.

   Every solve is a pruned one-shot [Concretizer.concretize_v], so a
   served answer is byte-identical to the CLI's. What stays resident is
   what that call can reuse across requests, served over a Unix socket:

   - a pool of OCaml 5 domain workers taking jobs from one FIFO
     queue; admission is bounded ([max_queue] enqueued jobs) with a
     typed [overloaded] rejection instead of unbounded latency;
   - per-request deadlines and conflict caps enforced inside the SAT
     core by the [Asp.Sat.budget] hook — a preempted request
     answers [timeout];
   - the reusable pool, swapped by [set_reuse], which bumps a
     generation whenever the buildcache digest changes;
   - length-prefixed JSON frames ([Sjson.Frame]) as the wire protocol,
     with [Client] as the in-process driver.

   Threading model: solver work runs on domains (true parallelism);
   socket I/O runs on lightweight systhreads (one acceptor, one reader
   per connection) that spend their life blocked in [Unix.read].
   Workers write responses directly to the originating connection
   under its write mutex, so responses to pipelined requests may
   arrive out of order — they carry the request [id] for matching. *)

(* Live-telemetry knobs: one rolling window plus the flight recorder.
   The horizon is split into [Obs.Window]'s 12 rotating slots, so the
   wire "stats" op can answer "p99 over the last N seconds" without
   ever scanning history; the recorder tail-samples completed request
   traces (always keep errors, deadline misses and the slowest 8; 1 in
   16 of the rest). *)
type telemetry = {
  horizon_s : float;  (* rolling-stats horizon *)
  recorder_capacity : int;  (* flight-recorder ring size; 0 disables *)
}

let default_telemetry = { horizon_s = 60.; recorder_capacity = 256 }

type config = {
  workers : int;  (* solver domains *)
  max_queue : int;  (* admission bound: max enqueued-not-yet-running jobs *)
  default_deadline_ms : float option;
  fault_injection : bool;  (* honor the "boom" request flag *)
  reuse_source : (unit -> Spec.Concrete.t list) option;
      (* backing of the wire "reload" op *)
  telemetry : telemetry option;
      (* live windowed stats + flight recorder; [None] turns the whole
         layer off (the disabled path is a single branch per request) *)
  options : Concretizer.options;
}

let default_config =
  { workers = Domain.recommended_domain_count ();
    max_queue = 256;
    default_deadline_ms = None;
    fault_injection = false;
    reuse_source = None;
    telemetry = Some default_telemetry;
    options = Concretizer.default_options }

(* The buildcache identity: a content hash over the sorted DAG hashes
   of the reusable specs. *)
let pool_digest specs =
  List.map Spec.Concrete.dag_hash specs
  |> List.sort String.compare
  |> String.concat "\n"
  |> Chash.hash_string

(* ---- connections --------------------------------------------------- *)

(* A connection outlives its reader thread while jobs for it are still
   in flight (workers write responses directly); the fd closes when
   the reader is done AND the last pending job has answered. *)
type conn = {
  c_fd : Unix.file_descr;
  c_wmu : Mutex.t;  (* serializes response frames *)
  c_mu : Mutex.t;  (* guards the three fields below *)
  mutable c_jobs : int;  (* jobs in flight for this connection *)
  mutable c_eof : bool;  (* reader finished *)
  mutable c_closed : bool;  (* fd actually closed *)
}

let conn_create fd =
  { c_fd = fd;
    c_wmu = Mutex.create ();
    c_mu = Mutex.create ();
    c_jobs = 0;
    c_eof = false;
    c_closed = false }

let conn_close_if_done c =
  if c.c_eof && c.c_jobs = 0 && not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

let conn_job_begin c =
  Mutex.lock c.c_mu;
  c.c_jobs <- c.c_jobs + 1;
  Mutex.unlock c.c_mu

let conn_job_end c =
  Mutex.lock c.c_mu;
  c.c_jobs <- c.c_jobs - 1;
  conn_close_if_done c;
  Mutex.unlock c.c_mu

let conn_reader_done c =
  Mutex.lock c.c_mu;
  c.c_eof <- true;
  conn_close_if_done c;
  Mutex.unlock c.c_mu

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* ---- jobs and server state ----------------------------------------- *)

type job = {
  j_conn : conn;
  j_id : Sjson.t;  (* echoed verbatim in the response *)
  j_rid : string;  (* request id: client-supplied or server-assigned *)
  j_op : string;
  j_payload : Sjson.t;
  j_received : float;  (* monotonic, at frame decode *)
  j_deadline : float option;  (* absolute monotonic deadline *)
  j_obs : Obs.ctx;
      (* per-request recording context (flight recorder); [disabled]
         when the recorder is off or the op is not traced *)
}

(* One slot of the live "stats" window. Every answer lands in exactly
   one status count, so the window's request count is their sum. *)
type slot = {
  sl_solve_ms : Obs.Hist.t;  (* end-to-end latency of solve answers *)
  sl_queue_ms : Obs.Hist.t;  (* queue wait of every worker answer *)
  sl_counts : int array;  (* answers per [statuses] entry, then deadline misses *)
}

let statuses = [| "ok"; "unsat"; "timeout"; "error"; "overloaded" |]

(* An unknown status counts as an error. *)
let status_index s =
  Option.value ~default:3 (Array.find_index (String.equal s) statuses)

let deadline_misses = Array.length statuses

let new_slot () =
  { sl_solve_ms = Obs.Hist.create ();
    sl_queue_ms = Obs.Hist.create ();
    sl_counts = Array.make (deadline_misses + 1) 0 }

let reset_slot s =
  Obs.Hist.reset s.sl_solve_ms;
  Obs.Hist.reset s.sl_queue_ms;
  Array.fill s.sl_counts 0 (Array.length s.sl_counts) 0

(* Fold step of a "stats" read: a copy, since the ring reuses slots. *)
let add_slot acc s =
  Array.iteri (fun i n -> acc.sl_counts.(i) <- acc.sl_counts.(i) + n) s.sl_counts;
  { acc with
    sl_solve_ms = Obs.Hist.merge acc.sl_solve_ms s.sl_solve_ms;
    sl_queue_ms = Obs.Hist.merge acc.sl_queue_ms s.sl_queue_ms }

type t = {
  repo : Pkg.Repo.t;
  config : config;
  sock_path : string;
  listen_fd : Unix.file_descr;
  (* queueing (guarded by [mu]) *)
  mu : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable running : bool;
  mutable served : int;  (* worker answers *)
  mutable rejected : int;  (* [overloaded] rejections *)
  (* buildcache state (guarded by [pool_mu]) *)
  pool_mu : Mutex.t;
  mutable reuse : Spec.Concrete.t list;
  mutable digest : string;
  mutable generation : int;
  (* live telemetry *)
  started_s : float;
  rid_counter : int Atomic.t;  (* server-assigned request ids *)
  window : slot Obs.Window.t option;  (* [None]: live telemetry off *)
  recorder : Obs.Recorder.t option;
  (* lifecycle *)
  mutable accept_thread : Thread.t option;
  mutable domains : unit Domain.t list;
}

let fresh_rid t = Printf.sprintf "srv-%d" (Atomic.fetch_and_add t.rid_counter 1)

(* The request id joins client and server traces: take the client's
   ("rid" string or int), assign one otherwise. *)
let rid_of t payload =
  match Sjson.member_opt "rid" payload with
  | Some (Sjson.String s) when s <> "" -> s
  | Some (Sjson.Int n) -> string_of_int n
  | _ -> fresh_rid t

let obs t = t.config.options.Concretizer.obs

let generation t =
  Mutex.lock t.pool_mu;
  let g = t.generation in
  Mutex.unlock t.pool_mu;
  g

let pool_digest_of t =
  Mutex.lock t.pool_mu;
  let d = t.digest in
  Mutex.unlock t.pool_mu;
  d

(* Swap the reusable pool. A digest change bumps the generation. Same
   digest = no-op, so callers can re-feed the same buildcache freely. *)
let set_reuse t specs =
  Mutex.lock t.pool_mu;
  let d = pool_digest specs in
  let changed = d <> t.digest in
  if changed then begin
    t.reuse <- specs;
    t.digest <- d;
    t.generation <- t.generation + 1;
    Obs.incr (obs t) "serve.evictions"
  end;
  Mutex.unlock t.pool_mu;
  changed

(* The pool and its generation, read together under [pool_mu] so a
   concurrent [set_reuse] can never pair an old pool with a new
   generation. *)
let pool_snapshot t =
  Mutex.lock t.pool_mu;
  let snap = (t.reuse, t.generation) in
  Mutex.unlock t.pool_mu;
  snap

(* ---- queue --------------------------------------------------------- *)

type admission = Admitted | Overloaded

let submit t job =
  Mutex.lock t.mu;
  let r =
    if (not t.running) || Queue.length t.jobs >= t.config.max_queue then Overloaded
    else begin
      Queue.push job t.jobs;
      Condition.signal t.nonempty;
      Admitted
    end
  in
  Mutex.unlock t.mu;
  r

(* Blocks for work; [None] = shutdown and the queue drained, so a
   stopping server still answers everything it admitted. *)
let take_job t =
  Mutex.lock t.mu;
  let rec go () =
    match Queue.take_opt t.jobs with
    | Some j ->
      Mutex.unlock t.mu;
      Some j
    | None ->
      if not t.running then begin
        Mutex.unlock t.mu;
        None
      end
      else begin
        Condition.wait t.nonempty t.mu;
        go ()
      end
  in
  go ()

(* ---- responses ----------------------------------------------------- *)

let respond t conn v =
  let s = Sjson.Frame.encode v in
  Mutex.lock conn.c_wmu;
  (try write_all conn.c_fd s 0 (String.length s)
   with Unix.Unix_error _ ->
     (* Peer went away mid-request: drop the response, keep serving. *)
     Obs.incr (obs t) "serve.dropped_responses");
  Mutex.unlock conn.c_wmu

(* Account one answer. Every answer passes here once, after it is built
   and before it is sent: a worker's, with its queue wait and latency,
   or the reader thread's [overloaded] rejection, with neither. It
   feeds the shared trace metrics, the live window and the
   served/rejected totals. *)
let record t ~op ~status ?(deadline_missed = false) ?timing () =
  let obs = obs t in
  Obs.incr obs ("serve.status." ^ status);
  (match timing with
  | Some (queue_ms, latency_ms) ->
    Obs.observe obs "serve.queue_ms" queue_ms;
    Obs.observe obs "serve.latency_ms" latency_ms;
    if op = "solve" then Obs.observe obs "serve.solve_ms" latency_ms
  | None -> ());
  (match t.window with
  | Some w ->
    let i = status_index status in
    Obs.Window.update w (fun s ->
        let c = s.sl_counts in
        c.(i) <- c.(i) + 1;
        if deadline_missed then c.(deadline_misses) <- c.(deadline_misses) + 1;
        match timing with
        | Some (queue_ms, latency_ms) ->
          Obs.Hist.observe s.sl_queue_ms queue_ms;
          if op = "solve" then Obs.Hist.observe s.sl_solve_ms latency_ms
        | None -> ())
  | None -> ());
  Mutex.lock t.mu;
  if timing = None then t.rejected <- t.rejected + 1 else t.served <- t.served + 1;
  Mutex.unlock t.mu

let status_of_result = function
  | Ok _ -> "ok"
  | Error (f : Concretizer.failure) -> (
    match f.Concretizer.f_kind with
    | Concretizer.Unsat _ -> "unsat"
    | Concretizer.Timeout -> "timeout"
    | Concretizer.Other -> "error")

(* The canonical solve answer: everything a response and a one-shot
   [Concretizer] run must agree on byte-for-byte, and nothing
   timing-dependent. Tests and the bench compare
   [Sjson.to_string (canonical_of_result r)] across transports. *)
let canonical_of_result (r : (Concretizer.outcome, Concretizer.failure) result) =
  match r with
  | Ok o ->
    let spec = List.hd o.Concretizer.solution.Decode.specs in
    Sjson.Object
      [ ("status", Sjson.String "ok");
        ("hash", Sjson.String (Spec.Concrete.dag_hash spec));
        ("spec", Sjson.String (Spec.Concrete.to_string spec));
        ( "costs",
          Sjson.Array
            (List.map
               (fun (p, c) -> Sjson.Array [ Sjson.Int p; Sjson.Int c ])
               o.Concretizer.stats.Concretizer.costs) ) ]
  | Error { Concretizer.f_kind = Concretizer.Timeout; _ } ->
    Sjson.Object [ ("status", Sjson.String "timeout") ]
  | Error f ->
    Sjson.Object
      [ ("status", Sjson.String (status_of_result r));
        ("message", Sjson.String f.Concretizer.f_message) ]

let canonical_error msg =
  Sjson.Object
    [ ("status", Sjson.String "error"); ("message", Sjson.String msg) ]

let canonical_timeout = Sjson.Object [ ("status", Sjson.String "timeout") ]

(* ---- request handling ---------------------------------------------- *)

let field_string k j =
  match Sjson.member_opt k j with Some (Sjson.String s) -> Some s | _ -> None

let field_number k j =
  match Sjson.member_opt k j with
  | Some (Sjson.Int n) -> Some (float_of_int n)
  | Some (Sjson.Float f) -> Some f
  | _ -> None

let field_int k j =
  match Sjson.member_opt k j with Some (Sjson.Int n) -> Some n | _ -> None

let field_bool k j =
  match Sjson.member_opt k j with
  | Some (Sjson.Bool b) -> b
  | _ -> false

let budget_of ~conflicts ~deadline : Asp.Sat.budget option =
  match (conflicts, deadline) with
  | None, None -> None
  | _ ->
    Some
      { Asp.Sat.b_conflicts = conflicts;
        b_stop =
          Option.map (fun d () -> Obs.Clock.now_s () > d) deadline }

(* Serve one solve request; returns (status, canonical result, extra
   response fields). [robs] is the request-scoped observation context
   (the shared server context teed with the job's flight-recorder
   context) — concretizer spans recorded through it land in both.
   Raises on internal faults (caught by the caller and answered as a
   typed error). *)
let run_solve t job robs =
  let payload = job.j_payload in
  if t.config.fault_injection && field_bool "boom" payload then
    failwith "injected worker fault";
  match field_string "spec" payload with
  | None -> ("error", canonical_error "solve: missing \"spec\" field", [])
  | Some text -> (
    match Encode.request_of_string text with
    | exception Spec.Parser.Parse_error e ->
      ("error", canonical_error ("parse error: " ^ e), [])
    | request ->
      let now = Obs.Clock.now_s () in
      let expired =
        match job.j_deadline with Some d -> now > d | None -> false
      in
      if expired then
        (* Died waiting in the queue: answer without touching a solver,
           so an overload burst drains in bounded time. *)
        ("timeout", canonical_timeout, [ ("expired_in_queue", Sjson.Bool true) ])
      else
        let budget =
          budget_of ~conflicts:(field_int "conflicts" payload) ~deadline:job.j_deadline
        in
        let reuse, gen = pool_snapshot t in
        let result =
          Concretizer.concretize_v ~repo:t.repo
            ~options:
              { t.config.options with
                Concretizer.reuse;
                mirrors = None;
                obs = robs }
            ?budget
            ~attrs:[ ("rid", Obs.S job.j_rid) ]
            [ request ]
        in
        ( status_of_result result,
          canonical_of_result result,
          [ ("generation", Sjson.Int gen) ] ))

let hist_summary_json h =
  Sjson.Object
    [ ("count", Sjson.Int (Obs.Hist.count h));
      ( "mean",
        Sjson.Float
          (if Obs.Hist.count h = 0 then 0.
           else Obs.Hist.sum h /. float_of_int (Obs.Hist.count h)) );
      ("p50", Sjson.Float (Obs.Hist.quantile h 0.5));
      ("p90", Sjson.Float (Obs.Hist.quantile h 0.9));
      ("p99", Sjson.Float (Obs.Hist.quantile h 0.99));
      ("max", Sjson.Float (Obs.Hist.max_value h)) ]

(* The rolling-window block of a "stats" answer: one fold of the ring,
   so one snapshot. [window_s] comes from the request's "window" field
   (seconds), rounded up to slot granularity and clamped to the
   horizon; default = full horizon. *)
let window_json t w ?window_s () =
  let covered = Obs.Window.covered_s ?window_s w in
  let sum = Obs.Window.fold ?window_s w add_slot (new_slot ()) in
  let count status = sum.sl_counts.(status_index status) in
  let requests = Array.fold_left (fun n s -> n + count s) 0 statuses in
  let rate n = if requests = 0 then 0. else float_of_int n /. float_of_int requests in
  Sjson.Object
    ([ ("window_s", Sjson.Float covered);
       ("horizon_s", Sjson.Float (Obs.Window.horizon_s w));
       ("requests", Sjson.Int requests);
       ("rps", Sjson.Float (float_of_int requests /. covered));
       ("solve_ms", hist_summary_json sum.sl_solve_ms);
       ("queue_ms", hist_summary_json sum.sl_queue_ms);
       ( "statuses",
         Sjson.Object
           (Array.to_list (Array.map (fun s -> (s, Sjson.Int (count s))) statuses)) );
       ("overload_rate", Sjson.Float (rate (count "overloaded")));
       ( "deadline_miss_rate",
         Sjson.Float (rate sum.sl_counts.(deadline_misses)) );
       ("error_rate", Sjson.Float (rate (count "error"))) ]
    @
    match t.recorder with
    | None -> []
    | Some r ->
      [ ( "recorder",
          Sjson.Object
            [ ("seen", Sjson.Int (Obs.Recorder.seen r));
              ("kept", Sjson.Int (Obs.Recorder.kept r));
              ("capacity", Sjson.Int (Obs.Recorder.capacity r)) ] ) ])

let run_stats t payload =
  Mutex.lock t.mu;
  let pending = Queue.length t.jobs and served = t.served and rejected = t.rejected in
  Mutex.unlock t.mu;
  Sjson.Object
    ([ ("status", Sjson.String "ok");
       ("workers", Sjson.Int t.config.workers);
       ("pending", Sjson.Int pending);
       ("served", Sjson.Int served);
       ("rejected", Sjson.Int rejected);
       ("generation", Sjson.Int (generation t));
       ("digest", Sjson.String (pool_digest_of t));
       ("uptime_s", Sjson.Float (Obs.Clock.now_s () -. t.started_s)) ]
    @
    match t.window with
    | None -> []
    | Some w ->
      let window_s = field_number "window" payload in
      [ ("window", window_json t w ?window_s ()) ])

(* One flight-recorder entry on the wire; "trace" is a self-contained
   Perfetto-loadable object. *)
let trace_json (tr : Obs.Recorder.trace) =
  Sjson.Object
    [ ("rid", Sjson.String tr.Obs.Recorder.tr_rid);
      ("op", Sjson.String tr.Obs.Recorder.tr_op);
      ("status", Sjson.String tr.Obs.Recorder.tr_status);
      ( "keep",
        Sjson.String (Obs.Recorder.keep_class_to_string tr.Obs.Recorder.tr_keep)
      );
      ("worker", Sjson.Int tr.Obs.Recorder.tr_worker);
      ("age_s", Sjson.Float (Obs.Clock.now_s () -. tr.Obs.Recorder.tr_start_s));
      ("dur_ms", Sjson.Float tr.Obs.Recorder.tr_dur_ms);
      ("queue_ms", Sjson.Float tr.Obs.Recorder.tr_queue_ms);
      ("trace", Obs.Sink.chrome_events tr.Obs.Recorder.tr_events) ]

let run_dump t payload =
  match t.recorder with
  | Some r ->
    let n = match field_int "n" payload with Some n -> max 0 n | None -> 32 in
    let keep =
      match field_string "keep" payload with
      | Some s -> Obs.Recorder.keep_class_of_string s
      | None -> None
    in
    let traces = Obs.Recorder.traces ~n ?keep r in
    Sjson.Object
      [ ("status", Sjson.String "ok");
        ("seen", Sjson.Int (Obs.Recorder.seen r));
        ("kept", Sjson.Int (Obs.Recorder.kept r));
        ("returned", Sjson.Int (List.length traces));
        ("traces", Sjson.Array (List.map trace_json traces)) ]
  | None -> canonical_error "dump: flight recorder disabled"

let handle_job t worker job =
  Fun.protect ~finally:(fun () -> conn_job_end job.j_conn) @@ fun () ->
  let queue_ms = (Obs.Clock.now_s () -. job.j_received) *. 1000. in
  let op = job.j_op in
  (* [robs] carries every span of this request into both the shared
     server context (--trace) and the job's flight-recorder context.
     When both are disabled this is [Obs.disabled]. *)
  let robs = Obs.tee (obs t) job.j_obs in
  Obs.instant job.j_obs
    ~attrs:[ ("worker", Obs.I worker); ("queue_ms", Obs.F queue_ms) ]
    "serve.dequeued";
  let status, result, extra =
    Obs.with_span robs ~cat:"serve" "serve.request"
      ~attrs:
        [ ("rid", Obs.S job.j_rid);
          ("worker", Obs.I worker);
          ("op", Obs.S op) ]
    @@ fun span ->
    let r =
      match
        match op with
        | "solve" -> run_solve t job robs
        | "ping" -> ("ok", Sjson.Object [ ("status", Sjson.String "pong") ], [])
        | op -> ("error", canonical_error ("unknown op: " ^ op), [])
      with
      | r -> r
      | exception e ->
        (* A worker fault answers the request instead of wedging the
           queue; the domain lives on. *)
        Obs.incr (obs t) "serve.worker_faults";
        ("error", canonical_error (Printexc.to_string e), [])
    in
    let status, _, _ = r in
    Obs.set_attr span "status" (Obs.S status);
    r
  in
  let latency_ms = (Obs.Clock.now_s () -. job.j_received) *. 1000. in
  let deadline_missed = status = "timeout" && job.j_deadline <> None in
  record t ~op ~status ~deadline_missed ~timing:(queue_ms, latency_ms) ();
  (* Tail-sampling: the keep decision sees the completed request. Only
     solve traces (and anything that errored) compete for ring space:
     pings would crowd out the signal. *)
  (match t.recorder with
  | Some r when op = "solve" || status <> "ok" ->
    ignore
      (Obs.Recorder.record r ~rid:job.j_rid ~op ~status ~deadline_missed
         ~worker ~start_s:job.j_received ~dur_ms:latency_ms ~queue_ms
         ~events:(Obs.events job.j_obs))
  | _ -> ());
  respond t job.j_conn
    (Sjson.Object
       [ ("id", job.j_id);
         ("rid", Sjson.String job.j_rid);
         ("status", Sjson.String status);
         ("result", result);
         ( "server",
           Sjson.Object
             (("worker", Sjson.Int worker)
             :: ("queue_ms", Sjson.Float queue_ms)
             :: ("latency_ms", Sjson.Float latency_ms)
             :: extra) ) ])

let worker_loop t i =
  let rec go () =
    match take_job t with
    | None -> ()
    | Some job ->
      handle_job t i job;
      go ()
  in
  go ()

(* ---- connection I/O ------------------------------------------------ *)

let overloaded_response id rid =
  Sjson.Object
    [ ("id", id);
      ("rid", Sjson.String rid);
      ("status", Sjson.String "overloaded");
      ( "result",
        Sjson.Object
          [ ("status", Sjson.String "overloaded");
            ("message", Sjson.String "queue full, retry later") ] ) ]

let frame_error_response msg =
  Sjson.Object
    [ ("id", Sjson.Null);
      ("status", Sjson.String "error");
      ("result", canonical_error msg) ]

let run_reload t =
  match t.config.reuse_source with
  | None -> canonical_error "reload: no reuse source configured"
  | Some f ->
    let changed = set_reuse t (f ()) in
    Sjson.Object
      [ ("status", Sjson.String "ok");
        ("changed", Sjson.Bool changed);
        ("generation", Sjson.Int (generation t));
        ("digest", Sjson.String (pool_digest_of t)) ]

let request_stop t =
  Mutex.lock t.mu;
  let was_running = t.running in
  if was_running then begin
    t.running <- false;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mu;
  if was_running then begin
    (* Wake the acceptor with a throwaway connection. *)
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX t.sock_path)
       with Unix.Unix_error _ -> ());
      Unix.close fd
    with Unix.Unix_error _ -> ()
  end

(* Queue a request, or answer [overloaded] when the queue is full. *)
let enqueue t conn id rid op payload =
  let now = Obs.Clock.now_s () in
  let deadline_ms =
    match field_number "deadline_ms" payload with
    | Some ms -> Some ms
    | None -> t.config.default_deadline_ms
  in
  (* The per-request context is created at frame decode, so its epoch
     is the moment the request entered the server: the gap before
     "serve.dequeued" is the queue wait, visible in the trace. *)
  let j_obs =
    if t.recorder <> None && op = "solve" then Obs.create () else Obs.disabled
  in
  Obs.instant j_obs
    ~attrs:[ ("rid", Obs.S rid); ("op", Obs.S op) ]
    "serve.received";
  let job =
    { j_conn = conn;
      j_id = id;
      j_rid = rid;
      j_op = op;
      j_payload = payload;
      j_received = now;
      j_deadline = Option.map (fun ms -> now +. (ms /. 1000.)) deadline_ms;
      j_obs }
  in
  conn_job_begin conn;
  match submit t job with
  | Admitted -> ()
  | Overloaded ->
    record t ~op ~status:"overloaded" ();
    respond t conn (overloaded_response id rid);
    conn_job_end conn

(* Admin and lifecycle ops are answered here, on the reader thread:
   they must work even when the solve queue is saturated, and they are
   not requests the window counts, so polling "stats" leaves the rates
   it shows alone. "ping" is queued: it probes the queue. *)
let dispatch t conn payload =
  let id =
    match Sjson.member_opt "id" payload with Some v -> v | None -> Sjson.Null
  in
  let op = match field_string "op" payload with Some o -> o | None -> "solve" in
  let rid = rid_of t payload in
  let answer result =
    respond t conn
      (Sjson.Object
         [ ("id", id);
           ("rid", Sjson.String rid);
           ("status", Sjson.String "ok");
           ("result", result) ])
  in
  match op with
  | "stats" -> answer (run_stats t payload)
  | "dump" -> answer (run_dump t payload)
  | "reload" -> answer (run_reload t)
  | "shutdown" ->
    answer (Sjson.Object [ ("status", Sjson.String "stopping") ]);
    request_stop t
  | _ -> enqueue t conn id rid op payload

let reader t conn =
  let dec = Sjson.Frame.create () in
  let buf = Bytes.create 65536 in
  let stop = ref false in
  let rec drain () =
    match Sjson.Frame.next dec with
    | Some payload ->
      dispatch t conn payload;
      drain ()
    | None -> ()
    | exception Sjson.Frame.Error e ->
      Obs.incr (obs t) "serve.bad_frames";
      respond t conn (frame_error_response (Sjson.Frame.error_to_string e));
      (match e with
      | Sjson.Frame.Bad_payload _ ->
        (* The bad payload was consumed whole; framing is still
           aligned, keep serving this connection. *)
        drain ()
      | Sjson.Frame.Oversized _ | Sjson.Frame.Truncated ->
        (* Can't resync without buffering the oversized body: answer
           and drop the connection. *)
        stop := true)
  in
  while not !stop do
    match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
    | 0 ->
      stop := true;
      (* A partial trailing frame is a peer that died mid-send. *)
      (try Sjson.Frame.finish dec
       with Sjson.Frame.Error _ -> Obs.incr (obs t) "serve.truncated_frames")
    | n ->
      Sjson.Frame.feed dec (Bytes.sub_string buf 0 n) 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
      stop := true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  conn_reader_done conn

let accept_loop t =
  let running () =
    Mutex.lock t.mu;
    let r = t.running in
    Mutex.unlock t.mu;
    r
  in
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if running () then begin
        let conn = conn_create fd in
        ignore (Thread.create (fun () -> reader t conn) ());
        go ()
      end
      else Unix.close fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* ---- lifecycle ----------------------------------------------------- *)

(* Bind and listen on [socket], replacing a stale socket file. *)
let listen socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.bind fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.listen fd 64;
    Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "bind %s: %s" socket (Unix.error_message e))

let start ~repo ?(config = default_config) ~socket () =
  let tc = config.telemetry in
  match tc with
  | _ when config.workers < 1 ->
    Error (Printf.sprintf "workers: expected 1 or more, got %d" config.workers)
  | Some { horizon_s; _ } when not (horizon_s > 0.) ->
    Error (Printf.sprintf "horizon_s: expected a value above 0, got %g" horizon_s)
  | _ -> (
    (* Workers write to peers that may vanish: surface EPIPE as the
       (handled) Unix_error, not a process kill. *)
    if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match listen socket with
    | Error _ as e -> e
    | Ok listen_fd ->
      let reuse = config.options.Concretizer.reuse in
      let t =
        { repo;
          config;
          sock_path = socket;
          listen_fd;
          mu = Mutex.create ();
          nonempty = Condition.create ();
          jobs = Queue.create ();
          running = true;
          served = 0;
          rejected = 0;
          pool_mu = Mutex.create ();
          reuse;
          digest = pool_digest reuse;
          generation = 0;
          started_s = Obs.Clock.now_s ();
          rid_counter = Atomic.make 0;
          window =
            Option.map
              (fun tc ->
                Obs.Window.create ~horizon_s:tc.horizon_s ~reset:reset_slot new_slot)
              tc;
          recorder =
            Option.bind tc (fun tc ->
                if tc.recorder_capacity > 0 then
                  Some
                    (Obs.Recorder.create ~capacity:tc.recorder_capacity
                       ~window_s:tc.horizon_s ())
                else None);
          accept_thread = None;
          domains = [] }
      in
      t.domains <-
        List.init config.workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
      Ok t)

let socket_path t = t.sock_path

(* Block until the server has stopped (a client sent "shutdown", or
   [stop] was called from another thread) and every admitted request
   was answered. *)
let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  List.iter Domain.join t.domains;
  t.domains <- [];
  t.accept_thread <- None;
  try Unix.unlink t.sock_path with Unix.Unix_error _ -> ()

let stop t =
  request_stop t;
  wait t

(* ---- client -------------------------------------------------------- *)

module Client = struct
  type t = {
    path : string;
    retries : int;  (* extra attempts per rpc beyond the first *)
    backoff_ms : float;  (* base delay, doubling per retry *)
    mutable fd : Unix.file_descr option;
    mutable dec : Sjson.Frame.decoder;
    buf : Bytes.t;
    mutable next_id : int;
  }

  let dial path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

  let connect ?(retries = 0) ?(backoff_ms = 5.0) path =
    match dial path with
    | Error _ as e -> e
    | Ok fd ->
      Ok
        { path;
          retries;
          backoff_ms;
          fd = Some fd;
          dec = Sjson.Frame.create ();
          buf = Bytes.create 65536;
          next_id = 0 }

  let drop c =
    (match c.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    c.fd <- None

  let close c = drop c

  (* Re-dial and — critically — reset the frame decoder: bytes from a
     connection that died mid-frame must not prefix the new stream. *)
  let reconnect c =
    drop c;
    match dial c.path with
    | Error _ as e -> e
    | Ok fd ->
      c.fd <- Some fd;
      c.dec <- Sjson.Frame.create ();
      Ok ()

  let current_fd c =
    match c.fd with
    | Some fd -> Ok fd
    | None -> Error "connection closed"

  let send c v =
    match current_fd c with
    | Error _ as e -> e
    | Ok fd -> (
      let s = Sjson.Frame.encode v in
      match write_all fd s 0 (String.length s) with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

  let recv c =
    let rec go fd =
      match Sjson.Frame.next c.dec with
      | Some v -> Ok v
      | None -> (
        match Unix.read fd c.buf 0 (Bytes.length c.buf) with
        | 0 -> Error "server closed the connection"
        | n ->
          Sjson.Frame.feed c.dec (Bytes.sub_string c.buf 0 n) 0 n;
          go fd
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
      | exception Sjson.Frame.Error e -> Error (Sjson.Frame.error_to_string e)
    in
    match current_fd c with Error _ as e -> e | Ok fd -> go fd

  let is_overloaded resp =
    match Sjson.member_opt "status" resp with
    | Some (Sjson.String "overloaded") -> true
    | _ -> false

  (* One request, one matching response. Responses to other (pipelined)
     ids are discarded — callers doing their own pipelining should use
     [send]/[recv] directly. *)
  let rpc_once c fields =
    let id = c.next_id in
    c.next_id <- id + 1;
    match send c (Sjson.Object (("id", Sjson.Int id) :: fields)) with
    | Error _ as e -> e
    | Ok () ->
      let rec await () =
        match recv c with
        | Error _ as e -> e
        | Ok resp -> (
          match Sjson.member_opt "id" resp with
          | Some (Sjson.Int i) when i = id -> Ok resp
          | _ -> await ())
      in
      await ()

  (* Bounded retry around [rpc_once]: a transport error (disconnect
     mid-request) reconnects and resends; a typed [overloaded] response
     backs off and resends on the same connection. With [retries = 0]
     (the default) behavior is exactly the old single-shot rpc — a
     caller that wants to see overloads (admission tests, load probes)
     still sees them. A request is retried wholesale, which assumes the
     operations are idempotent — true of this protocol (solves are
     pure, reload/shutdown are convergent). *)
  let rpc c fields =
    let sleep_for k =
      let d = c.backoff_ms *. (2.0 ** float_of_int k) /. 1000.0 in
      if d > 0.0 then Unix.sleepf d
    in
    let rec go k last =
      if k > c.retries then last
      else begin
        if k > 0 then sleep_for (k - 1);
        let attempt =
          if c.fd = None then
            match reconnect c with Error _ as e -> e | Ok () -> rpc_once c fields
          else rpc_once c fields
        in
        match attempt with
        | Ok resp when is_overloaded resp -> go (k + 1) (Ok resp)
        | Ok _ as ok -> ok
        | Error _ as err -> (
          (* transport failure: the old connection is poison *)
          match reconnect c with
          | Error _ as e -> go (k + 1) e
          | Ok () -> go (k + 1) err)
      end
    in
    go 0 (Error "no attempt made")

  let solve ?deadline_ms ?conflicts ?(boom = false) ?rid c spec =
    let fields =
      [ ("op", Sjson.String "solve"); ("spec", Sjson.String spec) ]
      @ (match deadline_ms with
        | Some ms -> [ ("deadline_ms", Sjson.Float ms) ]
        | None -> [])
      @ (match conflicts with
        | Some n -> [ ("conflicts", Sjson.Int n) ]
        | None -> [])
      @ (match rid with
        | Some r -> [ ("rid", Sjson.String r) ]
        | None -> [])
      @ if boom then [ ("boom", Sjson.Bool true) ] else []
    in
    rpc c fields

  let ping c = rpc c [ ("op", Sjson.String "ping") ]

  let stats ?window_s c =
    rpc c
      (("op", Sjson.String "stats")
      ::
      (match window_s with
      | Some w -> [ ("window", Sjson.Float w) ]
      | None -> []))

  let dump ?n ?keep c =
    rpc c
      (("op", Sjson.String "dump")
      :: ((match n with Some n -> [ ("n", Sjson.Int n) ] | None -> [])
         @
         match keep with
         | Some k -> [ ("keep", Sjson.String k) ]
         | None -> []))

  let reload c = rpc c [ ("op", Sjson.String "reload") ]

  let shutdown c = rpc c [ ("op", Sjson.String "shutdown") ]
end
