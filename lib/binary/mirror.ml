(* A mirror fronts a buildcache behind a fallible fetch interface.
   Faults are injected from a seeded plan — transient errors, latency,
   sticky corruption, hard outage windows — deterministically: the same
   plan over the same fetch sequence produces the same failures, so any
   resilience bug reproduces from the plan alone (the fault-plan style
   of lib/fuzz, without depending on it). *)

(* ---- deterministic fault dice (splitmix64 finalizer) -------------- *)

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let die ~seed ~salt n =
  if n <= 0 then 0
  else
    let z =
      mix
        (Int64.add
           (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
           (Int64.of_int (Hashtbl.hash salt)))
    in
    Int64.to_int z land max_int mod n

let hits ~seed ~salt pct = pct > 0 && die ~seed ~salt 100 < pct

(* ---- simulated monotonic clock ------------------------------------ *)

(* Mutexed: a parallel install's fetches all advance the one simulated
   clock, and timestamps feed breaker cooldowns on every domain. *)
type clock = { mutable now_ms : float; c_mu : Mutex.t }

let clock () = { now_ms = 0.0; c_mu = Mutex.create () }

let now c =
  Mutex.lock c.c_mu;
  let v = c.now_ms in
  Mutex.unlock c.c_mu;
  v

let advance c ms =
  if ms > 0.0 then begin
    Mutex.lock c.c_mu;
    c.now_ms <- c.now_ms +. ms;
    Mutex.unlock c.c_mu
  end

(* ---- retry policy: exponential backoff + bounded jitter ----------- *)

type retry_policy = {
  max_attempts : int;  (* per mirror, >= 1 *)
  base_delay_ms : float;
  multiplier : float;
  max_delay_ms : float;
  jitter_pct : int;  (* 0..100 *)
}

let default_retry =
  { max_attempts = 4;
    base_delay_ms = 10.0;
    multiplier = 2.0;
    max_delay_ms = 1000.0;
    jitter_pct = 25 }

let nominal_delay p ~attempt =
  let attempt = max 1 attempt in
  min p.max_delay_ms (p.base_delay_ms *. (p.multiplier ** float_of_int (attempt - 1)))

let delay p ~seed ~attempt =
  let d = nominal_delay p ~attempt in
  if p.jitter_pct <= 0 then d
  else
    (* u in [-1, 1), resolution 1/1000 *)
    let u = (float_of_int (die ~seed ~salt:("jitter", attempt) 2000) /. 1000.0) -. 1.0 in
    let d = d *. (1.0 +. (float_of_int p.jitter_pct /. 100.0 *. u)) in
    max 0.0 d

(* ---- circuit breaker ---------------------------------------------- *)

type breaker_config = {
  failure_threshold : int;
  cooldown_ms : float;
}

let default_breaker = { failure_threshold = 3; cooldown_ms = 30_000.0 }

type breaker_state = Closed | Open | Half_open

type breaker = {
  b_mu : Mutex.t;  (* one breaker is poked from every fetching domain *)
  mutable b_state : breaker_state;
  mutable b_failures : int;  (* consecutive, while closed *)
  mutable b_open_until : float;
  mutable b_trips : int;
}

let breaker () =
  { b_mu = Mutex.create ();
    b_state = Closed;
    b_failures = 0;
    b_open_until = 0.0;
    b_trips = 0 }

let b_locked b f =
  Mutex.lock b.b_mu;
  let v = f () in
  Mutex.unlock b.b_mu;
  v

let breaker_state b = b_locked b (fun () -> b.b_state)

let breaker_trips b = b_locked b (fun () -> b.b_trips)

let breaker_failures b = b_locked b (fun () -> b.b_failures)

let breaker_would_allow b clk =
  let t = now clk in
  b_locked b (fun () ->
      match b.b_state with
      | Closed | Half_open -> true
      | Open -> t >= b.b_open_until)

let breaker_allows b clk =
  let t = now clk in
  b_locked b (fun () ->
      match b.b_state with
      | Closed | Half_open -> true
      | Open ->
        if t >= b.b_open_until then begin
          (* cooldown elapsed: let exactly one probe through *)
          b.b_state <- Half_open;
          true
        end
        else false)

let trip b t =
  b.b_state <- Open;
  b.b_failures <- 0;
  b.b_open_until <- t +. default_breaker.cooldown_ms;
  b.b_trips <- b.b_trips + 1

let breaker_record b clk ~ok =
  let t = now clk in
  b_locked b (fun () ->
      if ok then begin
        b.b_failures <- 0;
        b.b_state <- Closed;
        false
      end
      else
        match b.b_state with
        | Half_open ->
          (* failed probe: straight back to open *)
          trip b t;
          true
        | Closed ->
          b.b_failures <- b.b_failures + 1;
          if b.b_failures >= default_breaker.failure_threshold then begin
            trip b t;
            true
          end
          else false
        | Open -> false)

(* ---- fault plans --------------------------------------------------- *)

type fault_plan = {
  fp_seed : int;
  fp_transient_pct : int;  (* per fetch attempt *)
  fp_corrupt_pct : int;  (* per (mirror, hash); sticky *)
  fp_latency_ms : float;  (* added to the clock per attempt *)
  fp_wall : bool;  (* realize fp_latency_ms as a real sleep too *)
  fp_outage_after : int option;  (* hard outage from this fetch index on *)
  fp_outage_len : int option;  (* None = forever *)
}

let no_faults =
  { fp_seed = 0;
    fp_transient_pct = 0;
    fp_corrupt_pct = 0;
    fp_latency_ms = 0.0;
    fp_wall = false;
    fp_outage_after = None;
    fp_outage_len = None }

let pp_fault_plan fmt p =
  Format.fprintf fmt "seed=%d transient=%d%% corrupt=%d%% latency=%.0fms outage=%s"
    p.fp_seed p.fp_transient_pct p.fp_corrupt_pct p.fp_latency_ms
    (match (p.fp_outage_after, p.fp_outage_len) with
    | None, _ -> "none"
    | Some a, None -> Printf.sprintf "[%d,∞)" a
    | Some a, Some l -> Printf.sprintf "[%d,%d)" a (a + l))

(* ---- fetch errors -------------------------------------------------- *)

type fetch_error =
  | Absent
  | Transient of { attempt : int }
  | Offline
  | Breaker_open
  | Corrupt of { expected : string; got : string }
  | Quarantined

let describe_error = function
  | Absent -> "entry absent"
  | Transient { attempt } -> Printf.sprintf "transient failure (fetch #%d)" attempt
  | Offline -> "mirror offline"
  | Breaker_open -> "circuit breaker open"
  | Corrupt { expected; got } ->
    Printf.sprintf "integrity failure (expected %s, got %s)" (Chash.short expected)
      (Chash.short got)
  | Quarantined -> "entry quarantined on this mirror"

(* ---- entry integrity ----------------------------------------------- *)

(* Content digest over everything install-relevant in an entry: the
   sub-DAG (spec.json text), every object's canonical rendering, and
   the recorded build-time prefixes. Computed from the mirror's pristine
   copy at serve time — the stand-in for the checksum in a signed cache
   index — and recomputed on the delivered payload by the client. *)
let entry_payload (e : Buildcache.entry) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Spec.Codec.to_string e.Buildcache.e_spec);
  List.iter
    (fun (rel, o) ->
      Buffer.add_string b "\nobj ";
      Buffer.add_string b rel;
      Buffer.add_char b '\n';
      Buffer.add_string b (Object_file.canonical o))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) e.Buildcache.e_objects);
  List.iter
    (fun (h, p) ->
      Buffer.add_string b (Printf.sprintf "\nprefix %s %s" h p))
    (List.sort compare e.Buildcache.e_prefixes);
  Buffer.contents b

let entry_digest e = Chash.hash_string (entry_payload e)

(* ---- a single mirror ----------------------------------------------- *)

type t = {
  m_name : string;
  m_cache : Buildcache.t;
  m_faults : fault_plan;
  m_breaker : breaker;
  m_mu : Mutex.t;  (* guards counters, quarantine, digests, latency *)
  m_quarantine : (string, unit) Hashtbl.t;
  m_digests : (string, string) Hashtbl.t;  (* memoized trusted index *)
  mutable m_fetches : int;
  mutable m_lat_ewma : float;  (* measured ms per attempt, smoothed *)
  mutable m_lat_samples : int;
}

let create ?(faults = no_faults) ~name cache =
  { m_name = name;
    m_cache = cache;
    m_faults = faults;
    m_breaker = breaker ();
    m_mu = Mutex.create ();
    m_quarantine = Hashtbl.create 8;
    m_digests = Hashtbl.create 32;
    m_fetches = 0;
    m_lat_ewma = 0.0;
    m_lat_samples = 0 }

let m_locked m f =
  Mutex.lock m.m_mu;
  let v = f () in
  Mutex.unlock m.m_mu;
  v

let name m = m.m_name

let breaker_of m = m.m_breaker

let fetch_count m = m_locked m (fun () -> m.m_fetches)

let quarantined m =
  m_locked m (fun () -> Hashtbl.fold (fun h () acc -> h :: acc) m.m_quarantine [])

(* Client-side latency measurement: the smoothed per-attempt request
   time. In the simulation a request's duration is exactly the clock
   advance the mirror imposes, so the EWMA is fed that — mixing in
   other domains' concurrent clock advances would measure the storm,
   not the mirror. Weight 1/4 on the new sample: a few slow answers
   sink a mirror, a few fast ones float it back. *)
let observe_latency m ms =
  m_locked m (fun () ->
      if m.m_lat_samples = 0 then m.m_lat_ewma <- ms
      else m.m_lat_ewma <- (0.75 *. m.m_lat_ewma) +. (0.25 *. ms);
      m.m_lat_samples <- m.m_lat_samples + 1)

let in_outage m n =
  match m.m_faults.fp_outage_after with
  | None -> false
  | Some after -> (
    n > after
    && match m.m_faults.fp_outage_len with None -> true | Some l -> n <= after + l)

let trusted_digest m ~hash entry =
  match m_locked m (fun () -> Hashtbl.find_opt m.m_digests hash) with
  | Some d -> d
  | None ->
    (* Digest outside the lock — it walks every object. Two domains may
       race to compute it; both arrive at the same value. *)
    let d = entry_digest entry in
    m_locked m (fun () -> Hashtbl.replace m.m_digests hash d);
    d

(* Deterministic payload damage: which way an entry is corrupted is a
   function of (seed, mirror, hash), so a corrupted mirror serves the
   same bad bytes every time — exactly why quarantining beats retrying
   the same mirror. *)
let corrupt_copy m ~hash (e : Buildcache.entry) =
  let objects =
    List.map (fun (r, o) -> (r, Object_file.copy o)) e.Buildcache.e_objects
  in
  let drop_last l = match List.rev l with [] -> [] | _ :: tl -> List.rev tl in
  match die ~seed:m.m_faults.fp_seed ~salt:("cmode", m.m_name, hash) 3 with
  | 0 ->
    (* truncated payload *)
    { e with Buildcache.e_objects = drop_last objects }
  | 1 -> (
    (* flipped bits in an embedded path *)
    match objects with
    | (r, o) :: rest ->
      (match (o.Object_file.embedded, o.Object_file.rpaths) with
      | s :: _, _ | [], s :: _ ->
        s.Object_file.path <- s.Object_file.path ^ "\x00corrupt";
        { e with Buildcache.e_objects = (r, o) :: rest }
      | [], [] -> { e with Buildcache.e_objects = drop_last objects })
    | [] -> e)
  | _ ->
    (* tampered relocation metadata *)
    { e with
      Buildcache.e_objects = objects;
      e_prefixes =
        List.map (fun (h, p) -> (h, p ^ "/tampered")) e.Buildcache.e_prefixes }

let fetch m clk ~hash =
  let n, quarantined =
    m_locked m (fun () ->
        m.m_fetches <- m.m_fetches + 1;
        (m.m_fetches, Hashtbl.mem m.m_quarantine hash))
  in
  advance clk m.m_faults.fp_latency_ms;
  (* No lock is held here: concurrent wall-latency fetches overlap,
     which is exactly what the parallel installer schedules for. *)
  if m.m_faults.fp_wall && m.m_faults.fp_latency_ms > 0.0 then
    Unix.sleepf (m.m_faults.fp_latency_ms /. 1000.0);
  observe_latency m m.m_faults.fp_latency_ms;
  if in_outage m n then Error Offline
  else if quarantined then Error Quarantined
  else if
    hits ~seed:m.m_faults.fp_seed ~salt:("transient", m.m_name, n)
      m.m_faults.fp_transient_pct
  then Error (Transient { attempt = n })
  else
    match Buildcache.find m.m_cache ~hash with
    | None -> Error Absent
    | Some entry ->
      let expected = trusted_digest m ~hash entry in
      let delivered =
        if
          hits ~seed:m.m_faults.fp_seed ~salt:("corrupt", m.m_name, hash)
            m.m_faults.fp_corrupt_pct
        then corrupt_copy m ~hash entry
        else entry
      in
      let got = entry_digest delivered in
      if
        String.equal got expected
        && String.equal (Spec.Concrete.dag_hash delivered.Buildcache.e_spec) hash
      then Ok delivered
      else begin
        m_locked m (fun () -> Hashtbl.replace m.m_quarantine hash ());
        Error (Corrupt { expected; got })
      end

(* ---- mirror groups: retry, failover, telemetry --------------------- *)

type telemetry = {
  mutable fetched : int;
  mutable attempts : int;
  mutable retries : int;
  mutable failovers : int;
  mutable breaker_skips : int;
  mutable breaker_trips : int;
  mutable quarantines : int;
  mutable backoff_ms : float;
}

let fresh_telemetry () =
  { fetched = 0;
    attempts = 0;
    retries = 0;
    failovers = 0;
    breaker_skips = 0;
    breaker_trips = 0;
    quarantines = 0;
    backoff_ms = 0.0 }

let add_telemetry a b =
  a.fetched <- a.fetched + b.fetched;
  a.attempts <- a.attempts + b.attempts;
  a.retries <- a.retries + b.retries;
  a.failovers <- a.failovers + b.failovers;
  a.breaker_skips <- a.breaker_skips + b.breaker_skips;
  a.breaker_trips <- a.breaker_trips + b.breaker_trips;
  a.quarantines <- a.quarantines + b.quarantines;
  a.backoff_ms <- a.backoff_ms +. b.backoff_ms

let pp_telemetry fmt t =
  Format.fprintf fmt
    "fetched=%d attempts=%d retries=%d failovers=%d breaker(skips=%d trips=%d) quarantined=%d backoff=%.0fms"
    t.fetched t.attempts t.retries t.failovers t.breaker_skips t.breaker_trips
    t.quarantines t.backoff_ms

type group = {
  g_mirrors : t list;
  g_policy : retry_policy;
  g_clock : clock;
  g_obs : Obs.ctx;
}

let group ?(policy = default_retry) ?(obs = Obs.disabled) mirrors =
  { g_mirrors = mirrors; g_policy = policy; g_clock = clock (); g_obs = obs }

let mirrors g = g.g_mirrors

let group_clock g = g.g_clock

(* The failover order, recomputed at every fetch from what the client
   has measured: mirrors behind a cooling-down breaker sink to the
   back, then ties break by consecutive failure count, then by latency
   EWMA, then by configured index (so the order is total and
   deterministic given the same statistics). A mirror not yet asked
   counts as answering in one retry wait ([base_delay_ms]): a measured
   mirror slower than that gives way to an untried one, a faster one
   keeps its place. A tripped mirror that survives its half-open probe
   has its failure count cleared, so it floats back toward the front. *)
let rank g =
  g.g_mirrors
  |> List.mapi (fun i m ->
         let cooling = if breaker_would_allow m.m_breaker g.g_clock then 0 else 1 in
         let latency =
           m_locked m (fun () ->
               if m.m_lat_samples = 0 then g.g_policy.base_delay_ms else m.m_lat_ewma)
         in
         ((cooling, breaker_failures m.m_breaker, latency, i), m))
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
  |> List.map snd

(* A simulated fleet: [size] mirrors over one cache, each with its own
   deterministic fault/latency profile drawn from [seed]. Every fifth
   mirror is near-clean and fast — the healthy minority [rank] should
   discover and prefer; the rest mix transient failure rates,
   latencies up to ~80ms, sticky corruption on some, and bounded
   outage windows on a few. *)
let fleet ?(seed = 0) ?policy ?obs ~size cache =
  let mirror i =
    let mseed = (seed * 1021) + i in
    let faults =
      if i mod 5 = 0 then
        { no_faults with
          fp_seed = mseed;
          fp_latency_ms = 2.0 +. float_of_int (die ~seed:mseed ~salt:"lat0" 6) }
      else
        { fp_seed = mseed;
          fp_transient_pct = 5 + die ~seed:mseed ~salt:"transient_pct" 30;
          fp_corrupt_pct =
            (if die ~seed:mseed ~salt:"corrupt?" 4 = 0 then
               5 + die ~seed:mseed ~salt:"corrupt_pct" 15
             else 0);
          fp_latency_ms = 5.0 +. float_of_int (die ~seed:mseed ~salt:"lat" 76);
          fp_outage_after =
            (if die ~seed:mseed ~salt:"outage?" 6 = 0 then
               Some (5 + die ~seed:mseed ~salt:"outage_at" 40)
             else None);
          fp_wall = false;
          fp_outage_len = Some (10 + die ~seed:mseed ~salt:"outage_len" 30) }
    in
    create ~faults ~name:(Printf.sprintf "m%02d" i) cache
  in
  group ?policy ?obs (List.init size mirror)

let breaker_state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

(* Fetch [hash] with per-mirror retry/backoff and failover in [rank] order.
   Absent is a healthy answer (resets the breaker); transient failures
   retry with backoff on the same mirror until the policy or the
   breaker says stop; corruption quarantines and fails over; outages
   and open breakers fail over immediately. *)
let fetch_entry g ~hash =
  Obs.with_span g.g_obs ~cat:"mirror" "mirror.fetch"
    ~attrs:[ ("hash", Obs.S (Chash.short hash)) ]
  @@ fun span ->
  (* This call's own counts, returned to the caller. Each bump also
     lands in the Obs metric of the same name, so the record and the
     trace agree by construction. *)
  let tel = fresh_telemetry () in
  let obs = g.g_obs in
  let count n bump =
    bump ();
    Obs.incr obs ("mirror." ^ n)
  in
  (* Breaker state transitions show up as instants in the trace. *)
  let watching_breaker m f =
    let s0 = breaker_state m.m_breaker in
    let r = f () in
    let s1 = breaker_state m.m_breaker in
    if s1 <> s0 then
      Obs.instant obs "mirror.breaker"
        ~attrs:
          [ ("mirror", Obs.S m.m_name);
            ("from", Obs.S (breaker_state_name s0));
            ("to", Obs.S (breaker_state_name s1)) ];
    r
  in
  let verdicts = ref [] in
  let record_verdict m err = verdicts := (m.m_name, err) :: !verdicts in
  let rec try_mirrors = function
    | [] ->
      Obs.set_attr span "outcome" (Obs.S "failed");
      Error (List.rev !verdicts)
    | m :: rest ->
      let next_after err =
        record_verdict m err;
        (match err with
        | Absent -> ()
        | _ ->
          if rest <> [] then
            count "failovers" (fun () -> tel.failovers <- tel.failovers + 1));
        try_mirrors rest
      in
      if not (watching_breaker m (fun () -> breaker_allows m.m_breaker g.g_clock))
      then begin
        count "breaker_skips" (fun () ->
            tel.breaker_skips <- tel.breaker_skips + 1);
        next_after Breaker_open
      end
      else
        let rec attempt a =
          count "attempts" (fun () -> tel.attempts <- tel.attempts + 1);
          match fetch m g.g_clock ~hash with
          | Ok e ->
            ignore
              (watching_breaker m (fun () ->
                   breaker_record m.m_breaker g.g_clock ~ok:true));
            count "fetched" (fun () -> tel.fetched <- tel.fetched + 1);
            if Obs.enabled obs then begin
              Obs.incr obs ~by:(String.length (entry_payload e))
                "mirror.bytes_verified";
              Obs.set_attr span "outcome" (Obs.S "fetched");
              Obs.set_attr span "mirror" (Obs.S m.m_name);
              Obs.set_attr span "attempts" (Obs.I a)
            end;
            Ok e
          | Error Absent ->
            (* the mirror answered authoritatively: not a fault *)
            ignore
              (watching_breaker m (fun () ->
                   breaker_record m.m_breaker g.g_clock ~ok:true));
            next_after Absent
          | Error Quarantined -> next_after Quarantined
          | Error (Transient _ as err) ->
            if
              watching_breaker m (fun () ->
                  breaker_record m.m_breaker g.g_clock ~ok:false)
            then
              count "breaker_trips" (fun () ->
                  tel.breaker_trips <- tel.breaker_trips + 1);
            if a < g.g_policy.max_attempts && breaker_would_allow m.m_breaker g.g_clock
            then begin
              let d =
                delay g.g_policy ~seed:(m.m_faults.fp_seed + Hashtbl.hash hash)
                  ~attempt:a
              in
              advance g.g_clock d;
              count "retries" (fun () ->
                  tel.retries <- tel.retries + 1;
                  tel.backoff_ms <- tel.backoff_ms +. d);
              Obs.observe obs "mirror.backoff_ms" d;
              attempt (a + 1)
            end
            else next_after err
          | Error (Corrupt _ as err) ->
            (* sticky: the same mirror would serve the same bad bytes *)
            count "quarantines" (fun () ->
                tel.quarantines <- tel.quarantines + 1);
            if
              watching_breaker m (fun () ->
                  breaker_record m.m_breaker g.g_clock ~ok:false)
            then
              count "breaker_trips" (fun () ->
                  tel.breaker_trips <- tel.breaker_trips + 1);
            next_after err
          | Error (Offline as err) ->
            if
              watching_breaker m (fun () ->
                  breaker_record m.m_breaker g.g_clock ~ok:false)
            then
              count "breaker_trips" (fun () ->
                  tel.breaker_trips <- tel.breaker_trips + 1);
            next_after err
          | Error Breaker_open -> next_after Breaker_open
        in
        attempt 1
  in
  (try_mirrors (rank g), tel)

(* What the concretizer may treat as reusable right now: the entries of
   every mirror that is currently reachable — breaker not open, not in
   an outage window. Degraded solves see degraded metadata. *)
let reachable_specs g =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun m ->
      if breaker_would_allow m.m_breaker g.g_clock && not (in_outage m (fetch_count m + 1))
      then
        List.filter
          (fun s ->
            let h = Spec.Concrete.dag_hash s in
            if Hashtbl.mem seen h then false
            else begin
              Hashtbl.replace seen h ();
              true
            end)
          (Buildcache.specs m.m_cache)
      else [])
    g.g_mirrors
