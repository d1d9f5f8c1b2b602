(* spackml serve, end to end over real Unix sockets: replay
   equivalence and fault injection.

   - replay: a trace of mixed requests hammered over concurrent client
     domains gets canonical result objects byte-identical to one-shot
     [concretize_v] runs on the same fuzz universe;
   - faults: malformed/oversized/truncated frames, client disconnect
     mid-request, injected worker exceptions, buildcache digest change
     mid-stream, unknown package names, queue overload, queue-expired
     deadlines, shutdown with a full queue — the server answers
     everything it admits, evicts stale state, and never wedges;
   - telemetry: request ids assigned/echoed, the stats window block,
     and flight-recorder retrieval of a missed deadline by rid. *)

module CC = Core.Concretizer
module Serve = Core.Serve
module Client = Core.Serve.Client

(* Short unique socket paths: sun_path caps out around 104 bytes. *)
let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Printf.sprintf "/tmp/spackml-test-%d-%d.sock" (Unix.getpid ()) !sock_counter

let with_server ~repo ~config f =
  let socket = fresh_sock () in
  match Serve.start ~repo ~config ~socket () with
  | Error e -> Alcotest.fail ("server start: " ^ e)
  | Ok t -> Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f t)

let with_client t f =
  match Client.connect (Serve.socket_path t) with
  | Error e -> Alcotest.fail ("connect: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let status_of resp = Sjson.get_string (Sjson.member "status" resp)

let result_of resp = Sjson.member "result" resp

let counter obs name =
  match List.assoc_opt name (Obs.metrics obs) with
  | Some (Obs.Counter n) -> n
  | _ -> 0

(* Counters bumped on reader/worker threads land shortly after the
   wire response; poll instead of assuming an ordering. *)
let await_counter obs name v =
  let rec go tries =
    if counter obs name >= v then ()
    else if tries = 0 then
      Alcotest.failf "counter %s stuck at %d, wanted >= %d" name
        (counter obs name) v
    else begin
      Unix.sleepf 0.01;
      go (tries - 1)
    end
  in
  go 300

(* ---- fuzz universes (same generators as test_perf_equiv) ---- *)

let universe seed =
  let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
  (u, Fuzz.Gen.to_repo u)

let options ?(reuse = []) () = { CC.default_options with CC.reuse; prune = true }

let pool_of ~repo (u : Fuzz.Gen.t) =
  List.filter_map
    (fun r ->
      match
        CC.concretize_v ~repo ~options:(options ())
          [ Core.Encode.request_of_string r ]
      with
      | Ok o -> Some (List.hd o.CC.solution.Core.Decode.specs)
      | Error _ -> None)
    u.Fuzz.Gen.u_cache_roots

(* The replayed trace: every request and cache root, three times. *)
let trace (u : Fuzz.Gen.t) =
  List.concat
    (List.init 3 (fun _ -> u.Fuzz.Gen.u_requests @ u.Fuzz.Gen.u_cache_roots))

(* What the server must answer for [r], computed without the server:
   the canonical result of a one-shot solve, or the same parse error
   the server's solve path reports. *)
let one_shot ~repo ~opts r =
  match Core.Encode.request_of_string r with
  | exception Spec.Parser.Parse_error e ->
    Sjson.Object
      [ ("status", Sjson.String "error");
        ("message", Sjson.String ("parse error: " ^ e)) ]
  | req -> Serve.canonical_of_result (CC.concretize_v ~repo ~options:opts [ req ])

(* Replay [requests] over [clients] concurrent client domains, one
   connection per domain, collecting the response for each index. *)
let replay t requests clients =
  let n = Array.length requests in
  let got = Array.make n Sjson.Null in
  let doms =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            with_client t @@ fun cl ->
            let i = ref c in
            while !i < n do
              got.(!i) <- ok (Client.solve cl requests.(!i));
              i := !i + clients
            done))
  in
  List.iter Domain.join doms;
  got

(* ---- 1. replay: byte-identity with one-shot solves ---- *)

let test_fresh_replay () =
  let u, repo = universe 42 in
  let reuse = pool_of ~repo u in
  let opts = options ~reuse () in
  let config =
    { Serve.default_config with Serve.workers = 4; options = opts }
  in
  let requests = Array.of_list (trace u) in
  let expected =
    Array.map (fun r -> Sjson.to_string (one_shot ~repo ~opts r)) requests
  in
  with_server ~repo ~config @@ fun t ->
  let got = replay t requests 4 in
  Array.iteri
    (fun i exp ->
      Alcotest.(check string)
        (Printf.sprintf "request %d (%s) byte-identical to one-shot" i
           requests.(i))
        exp
        (Sjson.to_string (result_of got.(i))))
    expected

(* ---- 2. frame-level faults ---- *)

let frame_header len =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.to_string b

let raw_frame payload = frame_header (String.length payload) ^ payload

let raw_connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Serve.socket_path t));
  fd

let write_raw fd s =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write_substring fd s off len in
      go (off + n) (len - n)
    end
  in
  go 0 (String.length s)

let read_frame fd dec =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Sjson.Frame.next dec with
    | Some v -> v
    | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "server closed the connection before responding"
      | n ->
        Sjson.Frame.feed dec (Bytes.sub_string buf 0 n) 0 n;
        go ())
  in
  go ()

let read_eof fd =
  let buf = Bytes.create 16 in
  let rec go tries =
    if tries = 0 then Alcotest.fail "server kept the connection open"
    else
      match Unix.read fd buf 0 16 with
      | 0 -> ()
      | _ -> go (tries - 1)
  in
  go 100

let test_bad_frames () =
  let _, repo = universe 42 in
  let obs = Obs.create () in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      options = { CC.default_options with CC.obs } }
  in
  with_server ~repo ~config @@ fun t ->
  (* Unparseable payload: answered with a typed error, and the
     connection keeps serving (the frame was consumed whole, so the
     stream is still aligned). *)
  let fd = raw_connect t in
  let dec = Sjson.Frame.create () in
  write_raw fd (raw_frame "{nope");
  let resp = read_frame fd dec in
  Alcotest.(check string) "bad payload answered as error" "error"
    (status_of resp);
  write_raw fd
    (Sjson.Frame.encode
       (Sjson.Object [ ("id", Sjson.Int 7); ("op", Sjson.String "ping") ]));
  let resp = read_frame fd dec in
  Alcotest.(check string) "same connection still serves after bad payload"
    "ok" (status_of resp);
  Alcotest.(check bool) "response id echoed" true
    (Sjson.member_opt "id" resp = Some (Sjson.Int 7));
  Unix.close fd;
  await_counter obs "serve.bad_frames" 1;
  (* Oversized header: answered, then the connection is dropped (the
     body can't be skipped without buffering it). *)
  let fd = raw_connect t in
  let dec = Sjson.Frame.create () in
  write_raw fd (frame_header (Sjson.Frame.default_max_frame + 1));
  let resp = read_frame fd dec in
  Alcotest.(check string) "oversized header answered as error" "error"
    (status_of resp);
  read_eof fd;
  Unix.close fd;
  await_counter obs "serve.bad_frames" 2;
  (* Peer dying mid-frame: counted, nothing wedges. *)
  let fd = raw_connect t in
  write_raw fd (frame_header 100 ^ "only ten b");
  Unix.close fd;
  await_counter obs "serve.truncated_frames" 1;
  (* The server is still healthy for ordinary clients. *)
  with_client t @@ fun c ->
  Alcotest.(check string) "server healthy after frame faults" "ok"
    (status_of (ok (Client.ping c)))

(* ---- 3. client disconnect mid-request ---- *)

let test_disconnect_mid_request () =
  let u, repo = universe 42 in
  let opts = options () in
  let config =
    { Serve.default_config with Serve.workers = 1; options = opts }
  in
  let r =
    match u.Fuzz.Gen.u_requests with
    | r :: _ -> r
    | [] -> Alcotest.fail "universe has no requests"
  in
  with_server ~repo ~config @@ fun t ->
  (* Fire a request and hang up before the answer: the worker's write
     fails (or lands in a dead socket) and must not take the server
     down or wedge the queue. *)
  for _ = 1 to 5 do
    let c = ok (Client.connect (Serve.socket_path t)) in
    ok
      (Client.send c
         (Sjson.Object
            [ ("id", Sjson.Int 0);
              ("op", Sjson.String "solve");
              ("spec", Sjson.String r) ]));
    Client.close c
  done;
  (* Every later request is still answered, with correct results. *)
  with_client t @@ fun c ->
  let expected = Sjson.to_string (one_shot ~repo ~opts r) in
  for _ = 1 to 3 do
    let resp = ok (Client.solve c r) in
    Alcotest.(check string) "served correctly after disconnects" expected
      (Sjson.to_string (result_of resp))
  done

(* ---- 4. worker exception mid-solve ---- *)

let test_worker_fault () =
  let u, repo = universe 42 in
  let obs = Obs.create () in
  let opts = { (options ()) with CC.obs } in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      fault_injection = true;
      options = opts }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  let resp = ok (Client.solve ~boom:true c r) in
  Alcotest.(check string) "injected fault answered as error" "error"
    (status_of resp);
  let msg = Sjson.get_string (Sjson.member "message" (result_of resp)) in
  Alcotest.(check bool) "fault message surfaced" true
    (String.length msg > 0
    &&
    let has_sub s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    has_sub msg "injected worker fault");
  Alcotest.(check int) "fault counted" 1 (counter obs "serve.worker_faults");
  (* The domain survived: the very same worker keeps solving. *)
  let expected = Sjson.to_string (one_shot ~repo ~opts:(options ()) r) in
  let resp = ok (Client.solve c r) in
  Alcotest.(check string) "worker alive after fault" expected
    (Sjson.to_string (result_of resp))

(* ---- 5. buildcache digest change mid-stream ---- *)

let known_request ~repo (u : Fuzz.Gen.t) =
  match
    List.find_opt
      (fun r ->
        match Core.Encode.request_of_string r with
        | exception _ -> false
        | req ->
          let n = req.Core.Encode.req.Spec.Abstract.root.Spec.Abstract.name in
          Pkg.Repo.mem repo n && not (Pkg.Repo.is_virtual repo n))
      u.Fuzz.Gen.u_requests
  with
  | Some r -> r
  | None -> Alcotest.fail "universe has no request with a known root"

let test_reuse_eviction () =
  let u, repo = universe 42 in
  let pool = pool_of ~repo u in
  Alcotest.(check bool) "universe provides a reuse pool" true (pool <> []);
  let obs = Obs.create () in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      options = { (options ~reuse:[] ()) with CC.obs } }
  in
  let r = known_request ~repo u in
  let server_gen resp =
    Sjson.get_int (Sjson.member "generation" (Sjson.member "server" resp))
  in
  let check_against reuse resp label =
    Alcotest.(check string)
      (label ^ ": byte-identical to one-shot on that pool")
      (Sjson.to_string (one_shot ~repo ~opts:(options ~reuse ()) r))
      (Sjson.to_string (result_of resp))
  in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  (* generation 0: solve against the empty pool *)
  let resp = ok (Client.solve c r) in
  Alcotest.(check int) "first solve at generation 0" 0 (server_gen resp);
  check_against [] resp "generation 0";
  (* swap the buildcache under the running server *)
  Alcotest.(check bool) "digest change detected" true (Serve.set_reuse t pool);
  Alcotest.(check int) "generation bumped" 1 (Serve.generation t);
  Alcotest.(check int) "eviction counted" 1 (counter obs "serve.evictions");
  (* the first solve after the swap carries the new generation and
     answers from the new pool *)
  let resp = ok (Client.solve c r) in
  Alcotest.(check int) "served at generation 1" 1 (server_gen resp);
  check_against pool resp "generation 1";
  (* same digest again: a no-op, nothing evicted *)
  Alcotest.(check bool) "same digest is a no-op" false (Serve.set_reuse t pool);
  Alcotest.(check int) "generation unchanged" 1 (Serve.generation t)

(* ---- 6. unknown package names ---- *)

(* Unknown names are rejected before the closure cache is consulted: a
   client sending fresh unknown names must not grow the cache, and each
   answer is the one-shot failure. *)
let test_unknown_names () =
  let _, repo = universe 42 in
  let obs = Obs.create () in
  let opts = options () in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      options = { opts with CC.obs } }
  in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  for i = 1 to 50 do
    let r = Printf.sprintf "no-such-package-%d" i in
    let expected = one_shot ~repo ~opts r in
    Alcotest.(check string) (r ^ ": one-shot answer") ("unknown package: " ^ r)
      (Sjson.get_string (Sjson.member "message" expected));
    Alcotest.(check string)
      (r ^ ": byte-identical to one-shot")
      (Sjson.to_string expected)
      (Sjson.to_string (result_of (ok (Client.solve c r))))
  done;
  Alcotest.(check int) "no closure computed for unknown names" 0
    (counter obs "serve.closure_misses")

(* ---- 7. reload op ---- *)

let test_reload () =
  let u, repo = universe 42 in
  let pool = pool_of ~repo u in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      reuse_source = Some (fun () -> pool) }
  in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  let resp = ok (Client.reload c) in
  let result = result_of resp in
  Alcotest.(check bool) "first reload changes the pool" true
    (Sjson.get_bool (Sjson.member "changed" result));
  Alcotest.(check int) "reload bumped the generation" 1
    (Sjson.get_int (Sjson.member "generation" result));
  let resp = ok (Client.reload c) in
  Alcotest.(check bool) "second reload is a no-op" false
    (Sjson.get_bool (Sjson.member "changed" (result_of resp)))

(* ---- 8. overload admission ---- *)

let test_overload () =
  let u, repo = universe 42 in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      max_queue = 2;
      options = options () }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  let n = 200 in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  (* Pipeline far more requests than the queue admits, then drain:
     every id must come back exactly once, rejections as a typed
     "overloaded" status rather than unbounded queueing. *)
  for i = 0 to n - 1 do
    ok
      (Client.send c
         (Sjson.Object
            [ ("id", Sjson.Int i);
              ("op", Sjson.String "solve");
              ("spec", Sjson.String r) ]))
  done;
  let seen = Hashtbl.create n in
  let overloaded = ref 0 in
  for _ = 1 to n do
    let resp = ok (Client.recv c) in
    (match Sjson.member_opt "id" resp with
    | Some (Sjson.Int i) ->
      if Hashtbl.mem seen i then Alcotest.failf "id %d answered twice" i;
      Hashtbl.replace seen i ()
    | _ -> Alcotest.fail "response without an integer id");
    match status_of resp with
    | "overloaded" -> incr overloaded
    | "ok" | "unsat" | "error" | "timeout" -> ()
    | s -> Alcotest.failf "unexpected status %s" s
  done;
  Alcotest.(check int) "every pipelined request answered exactly once" n
    (Hashtbl.length seen);
  Alcotest.(check bool) "admission control rejected part of the burst" true
    (!overloaded > 0);
  Alcotest.(check bool) "but served the rest" true (!overloaded < n);
  Alcotest.(check string) "server healthy after the burst" "ok"
    (status_of (ok (Client.ping c)))

(* ---- 9. deadlines ---- *)

let test_deadline () =
  let u, repo = universe 42 in
  let config =
    { Serve.default_config with Serve.workers = 1; options = options () }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  (* An already-expired deadline: answered as a typed timeout without
     touching a solver. *)
  let resp = ok (Client.solve ~deadline_ms:0.0 c r) in
  Alcotest.(check string) "expired deadline answers timeout" "timeout"
    (status_of resp);
  Alcotest.(check string) "canonical timeout result"
    {|{"status":"timeout"}|}
    (Sjson.to_string (result_of resp));
  (* The worker is untouched: the same request without a deadline
     solves normally. *)
  let expected = Sjson.to_string (one_shot ~repo ~opts:(options ()) r) in
  let resp = ok (Client.solve c r) in
  Alcotest.(check string) "worker reusable after timeout" expected
    (Sjson.to_string (result_of resp))

(* ---- 10. shutdown drains the queue ---- *)

let test_shutdown_drains () =
  let u, repo = universe 42 in
  let config =
    { Serve.default_config with Serve.workers = 2; options = options () }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  let n = 20 in
  let socket = fresh_sock () in
  match Serve.start ~repo ~config ~socket () with
  | Error e -> Alcotest.fail ("server start: " ^ e)
  | Ok t ->
    let c = ok (Client.connect socket) in
    (* Pipeline a bundle of solves and then shutdown on the same
       connection: everything admitted before the shutdown frame must
       still be answered. *)
    for i = 0 to n - 1 do
      ok
        (Client.send c
           (Sjson.Object
              [ ("id", Sjson.Int i);
                ("op", Sjson.String "solve");
                ("spec", Sjson.String r) ]))
    done;
    ok
      (Client.send c
         (Sjson.Object
            [ ("id", Sjson.Int n); ("op", Sjson.String "shutdown") ]));
    let seen = Hashtbl.create n in
    let stopping = ref false in
    for _ = 0 to n do
      let resp = ok (Client.recv c) in
      match Sjson.member_opt "id" resp with
      | Some (Sjson.Int i) when i = n ->
        stopping :=
          Sjson.member_opt "status" (result_of resp)
          = Some (Sjson.String "stopping")
      | Some (Sjson.Int i) -> Hashtbl.replace seen i ()
      | _ -> Alcotest.fail "response without an integer id"
    done;
    Client.close c;
    Alcotest.(check bool) "shutdown acknowledged" true !stopping;
    Alcotest.(check int) "every admitted solve answered before exit" n
      (Hashtbl.length seen);
    (* returns only once the workers drained and exited *)
    Serve.wait t

(* ---- 11. client auto-reconnect and overload retry ---- *)

(* A hand-rolled fake server: lets the test script exact connection
   lifetimes and responses that the real server would only produce
   under racy load. *)
let with_fake_server script f =
  let socket = fresh_sock () in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 8;
  let server = Domain.spawn (fun () -> script srv) in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Unix.close srv;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket)

let id_of req =
  match Sjson.member_opt "id" req with Some v -> v | None -> Sjson.Null

let answer fd req status =
  write_raw fd
    (Sjson.Frame.encode
       (Sjson.Object [ ("id", id_of req); ("status", Sjson.String status) ]))

let test_client_reconnect () =
  let script srv =
    (* first connection: swallow part of the request, poison the
       client's decoder with a truncated frame, hang up *)
    let fd, _ = Unix.accept srv in
    let buf = Bytes.create 8 in
    ignore (Unix.read fd buf 0 8);
    write_raw fd (frame_header 100 ^ "0123456789");
    Unix.close fd;
    (* second connection: the resent request, served properly — only
       parseable if the client reconnected with a fresh decoder *)
    let fd, _ = Unix.accept srv in
    let dec = Sjson.Frame.create () in
    let req = read_frame fd dec in
    answer fd req "ok";
    Unix.close fd
  in
  with_fake_server script @@ fun socket ->
  let c = ok (Client.connect ~retries:2 ~backoff_ms:1.0 socket) in
  Alcotest.(check string) "resent after mid-frame disconnect" "ok"
    (status_of (ok (Client.ping c)));
  Client.close c

let test_client_overload_retry () =
  let script srv =
    (* connection 1 (retrying client): overloaded, then ok for the
       backed-off resend on the same connection *)
    let fd, _ = Unix.accept srv in
    let dec = Sjson.Frame.create () in
    answer fd (read_frame fd dec) "overloaded";
    answer fd (read_frame fd dec) "ok";
    Unix.close fd;
    (* connection 2 (retries = 0): overloaded, passed straight through *)
    let fd, _ = Unix.accept srv in
    let dec = Sjson.Frame.create () in
    answer fd (read_frame fd dec) "overloaded";
    Unix.close fd;
    (* connection 3 (retries exhausted): overloaded, every time *)
    let fd, _ = Unix.accept srv in
    let dec = Sjson.Frame.create () in
    let rec go () =
      match read_frame fd dec with
      | req -> answer fd req "overloaded"; go ()
      | exception _ -> (try Unix.close fd with Unix.Unix_error _ -> ())
    in
    go ()
  in
  with_fake_server script @@ fun socket ->
  let c = ok (Client.connect ~retries:2 ~backoff_ms:1.0 socket) in
  Alcotest.(check string) "overload retried to success" "ok"
    (status_of (ok (Client.ping c)));
  Client.close c;
  let c = ok (Client.connect socket) in
  Alcotest.(check string) "retries:0 passes overload through" "overloaded"
    (status_of (ok (Client.ping c)));
  Client.close c;
  let c = ok (Client.connect ~retries:1 ~backoff_ms:1.0 socket) in
  Alcotest.(check string)
    "exhausted retries return the typed response, not an error" "overloaded"
    (status_of (ok (Client.ping c)));
  Client.close c

(* ---- 12. live telemetry: rids, windowed stats, flight recorder ---- *)

let json_num = function
  | Sjson.Int n -> float_of_int n
  | Sjson.Float f -> f
  | _ -> Alcotest.fail "expected a JSON number"

let test_telemetry () =
  let u, repo = universe 42 in
  let config =
    { Serve.default_config with Serve.workers = 1; options = options () }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  let rid_of resp = Sjson.get_string (Sjson.member "rid" resp) in
  (* server-assigned rids are non-empty and distinct; client rids echo *)
  let r1 = ok (Client.solve c r) and r2 = ok (Client.solve c r) in
  Alcotest.(check bool) "server-assigned rids distinct" true
    (rid_of r1 <> "" && rid_of r2 <> "" && rid_of r1 <> rid_of r2);
  let r3 = ok (Client.solve ~rid:"client-rid-7" c r) in
  Alcotest.(check string) "client rid echoed" "client-rid-7" (rid_of r3);
  (* a missed deadline with a known rid *)
  let miss = ok (Client.solve ~deadline_ms:0.0 ~rid:"t-deadline" c r) in
  Alcotest.(check string) "deadline answers timeout" "timeout"
    (status_of miss);
  Alcotest.(check string) "deadline response echoes rid" "t-deadline"
    (rid_of miss);
  (* the stats window block summarizes exactly those four solves *)
  let window = Sjson.member "window" (result_of (ok (Client.stats c))) in
  Alcotest.(check (float 1e-9)) "full horizon by default" 60.0
    (json_num (Sjson.member "horizon_s" window));
  Alcotest.(check int) "window counted the solves" 4
    (Sjson.get_int (Sjson.member "count" (Sjson.member "solve_ms" window)));
  let statuses = Sjson.member "statuses" window in
  Alcotest.(check int) "ok statuses" 3
    (Sjson.get_int (Sjson.member "ok" statuses));
  Alcotest.(check int) "timeout statuses" 1
    (Sjson.get_int (Sjson.member "timeout" statuses));
  Alcotest.(check (float 1e-9)) "deadline-miss rate" 0.25
    (json_num (Sjson.member "deadline_miss_rate" window));
  let recorder = Sjson.member "recorder" window in
  Alcotest.(check int) "recorder offered every solve" 4
    (Sjson.get_int (Sjson.member "seen" recorder));
  Alcotest.(check bool) "recorder kept some" true
    (Sjson.get_int (Sjson.member "kept" recorder) >= 1);
  (* a narrow window answers clamped, positive coverage *)
  let w5 = Sjson.member "window" (result_of (ok (Client.stats ~window_s:5.0 c))) in
  let covered = json_num (Sjson.member "window_s" w5) in
  Alcotest.(check bool) "narrow window clamped to (0, horizon]" true
    (covered > 0.0 && covered <= 60.0);
  (* the missed deadline is retrievable via dump, by rid, with its
     span tree *)
  let dump = result_of (ok (Client.dump ~keep:"deadline" c)) in
  let traces = Sjson.to_list (Sjson.member "traces" dump) in
  match
    List.find_opt
      (fun tr -> Sjson.get_string (Sjson.member "rid" tr) = "t-deadline")
      traces
  with
  | None -> Alcotest.fail "missed-deadline trace not in dump"
  | Some tr ->
    Alcotest.(check string) "kept under the deadline class" "deadline"
      (Sjson.get_string (Sjson.member "keep" tr));
    Alcotest.(check string) "records the timeout status" "timeout"
      (Sjson.get_string (Sjson.member "status" tr));
    let events =
      Sjson.to_list (Sjson.member "traceEvents" (Sjson.member "trace" tr))
    in
    Alcotest.(check bool) "span tree has the serve.request span" true
      (List.exists
         (fun ev ->
           match (Sjson.member_opt "name" ev, Sjson.member_opt "ph" ev) with
           | Some (Sjson.String "serve.request"), Some (Sjson.String "X") ->
             true
           | _ -> false)
         events)

let test_telemetry_off () =
  let u, repo = universe 42 in
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      telemetry = None;
      options = options () }
  in
  let r = List.hd u.Fuzz.Gen.u_requests in
  with_server ~repo ~config @@ fun t ->
  with_client t @@ fun c ->
  let resp = ok (Client.solve c r) in
  Alcotest.(check string) "solves still answer" "ok" (status_of resp);
  Alcotest.(check bool) "rids still assigned" true
    (Sjson.get_string (Sjson.member "rid" resp) <> "");
  (match Sjson.member_opt "window" (result_of (ok (Client.stats c))) with
  | None -> ()
  | Some _ -> Alcotest.fail "stats answered a window block with telemetry off");
  let dump = result_of (ok (Client.dump c)) in
  Alcotest.(check string) "dump reports the recorder disabled" "error"
    (Sjson.get_string (Sjson.member "status" dump))

let () =
  Alcotest.run "serve"
    [ ( "replay-glucose",
        [ Alcotest.test_case "fresh-mode byte replay (glucose)" `Quick
            test_fresh_replay ] );
      ( "faults",
        [ Alcotest.test_case "frame faults" `Quick test_bad_frames;
          Alcotest.test_case "disconnect mid-request" `Quick
            test_disconnect_mid_request;
          Alcotest.test_case "worker exception mid-solve" `Quick
            test_worker_fault;
          Alcotest.test_case "buildcache change mid-stream" `Quick
            test_reuse_eviction;
          Alcotest.test_case "unknown names skip the closure cache" `Quick
            test_unknown_names;
          Alcotest.test_case "reload op" `Quick test_reload;
          Alcotest.test_case "overload admission" `Quick test_overload;
          Alcotest.test_case "queue-expired deadline" `Quick test_deadline;
          Alcotest.test_case "shutdown drains the queue" `Quick
            test_shutdown_drains ] );
      ( "client",
        [ Alcotest.test_case "auto-reconnect resends after disconnect"
            `Quick test_client_reconnect;
          Alcotest.test_case "overload retry with bounded backoff" `Quick
            test_client_overload_retry ] );
      ( "telemetry",
        [ Alcotest.test_case "rids, windowed stats, flight recorder" `Quick
            test_telemetry;
          Alcotest.test_case "telemetry off: no window, dump disabled"
            `Quick test_telemetry_off ] ) ]
