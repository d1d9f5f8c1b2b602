(** [spackml serve]: a resident multi-tenant concretization server.

    Every solve is a pruned one-shot {!Concretizer.concretize_v} of the
    request against the current buildcache, so answers are
    byte-identical to the CLI's. Resident across requests:

    - a pool of OCaml 5 domain workers behind per-worker request queues
      with stealing, and bounded admission ([max_queue]) answering a
      typed [overloaded] status instead of queueing without bound;
    - per-request deadlines and conflict caps enforced {e inside} the
      SAT core via {!Asp.Sat.budget}: a preempted request
      answers [timeout];
    - dependency closures ({!Encode.closure}) cached by root;
      {!set_reuse} bumps a generation when the buildcache digest
      changes and drops every cached closure;
    - length-prefixed JSON frames ({!Sjson.Frame}) over a Unix socket.

    {2 Wire protocol}

    Requests are JSON objects: [{"id": any, "op": "solve" | "ping" |
    "stats" | "dump" | "reload" | "shutdown", ...}]. A [solve] carries
    ["spec"] (spec syntax), optional ["deadline_ms"], ["conflicts"],
    and (with fault injection) ["boom"]; fields the server does not
    read are ignored.
    Any request may carry a ["rid"] request id (string); the server
    assigns one (["srv-<n>"]) otherwise and stamps it on the request's
    span tree, so client and server traces join. Responses echo ["id"]
    and ["rid"] and carry ["status"] ("ok" | "unsat" | "timeout" |
    "error" | "overloaded"), a canonical ["result"] object
    (byte-comparable against {!canonical_of_result} of a one-shot
    {!Concretizer} run), and a ["server"] object with timing and
    routing detail. Responses to pipelined requests may arrive out of
    request order.

    With live telemetry on (the default), ["stats"] additionally
    answers a ["window"] object — rolling-window request counts, rps,
    solve/queue latency quantiles, overload/deadline-miss/error rates,
    closure-cache hit rate — computed
    over the last ["window"] seconds of the request (rounded up to
    sub-window granularity, clamped to the horizon; default the full
    horizon). ["dump"] returns the flight recorder's recent traces
    ([{"n": int, "keep": "error"|"deadline"|"slow"|"sampled"}]
    optional), each with its ["rid"] and a Perfetto-loadable ["trace"]
    object. *)

(** Live-telemetry configuration: the rolling-window layout behind the
    ["stats"] window answer and the flight-recorder tail-sampling
    policy. *)
type telemetry = {
  horizon_s : float;
      (** rolling-stats horizon in seconds (default 60): the largest
          window ["stats"] can answer *)
  slots : int;
      (** sub-windows per horizon (default 12): rotation granularity,
          and the rounding unit of requested windows *)
  recorder_capacity : int;
      (** flight-recorder ring size (default 256); [0] disables the
          recorder (and the ["dump"] op) but keeps the windows *)
  recorder_sample : int;
      (** keep 1-in-N unremarkable request traces (default 16) *)
  recorder_slowest : int;
      (** always keep the slowest K solves per horizon (default 8) *)
}

val default_telemetry : telemetry

type config = {
  workers : int;  (** solver domains (default 4) *)
  max_queue : int;
      (** admission bound on enqueued-not-yet-running jobs (default
          256); beyond it requests answer [overloaded] immediately *)
  default_deadline_ms : float option;
      (** deadline applied to requests that don't carry one *)
  default_conflicts : int option;  (** likewise for the conflict cap *)
  fault_injection : bool;
      (** honor the ["boom"] request flag (tests only): the worker
          raises mid-request and must answer a typed error *)
  reuse_source : (unit -> Spec.Concrete.t list) option;
      (** backing of the wire ["reload"] op: re-read the buildcache
          and {!set_reuse} it *)
  telemetry : telemetry option;
      (** live windowed stats and flight recorder (default
          [Some default_telemetry]); [None] turns the layer off — the
          disabled path costs one branch per request *)
  options : Concretizer.options;
      (** solver options shared by all requests; [options.obs] is the
          server's tracing context ([serve.request] spans,
          [serve.latency_ms]/[serve.queue_ms] histograms,
          [serve.status.*] counters) *)
}

val default_config : config

val pool_digest : Spec.Concrete.t list -> string
(** Content digest of a reusable pool: {!Chash.hash_string} over the
    sorted DAG hashes. The validity key of cached closures. *)

type t

val start :
  repo:Pkg.Repo.t -> ?config:config -> socket:string -> unit ->
  (t, string) result
(** Bind the Unix socket, spawn the worker domains and the acceptor,
    and return immediately. *)

val wait : t -> unit
(** Block until the server stops — a client sent ["shutdown"], or
    {!stop} ran on another thread — and every admitted request has
    been answered (shutdown drains the queue). *)

val stop : t -> unit
(** Request shutdown and {!wait}. *)

val socket_path : t -> string

val set_reuse : t -> Spec.Concrete.t list -> bool
(** Replace the reusable pool. If the {!pool_digest} changed: bump the
    generation and drop every cached closure. Returns whether anything
    changed. Safe to call while requests are in flight — in-flight
    solves finish against the pool snapshot they started with. *)

val generation : t -> int

val pool_digest_of : t -> string

val canonical_of_result :
  (Concretizer.outcome, Concretizer.failure) result -> Sjson.t
(** The canonical solve answer (status, root DAG hash, rendered spec,
    cost vector — nothing timing-dependent). A response's ["result"]
    field for a solve is byte-identical to [canonical_of_result] of
    the equivalent direct {!Concretizer} call; tests and the bench
    compare [Sjson.to_string] of the two. *)

(** In-process driver for the wire protocol (the [spackml client]
    subcommand and the test/bench load generators). Synchronous: one
    outstanding request per connection unless [send]/[recv] are used
    directly. *)
module Client : sig
  type t

  val connect : ?retries:int -> ?backoff_ms:float -> string -> (t, string) result
  (** [retries] (default [0]) bounds the extra attempts each
      {!solve}/{!ping}/... makes beyond the first: a mid-request
      disconnect reconnects (with a fresh frame decoder) and resends;
      a typed [overloaded] response backs off and resends. Delays start
      at [backoff_ms] (default 5ms) and double per retry. With the
      default [retries:0] every failure and overload is returned to the
      caller on first occurrence — the old behavior. When retries are
      exhausted the {e last} outcome is returned, so an overloaded
      server still yields its typed response, not a synthetic error. *)

  val close : t -> unit

  val send : t -> Sjson.t -> (unit, string) result
  (** Frame and write one request object (pipelining allowed). *)

  val recv : t -> (Sjson.t, string) result
  (** Read the next response frame. *)

  val solve :
    ?deadline_ms:float -> ?conflicts:int -> ?boom:bool -> ?rid:string ->
    t -> string -> (Sjson.t, string) result
  (** Solve one spec and await its response. [?rid] propagates a
      client-chosen request id onto the server's span tree; without it
      the server assigns one. Either way the response echoes ["rid"]. *)

  val ping : t -> (Sjson.t, string) result

  val stats : ?window_s:float -> t -> (Sjson.t, string) result
  (** [?window_s] selects the rolling window of the ["window"] block
      (rounded up to sub-window granularity, clamped to the horizon). *)

  val dump : ?n:int -> ?keep:string -> t -> (Sjson.t, string) result
  (** Fetch up to [n] (default 32) recent flight-recorder traces,
      optionally filtered by keep class
      (["error"|"deadline"|"slow"|"sampled"]). *)

  val reload : t -> (Sjson.t, string) result

  val shutdown : t -> (Sjson.t, string) result
end
