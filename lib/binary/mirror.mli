(** Mirrors: fallible, fault-injected fronts over buildcaches.

    Production package managers treat mirror failure as the common
    case: fetches time out, payloads arrive truncated or corrupted,
    whole mirrors disappear for minutes. This module fronts one or more
    {!Buildcache}s behind a fetch interface that can fail in all those
    ways — deterministically, from a seeded {!fault_plan} — and layers
    the client-side machinery that makes the install path survive them:

    - a configurable {!retry_policy} (exponential backoff + bounded
      jitter) over a simulated monotonic {!clock};
    - a per-mirror circuit {!breaker} (closed → open after N
      consecutive failures → half-open probe);
    - failover across the mirrors of a {!group}, in the order {!rank}
      derives from breaker state and measured latency;
    - end-to-end integrity: every delivered entry is re-hashed with
      {!Chash} against the trusted index digest {e and} its sub-DAG's
      Merkle hash; corrupted entries are quarantined per-mirror and
      refetched elsewhere. *)

(** {1 Simulated clock} *)

type clock

val clock : unit -> clock
(** A fresh simulated monotonic clock at 0 ms. *)

val now : clock -> float

val advance : clock -> float -> unit
(** Sleeping is advancing: backoff delays move this clock, never the
    wall clock, so tests and fuzzing run at full speed. *)

(** {1 Retry policy} *)

type retry_policy = {
  max_attempts : int;  (** attempts per mirror before failing over, >= 1 *)
  base_delay_ms : float;
  multiplier : float;
  max_delay_ms : float;
  jitter_pct : int;  (** each delay is nominal ± this percentage *)
}

val default_retry : retry_policy
(** 4 attempts, 10ms base, ×2, 1s cap, ±25% jitter. *)

val nominal_delay : retry_policy -> attempt:int -> float
(** [min max_delay (base * multiplier^(attempt-1))] — monotone
    nondecreasing in [attempt], capped. *)

val delay : retry_policy -> seed:int -> attempt:int -> float
(** {!nominal_delay} with deterministic jitter: within
    [±jitter_pct/100] of nominal, never negative, and a pure function
    of [(seed, attempt)]. *)

(** {1 Circuit breaker} *)

type breaker_config = {
  failure_threshold : int;  (** consecutive failures that trip it *)
  cooldown_ms : float;  (** open duration before a half-open probe *)
}

val default_breaker : breaker_config
(** 3 failures, 30s cooldown: what every breaker runs with. *)

type breaker_state = Closed | Open | Half_open

type breaker

val breaker : unit -> breaker

val breaker_state : breaker -> breaker_state

val breaker_trips : breaker -> int

val breaker_allows : breaker -> clock -> bool
(** May a request go through now? An [Open] breaker whose cooldown has
    elapsed transitions to [Half_open] and admits exactly the probe. *)

val breaker_record : breaker -> clock -> ok:bool -> bool
(** Feed an outcome. Success closes the breaker and clears the failure
    count; failure increments it, tripping to [Open] at the threshold —
    and a failed [Half_open] probe re-opens immediately. Returns [true]
    iff this call tripped the breaker. *)

(** {1 Fault plans} *)

type fault_plan = {
  fp_seed : int;
  fp_transient_pct : int;  (** chance each fetch attempt fails transiently *)
  fp_corrupt_pct : int;  (** chance a given (mirror, hash) serves corrupted
                             bytes — sticky, the realistic bad-blob case *)
  fp_latency_ms : float;  (** clock advance per fetch attempt *)
  fp_wall : bool;
      (** also realize [fp_latency_ms] as a real [sleep] per attempt
          (no lock held), making fetches genuinely latency-bound —
          how the install-storm bench models network-bound delivery
          so parallel schedules can overlap the waits *)
  fp_outage_after : int option;  (** hard outage starting after this many fetches *)
  fp_outage_len : int option;  (** outage length in fetches; [None] = forever *)
}

val no_faults : fault_plan

val pp_fault_plan : Format.formatter -> fault_plan -> unit

(** {1 Fetching} *)

type fetch_error =
  | Absent  (** authoritative miss — not a fault *)
  | Transient of { attempt : int }
  | Offline
  | Breaker_open
  | Corrupt of { expected : string; got : string }
  | Quarantined

val describe_error : fetch_error -> string

type t

val create : ?faults:fault_plan -> name:string -> Buildcache.t -> t

val name : t -> string

val breaker_of : t -> breaker

val quarantined : t -> string list
(** Hashes this mirror has served corrupt and will no longer be asked
    for. *)

val entry_digest : Buildcache.entry -> string
(** {!Chash} digest of an entry's canonical bytes (spec text, objects
    via {!Object_file.canonical}, build-time prefixes) — what the
    trusted index records and the client recomputes on delivery. *)

val fetch : t -> clock -> hash:string -> (Buildcache.entry, fetch_error) result
(** One fetch attempt against one mirror, faults and integrity check
    included. A delivered entry failing verification is quarantined
    here and reported as [Corrupt]. *)

(** {1 Mirror groups} *)

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

val fresh_telemetry : unit -> telemetry

val add_telemetry : telemetry -> telemetry -> unit

val pp_telemetry : Format.formatter -> telemetry -> unit

type group

val group : ?policy:retry_policy -> ?obs:Obs.ctx -> t list -> group
(** Failover across [t list] in {!rank} order; all fetches share the
    policy and one fresh simulated clock. With [?obs], every
    {!fetch_entry} is a [mirror.fetch] span, each telemetry bump also
    lands in the matching [mirror.*] counter, backoff waits feed the
    [mirror.backoff_ms] histogram, verified payload bytes accumulate in
    [mirror.bytes_verified], and circuit-breaker state transitions
    appear as [mirror.breaker] instants. Groups are domain-safe:
    concurrent {!fetch_entry} calls from parallel installs share
    breakers, latency measurements and the clock. *)

val fleet :
  ?seed:int -> ?policy:retry_policy -> ?obs:Obs.ctx -> size:int -> Buildcache.t -> group
(** A simulated fleet of [size] mirrors [m00], [m01], … over one cache,
    each with a deterministic fault/latency profile drawn from [seed]:
    every fifth mirror is near-clean and fast, the rest mix transient
    failures (5–34%), latency (5–80ms), sticky corruption on roughly a
    quarter, and bounded outage windows on roughly a sixth. The
    profile set is a pure function of [(seed, size)]. *)

val mirrors : group -> t list

val group_clock : group -> clock

val rank : group -> t list
(** The order {!fetch_entry} would consult mirrors in right now:
    sorted by (breaker cooling down, consecutive failures, latency,
    configured index). Latency is the mirror's client-side EWMA of
    per-attempt request time (weight 1/4 on the newest sample); a
    mirror with no sample yet counts as the policy's [base_delay_ms],
    so a measured mirror slower than one retry wait gives way to an
    untried one and a faster one keeps its place. Deterministic given
    the same statistics. *)

val fetch_entry :
  group ->
  hash:string ->
  (Buildcache.entry, (string * fetch_error) list) result * telemetry
(** Fetch with retry, backoff, breaker gating and failover in {!rank}
    order. [Error] carries each mirror's final verdict, in consultation
    order. The telemetry counts this call alone, so concurrent fetches
    through one group never count each other's work. *)

val reachable_specs : group -> Spec.Concrete.t list
(** The deduplicated concrete specs of every {e currently reachable}
    mirror (breaker not open, not in an outage window) — what a
    degraded concretization may treat as reusable. *)
