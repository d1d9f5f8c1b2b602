(** Unified tracing and metrics.

    One event model for the whole pipeline — grounder, solver,
    concretizer, installer — instead of per-layer counter schemes:

    - {e spans}: named, hierarchical wall-time intervals over a
      monotonic clock, tagged with the domain that ran them (so a
      multicore batch renders as one timeline per domain);
    - {e metrics}: named counters, gauges, and log-bucketed histograms
      with quantile estimates;
    - {e the trace}: a finished context rendered as one Chrome/Perfetto
      [trace_event] JSON file (loadable in [ui.perfetto.dev]) that
      carries every span and every metric's final value, and the one
      reader of that file ({!Sink.report}).

    Everything takes a {!ctx}. The {!disabled} context is a constant
    [None]-like value: every operation on it is a single branch and no
    allocation, so instrumented code costs nothing when unobserved.
    Enabled contexts are domain-safe (a mutex guards the event log and
    metric registry); timestamps come from one global monotonic clock,
    so events from different domains order consistently. *)

(** Monotonic time (CLOCK_MONOTONIC, via bechamel's stub). Immune to
    wall-clock steps from NTP — the right base for benchmark deltas. *)
module Clock : sig
  val now_s : unit -> float
  (** Seconds since an arbitrary epoch. Only differences mean
      anything. *)
end

(** Log-bucketed histograms: geometric buckets at quarter powers of
    two, so any positive value is bucketed within ~19% relative error.
    Merging is pointwise (associative, count-preserving); quantile
    estimates return bucket upper bounds (monotone in the quantile). *)
module Hist : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Values [<= 0] land in the dedicated underflow bucket. *)

  val count : t -> int

  val sum : t -> float

  val min_value : t -> float
  (** Smallest observed value; [0.] when empty. *)

  val max_value : t -> float

  val reset : t -> unit
  (** Empty the histogram in place. *)

  val merge : t -> t -> t
  (** Pointwise bucket sum; inputs unchanged. *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0, 1]: an upper estimate of the
      [q]-quantile (the upper bound of the bucket holding the rank),
      clamped to the observed extremes so
      [min_value h <= quantile h q <= max_value h].
      [0.] when empty. Monotone in [q]. *)

  val buckets : t -> (float * float * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending. *)
end

(** A rotating sliding window for live telemetry: a horizon of
    [horizon_s] seconds split into 12 slots, each holding one value of
    the caller's choosing (the server's holds two {!Hist.t}s and its
    status counts). An update lands in the slot of the current period;
    a slot still holding an expired period is first cleared in place
    with the [reset] given at creation, so rotation is O(1) and
    allocation-free. A fold visits the live slots covering the
    requested window (rounded {e up} to slot granularity and clamped to
    the horizon), newest first. Each update and each fold reads the
    clock once and runs under the window's one lock, so a fold is one
    snapshot of every slot it visits. Time must be fed monotonically;
    the [?now_s] parameters exist for deterministic tests and default
    to {!Clock.now_s}. *)
module Window : sig
  type 'a t

  val create : horizon_s:float -> reset:('a -> unit) -> (unit -> 'a) -> 'a t
  (** [create ~horizon_s ~reset make] makes the 12 slots with [make];
      a 60 s horizon rotates every 5 s. Raises [Invalid_argument]
      unless [horizon_s > 0]. *)

  val update : ?now_s:float -> 'a t -> ('a -> unit) -> unit
  (** Apply [f] to the current slot, under the lock. *)

  val fold :
    ?window_s:float -> ?now_s:float -> 'a t -> ('b -> 'a -> 'b) -> 'b -> 'b
  (** Fold over the live slots covering the last [window_s] seconds
      (default: the full horizon), under the lock. Slots are reused
      after the fold returns, so the accumulator must copy what it
      keeps. *)

  val covered_s : ?window_s:float -> 'a t -> float
  (** Seconds a fold over [window_s] covers: the window rounded up to
      slot granularity, clamped to the horizon. *)

  val horizon_s : 'a t -> float
end

(** {1 Contexts} *)

type ctx

val disabled : ctx
(** The no-op context: every operation returns immediately. *)

val create : unit -> ctx
(** A fresh enabled context collecting events and metrics in memory.
    Render it with {!Sink.render}. *)

val enabled : ctx -> bool

val tee : ctx -> ctx -> ctx
(** A context that forwards every span, instant, and metric operation
    to both arguments (deduplicated; teeing with {!disabled} is the
    identity). The serve layer uses this to stamp one instrumentation
    point into both a per-request flight-recorder context and the
    long-lived [--trace] context. {!events}/{!metrics} on a teed
    context concatenate the backends' views — introspect the original
    contexts when you need them separately. *)

(** {1 Spans} *)

type span
(** A handle to an open span, for attaching attributes discovered
    while it runs (solver deltas, result sizes, ...). *)

type value = I of int | F of float | S of string | B of bool

val with_span :
  ctx -> ?cat:string -> ?attrs:(string * value) list -> string -> (span -> 'a) -> 'a
(** [with_span ctx ~cat ~attrs name f] runs [f] inside a span; the
    span closes when [f] returns or raises. Nesting is by dynamic
    extent per domain, which is what the Chrome rendering shows. *)

val set_attr : span -> string -> value -> unit
(** Attach an attribute to an open span. No-op on a disabled span. *)

val instant : ctx -> ?attrs:(string * value) list -> string -> unit
(** A point event (breaker flips, crash marks, ...). *)

(** {1 Metrics} *)

val incr : ctx -> ?by:int -> string -> unit
(** Bump a counter (created on first use). *)

val gauge : ctx -> string -> int -> unit
(** Set a gauge to its latest value. *)

val observe : ctx -> string -> float -> unit
(** Record a value into a histogram. *)

val publish : ctx -> prefix:string -> (string * int) list -> unit
(** Bulk-add a stat snapshot as counters named [prefix ^ "." ^ key]
    (the bridge from the flat [Sat.stats]-style lists). *)

(** {1 Introspection} (tests, smoke benches, the benchmark harness) *)

type event =
  | Span of {
      name : string;
      cat : string;
      tid : int;  (** domain id *)
      t0_ns : int64;  (** relative to the ctx epoch *)
      dur_ns : int64;
      attrs : (string * value) list;
    }
  | Instant of {
      name : string;
      tid : int;
      t_ns : int64;
      attrs : (string * value) list;
    }

val events : ctx -> event list
(** Chronological by completion time. Empty on {!disabled}. *)

type metric_value = Counter of int | Gauge of int | Histogram of Hist.t

val metrics : ctx -> (string * metric_value) list
(** Sorted by name. Empty on {!disabled}. *)

(** {1 The trace} *)

module Sink : sig
  type t = Chrome

  val render : ctx -> t -> string
  (** A [{"traceEvents": [...]}] object (Perfetto-loadable): spans as
      ["X"] events, instants as ["i"] events, then each metric's final
      value as a ["C"] event at the end of the trace. A counter's or
      gauge's args are [{"value": n}]; a histogram's are its [count],
      [sum], [min], [max], [p50], [p90] and [p99]. *)

  val write_file : ctx -> t -> string -> unit

  val chrome_events : event list -> Sjson.t
  (** Render a bare event list (e.g. one flight-recorder trace) as a
      Perfetto-loadable [{"traceEvents": [...]}] object. *)

  val report : string -> (string, string) result
  (** Read a rendered trace back as a table: one row per span name
      (count, total, p50, p99 and max in ms, in first-seen order), then
      one row per metric ([n=… sum=… p50=… p99=…] for a histogram).
      [Ok ""] for a valid trace with no spans or metrics; [Error] when
      the text is not a complete Chrome trace. *)
end

(** {1 Flight recorder}

    A bounded ring of completed per-request span trees with {e tail
    sampling}: the keep decision happens after the request finishes, so
    error and deadline-miss traces are always retained, the slowest [K]
    requests per window are retained, and the steady-state bulk is
    sampled 1-in-N. Eviction under pressure drops the oldest
    sampled/slow entry first; always-keep classes only age out when
    nothing else is left. Domain-safe. *)
module Recorder : sig
  type t

  type keep_class = Error | Deadline | Slow | Sampled

  val keep_class_to_string : keep_class -> string

  val keep_class_of_string : string -> keep_class option

  type trace = {
    tr_rid : string;  (** request id *)
    tr_op : string;
    tr_status : string;
    tr_keep : keep_class;
    tr_worker : int;
    tr_start_s : float;  (** {!Clock.now_s} at request receipt *)
    tr_dur_ms : float;
    tr_queue_ms : float;
    tr_events : event list;  (** render with {!Sink.chrome_events} *)
  }

  val create :
    ?capacity:int ->
    ?sample_every:int ->
    ?slowest_k:int ->
    ?window_s:float ->
    unit ->
    t
  (** Defaults: capacity 256, sample 1-in-16, slowest 8 per 60 s
      window. *)

  val record :
    t ->
    rid:string ->
    op:string ->
    status:string ->
    deadline_missed:bool ->
    worker:int ->
    start_s:float ->
    dur_ms:float ->
    queue_ms:float ->
    events:event list ->
    bool
  (** Offer a completed request; returns whether it was kept. [status]
      ["ok"]/["unsat"] are normal answers (slow-set or sampled);
      ["timeout"] with [deadline_missed] is the always-keep deadline
      class; anything else is the always-keep error class. *)

  val traces : ?n:int -> ?keep:keep_class -> t -> trace list
  (** Newest first, optionally filtered by class and truncated. *)

  val seen : t -> int
  (** Requests offered since creation. *)

  val kept : t -> int
  (** Traces currently held. *)

  val capacity : t -> int
end
