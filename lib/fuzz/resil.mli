(** Resilience oracle: convergence under injected faults and crashes.

    For every generated universe paired with a seeded {!plan}, installs
    through the fault-injected {!Binary.Mirror} layer must be
    {e weather-proof}:

    - with fallback enabled, the install succeeds and the resulting
      store {!Binary.Store.fingerprint} equals the fault-free run's —
      degrading to source builds is allowed, diverging is not;
    - with fallback disabled, the install either converges identically
      or fails with a typed error leaving the store untouched;
    - a crash injected at an arbitrary store mutation, followed by
      {!Binary.Store.recover} and a resumed install, always converges,
      with no journal or staging residue;
    - a parallel ([--jobs N]) faultless run produces a report
      byte-identical to the serial one and the same fingerprint; a
      crash injected into a parallel faulty run recovers and resumes to
      convergence; and an install {e storm} — several installs racing
      onto one shared store through a simulated mirror fleet, two of
      them the same spec — converges to the serial union with no claim
      left in flight.

    Like {!Oracle}, everything is a pure function of (seed, round), so
    any report line reproduces its failure exactly. *)

type plan = {
  pl_mirrors : (string * Binary.Mirror.fault_plan) list;
      (** one fault plan per simulated mirror, in configured order *)
  pl_crash_at : int;
      (** crash point; reduced mod the observed write count at use *)
  pl_jobs : int;  (** domain count for the parallel-schedule scenarios *)
}

type stats = {
  mutable installs_converged : int;
  mutable degraded_converged : int;
      (** converged despite falling back to at least one source build *)
  mutable typed_failures_clean : int;
      (** no-fallback runs that failed typed with the store untouched *)
  mutable crashes_recovered : int;
  mutable parallel_converged : int;
      (** jobs-N faultless runs whose report was byte-identical to the
          serial one *)
  mutable parallel_crashes_recovered : int;
      (** crashes injected into jobs-N faulty runs that recovered and
          resumed to convergence *)
  mutable storms_converged : int;
      (** concurrent multi-install unions (shared store, simulated
          fleet, duplicated spec for claim contention) that matched the
          serial union with no claim leaked *)
  mutable entries_quarantined : int;
}

val fresh_stats : unit -> stats

val add_stats : stats -> stats -> unit

val pp_stats : Format.formatter -> stats -> unit

val check : ?stats:stats -> Gen.t -> plan -> string list
(** All violations found running the resilience scenarios over one
    universe under one fault plan; [[]] means the oracle held. *)

type failure = {
  round : int;
  violations : string list;
  plan : plan;
  shrunk : Gen.t;
  shrunk_violations : string list;
}

type report = {
  seed : int;
  rounds : int;
  stats : stats;
  failures : failure list;
}

val run : ?log:(string -> unit) -> seed:int -> rounds:int -> unit -> report
(** Round [k] tests [Harness.universe ~seed ~round:k] under a fault
    plan that is a pure function of [(seed, k)]; failing universes are
    shrunk with the plan held fixed, and {!pp_failure} prints the plan. *)

val pp_failure : Format.formatter -> failure -> unit

val pp_report : Format.formatter -> report -> unit
