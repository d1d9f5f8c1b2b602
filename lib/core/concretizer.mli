(** The concretizer: Spack's dependency resolver with automatic
    splicing (§5).

    Pipeline (§3.3): compile packages + requests + reusable specs to
    ASP facts ({!Encode}), join them with the logic program
    ({!Program}), ground and solve for the optimal stable model
    ({!Asp}), and interpret the model back into concrete specs
    ({!Decode}).

    Knobs map one-to-one onto the paper's experimental axes (§6.1.4):
    the reusable-spec [encoding] (old vs hash_attr), whether automatic
    [splicing] is considered, and the set of reusable specs (the
    buildcache contents). *)

type options = {
  encoding : Encode.encoding;
  splicing : bool;
  reuse : Spec.Concrete.t list;
  mirrors : Binary.Mirror.group option;
      (** mirror layer to pull additional reusable specs from: only the
          {e currently reachable} mirrors contribute (degraded solves
          run over whatever metadata is reachable) *)
  host_os : string;
  host_target : string;
  certify : bool;
      (** record a DRUP-style proof in the SAT core so UNSAT answers
          carry an independently checkable refutation *)
  prune : bool;
      (** restrict package facts and the reusable pool to the
          dependency closure of the requested roots (see
          {!Encode.encode}) before grounding — sound, and the
          difference between grounding a 5000-spec buildcache and the
          few dozen specs a request can actually reach *)
  verify : bool;
      (** independently re-validate every returned spec against the
          repo and its request with {!Verify.check_solution} (no solver
          involved); the violation count lands in
          [stats.verify_violations]. Off by default — it is an explicit
          option (not keyed off tracing being enabled) so overhead
          comparisons of the tracing layer are not polluted by
          verification cost. *)
  ground_jobs : int;
      (** ignored: the grounder runs on one domain. Kept only because
          the benchmark harness still names it. *)
  portfolio : int;
      (** ignored: every solve runs on one SAT core. Kept only because
          the benchmark harness still names it. *)
  obs : Obs.ctx;
      (** tracing context ({!Obs.disabled} by default): when enabled,
          every request emits a [concretize] span with child
          [encode]/[assemble]/[ground]/[solve]/[decode] (and [verify])
          phase spans. Of the {!stats}, [sat_stats] are added to
          [sat.*] counters and [fact_count] is the
          [concretize.fact_count] gauge; the ground and pool sizes are
          the [ground.atoms]/[ground.rules] and
          [encode.pool_total]/[encode.pool_kept] metrics, and the solve
          time is the [solve] span *)
}

val default_options : options
(** hash_attr encoding, splicing off, no reuse, no mirrors,
    linux/x86_64 host, certification off, pruning on, verification
    off, tracing disabled. *)

type stats = {
  ground_atoms : int;
  ground_rules : int;
  fact_count : int;
  pool_total : int;  (** reusable specs before pruning *)
  pool_used : int;  (** reusable specs actually encoded *)
  sat_stats : (string * int) list;
  stable_checks : int;
  costs : (int * int) list;
  verify_violations : int option;
      (** [None] when [options.verify] was off; [Some n] = total
          violations {!Verify.check_solution} found across all
          returned specs (0 = clean) *)
  encode_seconds : float;
  ground_seconds : float;
  solve_seconds : float;
  total_seconds : float;
}

type outcome = {
  solution : Decode.solution;
  stats : stats;
}

(** Which failure a {!failure} is. *)
type failure_kind =
  | Unsat of Asp.Sat.proof_step list option
      (** no valid concretization exists; carries the refutation
          certificate iff [options.certify] was set *)
  | Timeout
      (** the solve was preempted by an exhausted {!Asp.Sat.budget}
          (deadline or conflict cap) rather than answered *)
  | Other
      (** any other error: an unknown package, a virtual package as a
          root, or a model that does not decode *)

type failure = {
  f_message : string;
      (** "UNSAT: no valid concretization exists", "timeout: solve
          budget exhausted", or the error's description ("unknown
          package: NAME", ...) *)
  f_kind : failure_kind;
}

val concretize_v :
  repo:Pkg.Repo.t ->
  ?options:options ->
  ?budget:Asp.Sat.budget ->
  ?attrs:(string * Obs.value) list ->
  Encode.request list ->
  (outcome, failure) result
(** Like {!concretize} but with a structured failure whose [f_kind]
    says what failed, and carries the DRUP proof for certified UNSAT
    answers. A request naming an unknown package (root or [^dep]), or a
    virtual package as its root, fails with [Other] before anything is
    encoded. [?attrs] are stamped on the root ["concretize"] span (the
    serve layer passes the request id here). [?budget] bounds the solve
    (conflict cap and/or external stop probe); exhaustion yields a
    [Timeout] failure. *)

val concretize :
  repo:Pkg.Repo.t ->
  ?options:options ->
  Encode.request list ->
  (outcome, string) result
(** Concretize one or more abstract requests jointly. [Error] carries
    "UNSAT" or a decode failure description. *)

val concretize_spec :
  repo:Pkg.Repo.t -> ?options:options -> string -> (outcome, string) result
(** Convenience: single request from spec syntax. *)

val pp_stats : Format.formatter -> stats -> unit

val concretize_batch :
  repo:Pkg.Repo.t ->
  ?options:options ->
  ?jobs:int ->
  Encode.request list ->
  (outcome, failure) result list
(** Concretize independent requests in parallel, one result per
    request in request order. [jobs] (default 1) is capped by
    {!batch_jobs}; the [batch] span's [jobs] attribute records the
    capped count. Requests are partitioned statically (request [i] on
    domain [i mod jobs]) and each is solved by {!concretize_v}, so
    results are byte-identical for any [jobs]. The mirror layer is
    consulted once, before any domain spawns. *)

val batch_jobs : jobs:int -> int -> int
(** [batch_jobs ~jobs n]: the domains a batch of [n] requests runs on,
    [jobs] capped by [n] and by [Domain.recommended_domain_count ()],
    and at least 1. *)
