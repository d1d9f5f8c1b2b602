(** The installer: execute a concrete (possibly spliced) spec against a
    store, doing the cheapest correct thing per node —

    - already installed: reuse;
    - spliced (carries a [build_hash]): take the original binary and
      {e rewire} it (§4.2) — relocate its dependency references from
      the prefixes it was built against to the prefixes of the
      ABI-compatible substitutes — no compilation;
    - available in a buildcache or fetchable from a mirror: install and
      relocate;
    - otherwise: build from source.

    With a {!Mirror.group} attached the fetch path is {e fallible} and
    the installer degrades gracefully: transient failures retry with
    backoff, corrupt entries are quarantined and refetched elsewhere,
    and an entry (including a rewiring source) that no mirror can
    deliver falls back to a source build when the repo has a recipe —
    recorded in the report, not raised. Every node install is
    transactional ({!Store.claim}/{!Store.commit}), and a typed
    failure rolls the whole plan back, leaving the store unchanged.

    With [~jobs:n] (n > 1) the plan runs on [n] OCaml domains under a
    ready-set scheduler: a node is dispatched as soon as all its
    dependencies have committed. The report is byte-identical to the
    serial one for any schedule (hash lists are sorted at
    construction); several installs — same or different specs — may
    target one store concurrently, deduping in-flight work through the
    store's per-hash claim lease.

    The report's counters are the quantities the paper's scenarios talk
    about (zero rebuilds of dependents when splicing, etc.), plus the
    resilience telemetry (retries, breaker trips, quarantines,
    degradations); the final link check runs the simulated dynamic
    linker over the installed root. *)

type report = {
  built : string list;  (** node hashes compiled from source, as planned *)
  reused : string list;  (** all hash lists are sorted — schedule-independent *)
  from_cache : string list;  (** includes mirror-fetched entries *)
  rewired : string list;  (** spliced nodes patched without rebuilding *)
  fallback_built : string list;
      (** mirror faults exhausted every retry and failover; degraded to
          a source build *)
  rewire_fallbacks : string list;
      (** spliced nodes whose original binary was unfetchable; rebuilt
          from source against the new dependencies instead of rewired *)
  reloc : Relocate.stats;
  fetch_telemetry : Mirror.telemetry option;
      (** this install's share of the group's counters; [None] when no
          mirrors were attached *)
  link_result : (int, Linker.error list) result;
}

val install :
  Store.t ->
  repo:Pkg.Repo.t ->
  ?caches:Buildcache.t list ->
  ?mirrors:Mirror.group ->
  ?fallback:bool ->
  ?obs:Obs.ctx ->
  ?jobs:int ->
  Spec.Concrete.t ->
  (report, Errors.t) result
(** [Error] carries the typed failure (unfetchable entry with
    [~fallback:false], splice arity mismatch, builder failure, ...),
    and the store is left exactly as it was before the call. A failed
    {e link} is not an error — it is reported in [link_result].
    [fallback] (default [true]) controls degradation to source builds
    when mirrors cannot deliver an entry. [jobs] (default [1]) is the
    number of domains running the plan; when several nodes fail in one
    parallel run, the reported error is deterministically the one the
    serial walk would have hit first (crashes take precedence). *)

val install_exn :
  Store.t ->
  repo:Pkg.Repo.t ->
  ?caches:Buildcache.t list ->
  ?mirrors:Mirror.group ->
  ?fallback:bool ->
  ?obs:Obs.ctx ->
  ?jobs:int ->
  Spec.Concrete.t ->
  report
(** {!install}, raising {!Errors.Binary_error}. With [?obs] the walk
    is one [install] root span with a nested [install.node] span per
    DAG node (attributes: node, hash, action) and a per-node
    [install.node_ms] latency histogram, plus the {!Store} and
    {!Mirror} instrumentation. A node's span holds that node's own
    install, not its dependencies', so the node spans never contain
    one another. *)

val canonical_report : report -> string
(** Schedule-independent rendering of a report: the sorted hash lists,
    relocation stats and link result — telemetry excluded (retry and
    backoff counts depend on fetch interleaving). Two runs of the same
    plan over equal starting states produce equal canonical reports
    regardless of [jobs], provided the mirror layer injected no faults
    (fault dice advance per fetch, so under faults the {e actions} may
    legitimately differ while the store still converges). *)

val rebuild_count : report -> int
(** Planned source builds (degradations not included — see
    {!degraded_count}). *)

val degraded_count : report -> int
(** Nodes that wanted a binary but got a source build because every
    mirror failed: [fallback_built + rewire_fallbacks]. *)

val pp_report : Format.formatter -> report -> unit
