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

    A node looks one hash up, once: its own, or a spliced node's
    original. The lookup tries the store, then each cache, then the
    mirrors. Cache installs and rewires share one copy–relocate–stage
    loop; a rewire also retargets its NEEDED entries. Every node is one
    {!Store.install} transaction, and a typed failure rolls back what
    the plan committed, leaving the store as the call found it.

    With a {!Mirror.group} attached the fetch path is {e fallible} and
    the installer degrades gracefully: transient failures retry with
    backoff, corrupt entries are quarantined and refetched elsewhere,
    and an entry (including a rewiring source) that no mirror can
    deliver falls back to a source build when the repo has a recipe —
    recorded in the report, not raised.

    One ready-set scheduler runs every plan. Nodes are ranked in
    depth-first post-order from the root, children in
    {!Spec.Concrete.children} order. A node is ready once all its
    dependencies have installed, and each worker takes the
    lowest-ranked ready node. [~jobs:n] runs [n] workers, the calling
    domain and [n - 1] spawned ones; at one job, nodes install and the
    store is written in exactly that post-order. Reports are
    byte-identical for any schedule (hash lists are sorted), and
    several installs — same or different specs — may target one store
    concurrently, deduping in-flight work through the store's per-hash
    lease.

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
      (** the summed counts of this install's own fetches, whatever
          other installs fetched through the same group meanwhile;
          [None] when no mirrors were attached *)
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
    {e link} is not an error — it
    is reported in [link_result]. [fallback] (default [true]) controls
    degradation to source builds when mirrors cannot deliver an entry.
    [jobs] (default [1]) is the number of workers. A failure stops
    dispatch, and nodes already running finish. The reported error is
    then the lowest-ranked failure among the nodes that ran, and a
    {!Store.Crashed} takes precedence. At one job that is the first
    node in post-order that fails. At more jobs, a lower-ranked node
    that never ran is not considered. *)

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
(** {!install}, raising {!Errors.Binary_error}. With [?obs] the plan
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
