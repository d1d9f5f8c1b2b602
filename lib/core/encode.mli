(** Compilation of the concretizer's inputs to ASP facts and rules
    (§5.1–§5.3).

    Three fact groups: package definitions (versions, variants,
    conditional dependencies via the condition/requirement/imposition
    machinery of §5.1.1, provides, conflicts), the user's abstract
    requests, and reusable concrete specs — in either the {e old}
    direct [imposed_constraint] encoding (§5.1.2) or the {e new}
    [hash_attr] encoding that splicing needs (§5.3, Fig. 3a).

    [can_splice] directives compile to one ASP rule each (Fig. 4a),
    generated here because their version-range tests must be
    precompiled against the known version universe (ASP cannot order
    version strings). *)

type encoding = Old | Hash_attr

type request = {
  req : Spec.Abstract.t;
  forbid : string list;
      (** package names the solution must not contain (§6.4 requires
          solutions that do not depend on mpich) *)
}

val request_of_string : ?forbid:string list -> string -> request

type reuse_pool = {
  by_hash : (string, Spec.Concrete.t) Hashtbl.t;
      (** node hash -> the concrete sub-DAG rooted there *)
}

val pool_of_specs : Spec.Concrete.t list -> reuse_pool
(** Index every node of every spec (each is individually reusable).
    Memoized: each domain keeps the pool of the last list it was given,
    keyed on the list's physical identity, so passing the same list on
    every request builds the pool once. The result must not be
    mutated. *)

val pool_size : reuse_pool -> int

type t = {
  facts : Asp.Ast.statement list;
  rules : Asp.Ast.statement list;  (** generated can_splice rules *)
  pool : reuse_pool;
      (** the pool the facts describe — pruned when [prune] was set *)
  pool_total : int;  (** pool size before pruning *)
}

val encode :
  repo:Pkg.Repo.t ->
  encoding:encoding ->
  splicing:bool ->
  reuse:Spec.Concrete.t list ->
  ?prune:bool ->
  ?obs:Obs.ctx ->
  host_os:string ->
  host_target:string ->
  request list ->
  t
(** [prune] (default [false]) restricts package facts and the reusable
    pool to the dependency closure of the requested roots, so a
    buildcache of thousands of specs grounds like one holding only the
    specs a request could actually use. The closure over-approximates
    every package that can appear as a node in a solution rooted
    there: it follows all dependency directives (conditions ignored,
    like the grounder's possible-atom phase), virtuals to all
    providers, [can_splice] directives of closure packages to their
    targets, and reusable sub-DAGs rooted at closure packages to all
    their nodes. Facts about packages outside the closure cannot
    influence any model, so pruning them is sound. It is computed
    afresh on every call. [?obs] records the closure computation as an
    [encode.closure] span and the pool sizes as
    [encode.pool_total]/[encode.pool_kept] gauges. *)
