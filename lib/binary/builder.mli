(** The simulated compiler: turn a concrete spec node into an installed
    shared object.

    A built object exports the ABI surface of its package's ABI family,
    imports a deterministic subset of each link dependency's {e actual}
    installed surface (what a real compile bakes in from headers +
    link), carries NEEDED entries and RPATHs pointing at the
    dependencies' install prefixes, and embeds its own prefix (the
    relocation workload of §3.4). *)

val build_node :
  Store.t ->
  repo:Pkg.Repo.t ->
  spec:Spec.Concrete.t ->
  node:string ->
  (unit, Errors.t) result
(** Compile one node in one {!Store.install} transaction; every link
    dependency must already be installed ([Error
    (Dependency_not_installed _)] otherwise, with the transaction
    aborted). A hash installed already, or committed meanwhile by a
    concurrent writer, is left as it is. *)

val build_node_exn :
  Store.t -> repo:Pkg.Repo.t -> spec:Spec.Concrete.t -> node:string -> unit
(** {!build_node}, raising {!Errors.Binary_error}. *)

val build_all :
  Store.t -> repo:Pkg.Repo.t -> Spec.Concrete.t -> (string list, Errors.t) result
(** Build every node of the spec not yet installed, dependencies first;
    returns the hashes built. *)
