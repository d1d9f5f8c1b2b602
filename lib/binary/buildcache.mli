(** Buildcaches (§6.1.3): relocatable snapshots of built specs.

    An entry records a node's concrete sub-DAG, its object files, and
    the install prefixes everything lived at when built — the data
    needed to relocate the binaries into any other store (§3.4:
    "Spack can build binaries on a node's local filesystem ... and
    install them again on a separate cluster"). Installing an entry is
    the {!Installer}'s job: it looks a hash up once, here or through a
    {!Mirror}, and copies the entry's objects into one {!Store.install}
    transaction, relocating them on the way. *)

type entry = {
  e_spec : Spec.Concrete.t;
  e_objects : (string * Object_file.t) list;  (** prefix-relative paths *)
  e_prefixes : (string * string) list;  (** node hash -> prefix at build time *)
}

type t

val create : name:string -> t

val name : t -> string

val size : t -> int

val push : t -> Store.t -> Spec.Concrete.t -> (int, Errors.t) result
(** Snapshot every node of an installed spec into the cache; returns
    how many new entries were created. The spec must be fully
    installed in the store ([Error (Not_installed _)] otherwise). *)

val push_exn : t -> Store.t -> Spec.Concrete.t -> int
(** {!push}, raising {!Errors.Binary_error}. *)

val find : t -> hash:string -> entry option

val specs : t -> Spec.Concrete.t list
(** The concrete specs of all entries — what the concretizer sees as
    reusable. *)

val relative : prefix:string -> string -> string
(** Strip [prefix ^ "/"] from a path when it is a proper directory
    prefix; the path is returned unchanged otherwise ("/opt/foo" never
    strips paths under "/opt/foobar"). *)
