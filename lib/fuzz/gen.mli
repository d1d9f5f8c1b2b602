(** Parameterized random package universes.

    A universe is a first-class {e description} — plain data, not a
    [Pkg.Repo.t] — so {!Shrink} can delete pieces of it and {!Harness}
    can print any failing instance as a paste-ready regression test.

    Generated shapes cover the concretizer's interesting axes: layered
    dependency DAGs, conditional and build-only dependencies, version
    pins, an optional virtual with two same-ABI-family providers (one
    declaring [can_splice] for the other), conflicts — including
    "poisoned" packages whose every version conflicts, the seed of
    certifiable UNSATs — and requests that are sometimes impossible by
    construction. *)

type udep = {
  ud_target : string;  (** dependency spec text, e.g. ["p2@2.0"] or ["vmpi"] *)
  ud_when : string option;
  ud_build_only : bool;
}

type upkg = {
  up_name : string;
  up_versions : string list;  (** newest-preferred first *)
  up_variant : bool option;  (** boolean variant ["fast"] with this default *)
  up_family : string option;
  up_provides : string option;
  up_deps : udep list;
  up_conflicts : (string * string option) list;  (** (forbidden self, when) *)
  up_splices : (string * string) list;  (** (target spec, when) *)
}

type t = {
  u_pkgs : upkg list;
  u_cache_roots : string list;
      (** requests concretized and built into the buildcache *)
  u_requests : string list;
}

val virtual_name : string

val stray_name : string
(** A package nothing references: its cached spec is the metamorphic
    no-op entry that must never change a solution. *)

val generate : Rng.t -> t

val to_repo : t -> Pkg.Repo.t
(** Compile the description through the ordinary packaging DSL. *)

val to_ocaml : t -> string
(** Render as paste-ready OCaml (repo + requests + cache roots). *)

val size : t -> int

val summary : t -> string
