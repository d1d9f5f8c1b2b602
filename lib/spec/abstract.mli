(** Abstract specs: the constraints a user (or a directive's [when]
    clause, or a [can_splice] target) writes down.

    An abstract spec constrains a root package and, flatly, any number
    of named dependencies ([^zlib@1.2] constrains whichever [zlib] node
    ends up in the DAG, wherever it sits). Unset attributes are
    unconstrained. *)

open Types

type node = {
  name : string;  (** "" means "any package" (pure-constraint specs) *)
  version : Vers.Range.t;
  variants : variant_value Smap.t;
  os : string option;
  target : string option;
}

type dep = { dtypes : deptypes; node : node }

type t = { root : node; deps : dep list }

val node_any : string -> node
(** Unconstrained node for a package name. *)

val node_satisfies :
  name:string ->
  version:Vers.Version.t ->
  variants:variant_value Smap.t ->
  os:string ->
  target:string ->
  node ->
  bool
(** Does a fully-resolved node meet this node constraint? Variant
    constraints must be present with equal value; os/target must match
    when constrained. *)

val node_intersect : node -> node -> node option
(** Merge two node constraints; [None] when contradictory (disjoint
    version ranges or conflicting variant values). Names must match
    (or one be [""]). *)

val subsumes : t -> t -> bool
(** [subsumes general specific]: every concrete spec satisfying
    [specific] would satisfy [general]. Sound, not complete (dependency
    constraints are compared pairwise by name). *)

val pp_node : Format.formatter -> node -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string
