(** Concrete specs: fully resolved spec DAGs.

    A concrete spec is a directed acyclic graph with at most one node
    per package name (the link-run invariant from §3.1), every
    attribute set, and a content hash that commits to the node's
    attributes and — Merkle-style — to the hashes of its dependencies.

    Build provenance (§4.1): a node carries an optional [build_hash],
    the DAG hash of the spec its binary was actually compiled as. For a
    freshly built node this is [None] (it was built as itself); for a
    node that has been spliced it points at the original. A spliced
    spec additionally records the whole original spec as [build_spec],
    so reproduction can rebuild the originals and replay the splice. *)

open Types

type node = {
  name : string;
  version : Vers.Version.t;
  variants : variant_value Smap.t;
  os : string;
  target : string;
  build_hash : string option;
}

type t

val create :
  root:string ->
  nodes:node list ->
  edges:(string * string * deptypes) list ->
  ?build_spec:t ->
  unit ->
  t
(** Build and validate a spec DAG. Edges are [(parent, child, types)].
    @raise Invalid_argument on duplicate node names, dangling edges,
    cycles, or a missing root. *)

val root : t -> string

val root_node : t -> node

val node : t -> string -> node
(** @raise Not_found for names absent from the DAG. *)

val find_node : t -> string -> node option

val nodes : t -> node list
(** All nodes, breadth-first from the root: each node once, where it is
    first reached, children in {!children} order. This is not a
    topological order: for r→a, r→b, b→a it is [r a b]. {!Codec} writes
    spec.json nodes in this order. *)

val children : t -> string -> (string * deptypes) list
(** Outgoing dependency edges of a node, sorted by child name. *)

val edges : t -> (string * string * deptypes) list

val build_spec : t -> t option

val is_spliced : t -> bool
(** A spec is spliced iff it has a build spec (§4.2). *)

val dag_hash : t -> string
(** Base32 content hash of the root (the spec's identity). *)

val node_hash : t -> string -> string
(** Content hash of the sub-DAG rooted at a node. *)

val subdag : t -> string -> t
(** The concrete spec rooted at one of the DAG's nodes (no build
    spec; provenance stays with the enclosing spec). *)

val with_build_spec : t -> t option -> t
(** Replace the provenance pointer (hash-neutral at the spec level but
    recorded for reproduction). *)

val map_nodes : (node -> node) -> t -> t

val prune_build_deps : t -> t
(** Drop build-only edges and any node no longer reachable through
    link-run edges — what splicing does to the runtime representation
    of an already-built spec (§4.1, final subtlety). *)

val link_closure : t -> string -> string list
(** Names reachable from a node through link-run edges (inclusive). *)

val satisfies : t -> Abstract.t -> bool
(** Does this concrete spec conform to an abstract request? The root
    must satisfy the root constraints, and each dependency constraint
    must be satisfied by the matching node of the DAG (which must
    exist). *)

val node_satisfies : node -> Abstract.node -> bool

val equal : t -> t -> bool
(** Hash equality. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: [root@v+variants ^dep@v ...]. *)

val pp_tree : Format.formatter -> t -> unit
(** Multi-line tree rendering with hashes, like [spack spec -l]. *)

val to_string : t -> string

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering: link-run edges solid, build edges dashed,
    spliced nodes annotated with their build provenance. *)
