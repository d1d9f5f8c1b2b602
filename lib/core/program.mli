(** The concretizer's logic program (§5.1, §5.3, §5.4), as ASP text.

    Assembled from sections so experiments can measure each change in
    isolation: the base concretization semantics, the reuse machinery
    shared by both encodings, the [hash_attr] recovery rules of
    Fig. 3b (new encoding only), and the splice-selection logic of
    Fig. 4b (only when splicing is enabled — the feature is
    conditionally loaded, §5.4). *)

val base : string
(** Node derivation, condition machinery, virtuals/providers, version
    and variant selection, user constraints, conflicts. *)

val reuse : string
(** Reuse choice, imposition application, build/reuse objective
    plumbing — shared by both encodings. *)

val optimization : string
(** Objectives: minimize builds (highest priority, weight 100 as in
    §5.1.2), version preference, non-default variants, splice count. *)

val assemble : encoding:Encode.encoding -> splicing:bool -> unit -> string
(** The sections in order: {!base}, {!reuse}, the Fig. 3b recovery of
    [imposed_constraint] from [hash_attr] (with the hash and
    depends_on impositions deferring to splices) under the [Hash_attr]
    encoding, the Fig. 4b choice between imposing an original
    dependency and splicing in a compatible replacement when
    [splicing], then {!optimization}. *)

val statements : encoding:Encode.encoding -> splicing:bool -> Asp.Ast.program
(** [assemble]'s text, parsed: once per domain and argument pair, then
    served from a domain-local cache. *)

val prepared : encoding:Encode.encoding -> splicing:bool -> Asp.Ground.base
(** {!statements}, prepared for grounding ({!Asp.Ground.prepare}): once
    per domain and argument pair, from a domain-local cache like
    {!statements}'. A request grounds [Asp.Ground.ground ~base] over
    only the statements its encoding adds. *)
