(** First-order terms for the ASP engine.

    Constants are integers, identifiers ([mpich]) or quoted strings
    (["example"]); compound terms apply a function symbol to arguments
    ([node("example")]). Variables start with an uppercase letter. *)

type t =
  | Int of int
  | Sym of string  (** identifier constant *)
  | Str of string  (** quoted string constant *)
  | Var of string
  | App of string * t list

val intern : string -> string
(** The canonical (physically shared) instance of a constant string.
    Interning is domain-local: each OCaml domain owns its own pool, so
    parallel batch solves never contend on it. *)

val sym : string -> t
(** [Sym] over the interned string. *)

val str : string -> t
(** [Str] over the interned string. Constant names and hashes recur in
    thousands of facts; interned constants make the grounder's equality
    checks a pointer comparison in the common case. *)

val is_ground : t -> bool

val compare : t -> t -> int

val equal : t -> t -> bool

val hash_string : string -> int
(** The string hash behind {!hash}: short strings are hashed whole,
    longer ones by their first eight and last two characters. *)

val hash : t -> int
(** Content hash for atom tables. Long constants (DAG hashes) are
    sampled, not walked byte-for-byte; {!equal}'s physical-equality
    fast path keeps collisions cheap. *)

val vars : t -> string list
(** Variable names occurring, without duplicates. *)

val pp : Format.formatter -> t -> unit

val add_to_buffer : Buffer.t -> t -> unit
(** Append the text {!pp} prints. *)

val to_string : t -> string
