(** ABI model: what "binary compatible" means in this system (§2.1).

    A compiled library exposes a {e surface}: mangled symbol names with
    signature digests, plus the layouts of its exported types. A type
    layout may be {e concrete} (size and field list fixed by the API —
    the C ABI case) or {e opaque} (the size and representation are the
    implementation's choice, like MPI's [MPI_Comm]: an [int] in MPICH,
    a struct pointer in Open MPI).

    A provider surface is compatible with what a consumer compiled
    against when it exports a {e superset} of the required symbols with
    equal signature digests, and all shared type layouts are identical
    — API compatibility is necessary but not sufficient (§2.1); two
    packages with the same headers but different opaque layouts are
    binary-incompatible.

    Surfaces are synthesized deterministically from a package's
    {e ABI family} and version, so mpich-family implementations
    (MPICH, MVAPICH, Cray-MPICH analogues) produce interchangeable
    surfaces while an openmpi-family build of the same virtual does
    not. *)

type layout = {
  type_name : string;
  opaque : bool;
  size : int;
  repr : string;  (** representation tag; layouts equal iff all fields equal *)
}

type symbol = {
  mangled : string;
  sig_digest : string;
}

type surface = {
  symbols : symbol list;  (** sorted by mangled name *)
  layouts : layout list;  (** sorted by type name *)
}

val synthesize :
  family:string -> interface_version:string -> ?extra_symbols:int -> unit -> surface
(** Deterministic surface for an ABI family at an interface version.
    Families differ in every symbol digest and in opaque layout reprs;
    the same family at the same interface version is identical
    regardless of which package synthesized it. [extra_symbols] adds
    family-private symbols (a superset still satisfies consumers of the
    base surface). *)

type incompatibility =
  | Missing_symbol of string
  | Signature_mismatch of string
  | Layout_mismatch of string

val check : provider:surface -> required:surface -> incompatibility list
(** Empty list = the provider can stand in for what the consumer was
    compiled against. *)

val compatible : provider:surface -> required:surface -> bool

val required_of : surface -> fraction:float -> surface
(** A consumer typically imports a subset of a provider's surface; this
    samples a deterministic fraction (by symbol-name hash) of it, with
    all layouts retained. *)

val mangle : family:string -> string -> string
(** Itanium-flavoured name mangling for synthetic symbols. *)

val pp_incompatibility : Format.formatter -> incompatibility -> unit
