(** Grounder: instantiate a safe program over its Herbrand base.

    Two phases: (1) a delta-driven fixpoint derives every {e possible}
    atom — treating each rule head, choice element (with its local
    condition conjoined to the rule body) as a positive derivation and
    ignoring negative literals (the standard over-approximation);
    (2) with the atom set fixed, every statement is instantiated in
    full, evaluating comparisons, dropping negative literals on atoms
    that can never hold, and emitting ground rules over interned atom
    ids. *)

type atom_id = int

type ghead =
  | Gatom of atom_id
  | Gchoice of { lo : int option; hi : int option; gelems : atom_id list }
  | Gconstraint

type grule = { ghead : ghead; gpos : atom_id list; gneg : atom_id list }

type gmin = {
  gweight : int;
  gpriority : int;
  gkey : string;  (** rendered tuple identity: distinct keys sum *)
  gcond_pos : atom_id list;
  gcond_neg : atom_id list;
}

type t

val ground : ?obs:Obs.ctx -> ?jobs:int -> Ast.program -> t
(** [?obs] records phase spans (phase1/phase2/simplify), the
    possible-atom fixpoint iteration count, join-index hit/miss
    counters, and ground-rule totals.

    [?jobs] partitions phase-2 instantiation round-robin across that
    many OCaml domains. Phase 1 fixes the atom set first, so workers
    only read the shared store; atoms they must create (negative
    literals over underivable subjects) go to private overlays, and a
    serial merge in statement order re-interns them in first-use order
    and re-applies duplicate-rule filtering. The result is
    byte-identical to [jobs:1] — same atom ids, same rule order — for
    any job count. *)

val rules : t -> grule list

val minimizes : t -> gmin list

val minimize_priorities : t -> int list
(** Every priority declared by a program [#minimize], ascending, even
    when it grounded to no instances — an empty objective is still an
    objective with cost 0, so reported cost vectors keep the same shape
    regardless of how aggressively the instance was pruned. *)

val atom_count : t -> int
(** Total interned atoms (possible or merely referenced under
    negation); valid ids are [0 .. atom_count - 1]. *)

val index_hits : t -> int
(** Joins seeded through the per-argument index. *)

val index_misses : t -> int
(** Joins that fell back to the full per-predicate scan. *)

val possible : t -> atom_id -> bool
(** Atoms with no possible derivation are constant-false. *)

val atom_of_id : t -> atom_id -> Ast.atom

val pp_atom_id : t -> Format.formatter -> atom_id -> unit

val pp : Format.formatter -> t -> unit
(** Debug dump of the ground program. *)
