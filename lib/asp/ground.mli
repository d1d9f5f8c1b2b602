(** Grounder: instantiate a safe program over its Herbrand base.

    Phase 1 is a semi-naive fixpoint over the {e possible} atoms: a
    normal rule derives its head, and each choice element derives its
    atom under the rule's body conjoined with the element's condition;
    negative literals are ignored there (the standard
    over-approximation). Each normal rule's ground instance is emitted
    as soon as its join completes, so it is joined in one place only.
    A final pass over the fixed atom set grounds what needs that set or
    derives nothing: choice rules, integrity constraints and
    [#minimize]. [simplify] then turns certainly-true atoms into facts,
    drops negative literals on atoms that can never hold, and keeps
    each rule once. Ground rules refer to interned atom ids. *)

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
(** [?obs] records one span per pass ([ground.phase1] for the
    fixpoint, [ground.phase2] for the final pass, [ground.simplify]),
    each with the count of rules it emitted (phase 1's count includes
    instances found more than once, which [simplify] drops), plus the
    fixpoint iteration count, join-index hit/miss counters, and
    ground-rule totals.

    [?jobs] is ignored: grounding runs on the calling domain. It is
    kept only because the benchmark harness still passes it.

    Raises [Invalid_argument] on a program {!Ast.check_safety}
    rejects. *)

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
