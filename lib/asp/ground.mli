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
    each rule once. Ground rules refer to interned atom ids.

    Each statement is compiled once: its variables become slots of an
    array that the join binds and unbinds through an undo trail, and
    its atoms point at their predicate's atom list, argument indexes
    and triggers. A join step allocates nothing but the ids it matched
    and the index keys of bound compound arguments; ground facts are
    interned without a join. A program prefix that many calls share,
    such as the concretizer's logic program, is compiled once into a
    {!base}; each {!ground} call compiles only the statements it
    adds. *)

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

type base
(** A program prefix, safety-checked and compiled, with the phase-1
    triggers of its rules filed. A base belongs to one domain: a
    {!ground} call mutates it while it runs, and leaves it as
    {!prepare} made it when it returns or raises, so no atom, index or
    binding of one request outlives the call. *)

val prepare : Ast.program -> base
(** Raises [Invalid_argument] on a program {!Ast.check_safety}
    rejects. *)

val ground : ?obs:Obs.ctx -> ?jobs:int -> ?base:base -> Ast.program -> t
(** [ground ~base prog] grounds the base's statements followed by
    [prog], with the atoms, rules and order of grounding the two
    programs concatenated; without [?base], [prog] alone.

    [?obs] records one span per pass ([ground.phase1] for the
    fixpoint, [ground.final] for the final pass, [ground.simplify]),
    each with the count of rules it emitted (phase 1's count includes
    instances found more than once, which [simplify] drops), plus the
    fixpoint iteration count, join-index hit/miss counters, and
    ground-rule totals.

    [?jobs] is ignored: grounding runs on the calling domain. It is
    kept only because the benchmark harness still passes it.

    Raises [Invalid_argument] on a [prog] {!Ast.check_safety} rejects
    (its statements numbered after the base's), and on a [#minimize]
    weight that grounds to no integer. *)

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

val fact : t -> atom_id -> bool
(** The certainly-true atoms: exactly those with a body-less rule in
    {!rules}. [simplify] has removed them from every rule body and
    [#minimize] condition; they can still be choice elements. *)

val atom_of_id : t -> atom_id -> Ast.atom

val pp_atom_id : t -> Format.formatter -> atom_id -> unit

val pp : Format.formatter -> t -> unit
(** Debug dump of the ground program. *)
