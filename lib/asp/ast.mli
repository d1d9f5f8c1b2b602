(** Abstract syntax of the ASP input language (a clingo subset).

    Supported statements:
    - normal rules [h :- b1, ..., bn.] and facts [h.]
    - integrity constraints [:- b1, ..., bn.]
    - choice rules with cardinality bounds
      [l { e1 : c1 ; e2 } u :- body.]
    - weak constraints [#minimize { w\@p, t1, t2 : body ; ... }.]

    Body literals are positive or negated atoms, or comparisons between
    terms. *)

type atom = { pred : string; args : Term.t list }

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type body_lit =
  | Pos of atom
  | Neg of atom
  | Cmp of cmp_op * Term.t * Term.t

type choice_elem = { elem : atom; cond : body_lit list }

type head =
  | Head_atom of atom
  | Head_choice of { lo : int option; hi : int option; elems : choice_elem list }
  | Head_none  (** integrity constraint *)

type rule = { head : head; body : body_lit list }

type min_elem = {
  weight : Term.t;  (** must ground to an [Int] *)
  priority : int;  (** larger = more significant *)
  terms : Term.t list;  (** tuple identity: distinct tuples sum *)
  mcond : body_lit list;
}

type statement = Rule of rule | Minimize of min_elem list

type program = statement list

val fact : atom -> statement

val atom : string -> Term.t list -> atom

val atom_equal : atom -> atom -> bool

val atom_hash : atom -> int

module Atom_tbl : Hashtbl.S with type key = atom
(** Hashtable keyed by atoms, using {!atom_equal}/{!atom_hash}: the
    physical-equality fast path of interned constants ({!Term.str})
    makes it much cheaper than polymorphic hashing on the grounder's
    atom store. *)

val atom_vars : atom -> string list

val body_lit_vars : body_lit -> string list

val cmp_to_string : cmp_op -> string

val pp_atom : Format.formatter -> atom -> unit

val pp_body_lit : Format.formatter -> body_lit -> unit

val pp_statement : Format.formatter -> statement -> unit

val pp_program : Format.formatter -> program -> unit

val check_safety : program -> (unit, string) result
(** Every variable in a rule head, negative literal, or comparison must
    occur in a positive body literal (for choice elements and minimize
    elements, their local condition also binds). A choice element's
    condition may not hold a negative literal: the grounder cannot keep
    a per-element condition. Returns a description of the first
    rejected rule. *)
