(** Stable-model search over a ground program.

    The ground program is translated to SAT: Clark completion for
    derived atoms (choice-rule bodies support their elements without
    forcing them), integrity constraints as clauses, and cardinality
    bounds as pseudo-Boolean constraints. Only {e open} atoms —
    possible and not facts — get a variable of their own: facts and
    impossible atoms are decided by the ground program, which the
    stability check and model extraction read their truth from. A
    decided atom that a clause does refer to (a fact that is also a
    choice element) gets a variable fixed by a unit clause on first
    use. Completion admits
    self-supporting loops, but only through positive loops: on a tight
    program every candidate model is stable (Fages) and is accepted
    as is. Otherwise each candidate is checked for unfounded sets
    inside the non-trivial SCCs of the positive dependency graph
    ({!unfounded}); unfounded sets are cut with loop clauses and the
    search resumes — sound and complete stable-model semantics without
    upfront loop enumeration.

    [#minimize] objectives are optimized lexicographically (higher
    priority first) by branch-and-bound descent with activation
    literals.

    Translation builds no list per rule: each clause and PB constraint
    is assembled in one reusable literal buffer and handed to the SAT
    core's array input path ({!Sat.add_clause_array},
    {!Sat.add_pb_le_array}); bodies of two or more literals are shared
    through a table keyed by their sorted atom ids; supports, the
    positive dependency graph and Tarjan's state are int arrays, the
    latter reused from one translation to the next on each domain. The
    solver receives the variables, clauses, PB constraints and
    level-0 units in the order the rules, atoms and [#minimize] tuples
    dictate, so search and answers depend only on the ground program.

    Search runs on the glucose-class {!Sat} core, one solver per
    {!solve} call. *)

type model = {
  atoms : Ast.atom list;  (** true atoms of the optimal stable model *)
  costs : (int * int) list;  (** (priority, cost), descending priority *)
  sat_stats : (string * int) list;
  stable_checks : int;
      (** candidate models the stability check ran on; candidates of a
          tight program are accepted without one *)
  loop_clauses : int;  (** loop clauses added by failed checks *)
}

type outcome = Sat of model | Unsat of Sat.proof_step list option
(** [Unsat p]: no stable model. When the search was run with
    [~certify:true], [p] carries the DRUP-style refutation recorded by
    the SAT core (loop and completion clauses appear as trusted
    inputs); it can be validated independently with [Fuzz.Drup.check].
    [None] when certification was off. *)

type loops
(** The positive loops of a ground program: the atoms in non-trivial
    strongly connected components of its positive dependency graph
    (an edge from each rule head, every element of a choice head, to
    each positive body atom), and the rules with such a head. *)

val loops : Ground.t -> loops
(** Computed once per solve, with an iterative Tarjan over the graph in
    compressed sparse rows. *)

val unfounded : loops -> (Ground.atom_id -> bool) -> Ground.atom_id list
(** [unfounded l truth] is the stability check of the interpretation
    [truth], which must be a supported model (a model of the program's
    completion, as every SAT candidate is). It runs the least fixpoint
    of the reduct only over rules with a cyclic head, treating a
    non-cyclic atom as founded exactly when it is true, and returns
    the true cyclic atoms left underived, in descending id order. The
    result is empty iff the interpretation is a stable model (Lin-Zhao:
    a violated loop lies inside one SCC). *)

val hook_skip_unfounded : bool ref
(** Fault injection for the fuzz harness: when [true], the unfounded-set
    check is skipped, so non-stable SAT models are accepted. Always
    reset after use. *)

val solve :
  ?certify:bool -> ?obs:Obs.ctx -> ?budget:Sat.budget -> ?portfolio:int ->
  Ground.t -> outcome
(** [?obs] records a [logic.translate] span, a [logic.objectives]
    span (building the [#minimize] tuple variables), per-SAT-call
    [sat.solve] spans with stats deltas, an [opt.descent] span around
    the optimization after the initial stable solve, holding its
    per-probe [opt.probe] spans (priority, bound, outcome), a
    [logic.extract] span (reading the model's atoms), a
    [logic.stable] span per stability check run,
    the [logic.stable_checks], [logic.stable_checks_skipped] (tight
    program) and [logic.scc_atoms] counters, and the SAT core's
    per-restart histograms. [?budget] installs a preemption budget on
    the underlying solver ({!Sat.budget}); exhaustion raises
    {!Sat.Timeout}.

    [?portfolio] is ignored: every solve runs on one SAT core. It is
    kept only because the benchmark harness still passes it. *)

