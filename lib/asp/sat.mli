(** Glucose-class CDCL SAT core with pseudo-Boolean constraints.

    The propositional engine under the ASP solver: clauses stored in a
    flat int-array arena with inline headers, blocking-literal watch
    lists with inline binary clauses, first-UIP conflict analysis with
    recursive clause minimization, LBD-driven learnt-DB reduction,
    glucose-style EMA restarts, VSIDS-style activities with lazy
    generation-based rescaling, phase saving with target-phase
    rephasing (which gets the search out of phase traps), and a
    counter-based propagator for linear pseudo-Boolean constraints
    [sum of w_i over true literals <= bound] (used for choice-rule
    cardinality bounds and optimization descent).

    This is the only CDCL core: {!Logic} calls it directly, and tests
    check it against brute force and the independent DRUP checker
    ({!Fuzz.Drup}).

    Literal encoding: variable [v]'s positive literal is [2 * v],
    its negation [2 * v + 1]. *)

type t

type lit = int

(** A per-solve resource budget, honored by every {!solve} call until
    replaced. [b_conflicts] caps the conflicts a single call may spend;
    [b_stop] is an external preemption probe (typically "has this
    request's deadline passed?") polled every {!stop_poll_interval}
    conflicts. *)
type budget = {
  b_conflicts : int option;
  b_stop : (unit -> bool) option;
}

val stop_poll_interval : int
(** Conflicts between two [b_stop] polls (32). *)

exception Timeout
(** Raised by {!solve} when the active budget is exhausted. The solver
    is left at decision level 0: learnt clauses, activities and phases
    survive, so it remains fully reusable. *)

val create : ?vars:int -> ?arena:int -> unit -> t
(** [?vars] (default 0) sizes the per-variable arrays for that many
    variables at once; past it they double. A caller that knows its
    variable count avoids the copies and the garbage of growing from
    16. [?arena] (default 1024) sizes the clause arena in words, where
    a clause of [n >= 3] literals takes [n + 3]; past it the arena
    doubles. *)

val set_reduce_interval : t -> int -> unit
(** Arena-learnt count that triggers the next [reduce_db] (default
    2000, +300 after every reduction). Tests lower it to force
    reductions on small instances. *)

val set_budget : t -> budget option -> unit
(** Install (or clear, with [None]) a preemption budget honored by
    every subsequent {!solve} call (the deadline hook the solve server
    uses). Exhaustion raises {!Timeout}. *)

val new_var : t -> int
(** Returns the fresh variable's index. *)

val nvars : t -> int

val pos : int -> lit

val neg : int -> lit

val lit_not : lit -> lit

val lit_var : lit -> int

val lit_sign : lit -> bool
(** [true] for a positive literal. *)

(** DRUP-style proof steps, recorded when {!enable_proof} was called.
    [P_input]/[P_pb_input] restate the trusted problem as it was added;
    [P_pb_lemma (i, c)] claims clause [c] is implied by the [i]-th
    (0-based) PB input on its own — checkable by a weight sum, no
    search; [P_derived c] claims [c] follows from everything before it
    by reverse unit propagation; [P_delete c] retires a learnt clause
    dropped by [reduce_db], keeping the checker's database in step
    with the solver's. A genuine (assumption-free) UNSAT run logs a
    final [P_derived []]; an independent checker ({!Fuzz.Drup.check})
    replays the steps and certifies the refutation. *)
type proof_step =
  | P_input of lit list
  | P_pb_input of (int * lit) list * int
  | P_pb_lemma of int * lit list
  | P_derived of lit list
  | P_delete of lit list

val enable_proof : t -> unit
(** Start recording proof steps. Call before adding any clause. *)

val proof : t -> proof_step list option
(** Recorded steps in emission order; [None] unless {!enable_proof}. *)

val hook_drop_pb : bool ref
(** Fault injection for the fuzz harness: when [true], {!add_pb_le}
    silently discards its constraint. Always reset after use. *)

(** {2 Input}

    A clause or PB constraint enters through one path. Its literals
    (and weights) are copied into a scratch buffer the solver keeps
    and reuses; a clause is sorted and deduplicated there, dropped if
    it is a tautology or already satisfied at level 0, stripped of its
    level-0-false literals, and then made a unit, an inline binary or
    an arena clause; a PB constraint folds its level-0-true literals
    into the bound, forces the literals heavier than the remaining
    slack, and watches the rest, sorted by descending weight with
    [Array.sort]. The [P_input] and [P_pb_input] proof steps are built
    only when proof logging is on. The list and array entry points
    differ only in how they fill the buffer, so the same input in the
    same order gives the same solver state. Input may only be added
    at decision level 0 (initially, or after any [solve] call
    returns); input that makes the instance trivially unsatisfiable
    makes the solver permanently UNSAT. *)

val add_clause : t -> lit list -> unit

val add_clause_array : t -> lit array -> int -> unit
(** [add_clause_array s lits n] adds the clause of [lits.(0)] ..
    [lits.(n - 1)]; [lits] is only read. *)

val add_pb_le : t -> (int * lit) list -> int -> unit
(** [add_pb_le s wlits bound]: constrain the weighted count of true
    literals to stay [<= bound]. Weights must be positive. *)

val add_pb_le_array : t -> int array -> lit array -> int -> int -> unit
(** [add_pb_le_array s ws lits n bound] is [add_pb_le] over the [n]
    pairs [(ws.(i), lits.(i))], in index order; the arrays are only
    read. *)

val solve : ?assumptions:lit list -> t -> bool
(** Search for a model extending the assumptions. [true] = SAT: query
    values with {!value}. [false] = UNSAT under these assumptions
    (permanently UNSAT if there were none). Learnt clauses, LBD scores
    and activities persist across calls, which is what keeps the
    optimization descent's repeated probes ({!Logic.solve}) cheap. *)

val value : t -> int -> bool
(** Value of a variable in the most recent model. Only meaningful after
    [solve] returned [true]. *)

val set_obs : t -> Obs.ctx -> unit
(** Attach a tracing context: each learnt clause's LBD feeds the
    [sat.lbd] histogram, and each restart records the
    conflicts/decisions/propagations since the previous restart into
    [sat.*_per_restart] histograms and updates the [sat.learnt_db]
    gauge. No effect (and no cost) with {!Obs.disabled}. *)

val stats : t -> (string * int) list
(** Counters: conflicts, decisions, propagations, learned clauses,
    restarts, reduces (learnt-DB reductions), removed (clauses deleted
    by reduction), minimized (literals stripped by clause
    minimization), rephases; plus gauges: clauses, pbs, vars,
    learnt_db, arena_words. Always in this order. *)

val stats_delta : before:(string * int) list -> t -> (string * int) list
(** {!stats} relative to an earlier snapshot: the nine counters are
    differenced, the gauges reported absolute. Lets a trace attribute
    solver work to individual {!solve} calls. *)
