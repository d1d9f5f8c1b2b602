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

val create : ?vars:int -> unit -> t
(** [?vars] (default 0) sizes the per-variable arrays for that many
    variables at once; past it they double. A caller that knows its
    variable count avoids the copies and the garbage of growing from
    16. *)

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

val add_clause : t -> lit list -> unit
(** Add a clause. May only be called when the solver is at decision
    level 0 (initially, or after any [solve] call returns). If the
    clause makes the instance trivially unsatisfiable the solver
    becomes permanently UNSAT. *)

val add_pb_le : t -> (int * lit) list -> int -> unit
(** [add_pb_le s wlits bound]: constrain the weighted count of true
    literals to stay [<= bound]. Weights must be positive. *)

val solve : ?assumptions:lit list -> t -> bool
(** Search for a model extending the assumptions. [true] = SAT: query
    values with {!value}. [false] = UNSAT under these assumptions
    (permanently UNSAT if there were none). Learnt clauses, LBD scores
    and activities persist across calls, which is what keeps the
    optimization descent's repeated probes ({!Logic.solve}) cheap. *)

val value : t -> int -> bool
(** Value of a variable in the most recent model. Only meaningful after
    [solve] returned [true]. *)

val lit_value_in_model : t -> lit -> bool

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
    learnt_db, arena_words. Stored in an {!Obs.Stats} set;
    this accessor is a snapshot shim. *)

val stats_delta : before:(string * int) list -> t -> (string * int) list
(** {!stats} relative to an earlier snapshot: monotonic counters are
    differenced, gauges reported absolute. Lets a trace attribute
    solver work to individual {!solve} calls. *)
