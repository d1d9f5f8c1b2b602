(* The contract between the stable-model layer ([Logic]) and a CDCL
   core. Two implementations satisfy it:

   - [Sat]: the glucose-class production core (clause arena,
     blocking-literal watchers, LBD-driven learnt-DB reduction);
   - [Sat_baseline]: the original MiniSat-2005-style solver, kept as
     the differential-testing reference and the bench baseline.

   The proof-step type lives here so certificates from either core are
   interchangeable: [Fuzz.Drup] checks both against one checker. *)

type lit = int

(* A per-solve resource budget, set once on a solver and honored by
   every subsequent [solve] call until replaced. [b_conflicts] caps the
   conflicts a single [solve] call may spend; [b_stop] is an external
   preemption probe (typically "has this request's deadline passed?")
   polled every [stop_poll_interval] conflicts, so a wedged search is
   interrupted within a bounded amount of work. Exceeding either raises
   {!Timeout} with the solver backtracked to decision level 0: learnt
   clauses, activities and phases survive, so the solver remains fully
   reusable — a preempted request costs nothing but its own time. *)
type budget = {
  b_conflicts : int option;
  b_stop : (unit -> bool) option;
}

(* Conflicts between two [b_stop] polls. Small enough that a deadline
   overrun is noticed promptly, large enough that polling (a closure
   call, possibly a clock read) stays off the hot path. *)
let stop_poll_interval = 32

(* Raised by [solve] when the active budget is exhausted. The solver is
   left at decision level 0 and remains usable. *)
exception Timeout

(* Portfolio mode: [solve] races [pf_n] diversified configurations
   (restart mode, polarity/phase policy, seed, inprocessing budget) on
   clones of the same solver state, exchanging low-LBD learnt clauses
   through a bounded lock-free ring. The first verdict wins and the
   winner's proof stream is merged into the primary's certificate.

   [pf_first_model] selects the model-election rule:
   - [false] (the byte-identity rule used by [Logic]): only the primary
     solver — rank 0, the caller's own solver object, which imports no
     foreign clauses — may report SAT, so the model (and every
     downstream tie-break) is byte-identical to a single-solver run.
     Racers contribute UNSAT verdicts only.
   - [true] (DIMACS/bench rule): the first verdict of either sign wins
     and a winning racer's model is copied into the primary. The
     verdict is still deterministic; the particular model is not
     promised to match a single-solver run.

   [pf_exchange] gates learnt-clause exchange (on by default; off is
   useful for measuring the channel's contribution). *)
type portfolio = {
  pf_n : int;
  pf_first_model : bool;
  pf_exchange : bool;
}

let portfolio ?(first_model = false) ?(exchange = true) n =
  { pf_n = n; pf_first_model = first_model; pf_exchange = exchange }

(* DRUP-style proof steps. [P_input]/[P_pb_input] record the trusted
   problem; [P_pb_lemma (i, c)] claims clause [c] is implied by the
   [i]-th PB input alone; [P_derived c] claims [c] follows from the
   database by reverse unit propagation; [P_delete c] retires a learnt
   clause (the checker drops it, keeping later RUP checks honest
   against the solver's actual database). An UNSAT run ends with
   [P_derived []]. *)
type proof_step =
  | P_input of lit list
  | P_pb_input of (int * lit) list * int
  | P_pb_lemma of int * lit list
  | P_derived of lit list
  | P_delete of lit list

module type S = sig
  type t

  val create : unit -> t

  val new_var : t -> int

  val nvars : t -> int

  val pos : int -> lit

  val neg : int -> lit

  val lit_not : lit -> lit

  val lit_var : lit -> int

  val lit_sign : lit -> bool

  val enable_proof : t -> unit

  val proof : t -> proof_step list option

  val add_clause : t -> lit list -> unit

  val add_pb_le : t -> (int * lit) list -> int -> unit

  val set_budget : t -> budget option -> unit

  val set_portfolio : t -> portfolio option -> unit
  (** Race [pf_n] diversified clones on subsequent [solve] calls. A
      solver without portfolio support (e.g. [Sat_baseline]) stores the
      request and solves single-threaded — verdicts are unaffected, so
      this is a documented no-op there. *)

  val solve : ?assumptions:lit list -> t -> bool

  val value : t -> int -> bool

  val lit_value_in_model : t -> lit -> bool

  val set_obs : t -> Obs.ctx -> unit

  val stats : t -> (string * int) list

  val stats_delta : before:(string * int) list -> t -> (string * int) list
end
