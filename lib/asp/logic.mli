(** Stable-model search over a ground program.

    The ground program is translated to SAT: Clark completion for
    derived atoms (choice-rule bodies support their elements without
    forcing them), integrity constraints as clauses, and cardinality
    bounds as pseudo-Boolean constraints. Because completion admits
    self-supporting loops, every candidate model is checked for
    unfounded sets (computing the least model of the reduct); unfounded
    sets are cut with loop clauses and the search resumes — sound and
    complete stable-model semantics without upfront loop enumeration.

    [#minimize] objectives are optimized lexicographically (higher
    priority first) by branch-and-bound descent with activation
    literals.

    The layer is a functor over the CDCL core ({!Solver_intf.S}); the
    toplevel values run on the production glucose-class {!Sat} core,
    while {!Baseline} runs the same translation on {!Sat_baseline}
    (the pre-arena solver) for differential testing and benches. *)

type model = {
  atoms : Ast.atom list;  (** true atoms of the optimal stable model *)
  costs : (int * int) list;  (** (priority, cost), descending priority *)
  sat_stats : (string * int) list;
  stable_checks : int;  (** candidate models subjected to the check *)
  loop_clauses : int;  (** loop clauses added by failed checks *)
}

type outcome = Sat of model | Unsat of Sat.proof_step list option
(** [Unsat p]: no stable model. When the search was run with
    [~certify:true], [p] carries the DRUP-style refutation recorded by
    the SAT core (loop and completion clauses appear as trusted
    inputs); it can be validated independently with [Fuzz.Drup.check].
    [None] when certification was off. The proof-step type is shared
    between both cores through {!Solver_intf}, so certificates from
    either instance check with the same tooling. *)

val hook_skip_unfounded : bool ref
(** Fault injection for the fuzz harness: when [true], the unfounded-set
    check is skipped, so non-stable SAT models are accepted. Always
    reset after use. Shared by all solver instances. *)

(** Operations provided by every solver instantiation. *)
module type S = sig
  val solve :
    ?certify:bool -> ?obs:Obs.ctx -> ?budget:Solver_intf.budget ->
    ?portfolio:int -> Ground.t -> outcome
  (** [?obs] records a translate span, per-SAT-call [sat.solve] spans
      with stats deltas, per-optimization [opt.probe] spans (priority,
      bound, outcome), stable-check counters, and the SAT core's
      per-restart histograms. [?budget] installs a preemption budget on
      the underlying solver ({!Solver_intf.budget}); exhaustion raises
      {!Solver_intf.Timeout}. [?portfolio] (default 1) races that many
      diversified solver clones on the initial stable solve — the phase
      that dominates hard instances — under the byte-identity election
      rule ({!Solver_intf.portfolio}): results, models and costs are
      identical to a single-solver run; only wall time changes. The
      optimization descent itself always runs single, since its learnt
      state seeds later solves. No-op on cores without portfolio
      support (the baseline). *)

  val holds : model -> Ast.atom -> bool

  val enumerate : ?limit:int -> Ground.t -> model list
  (** Enumerate stable models (up to [limit], default 64) by adding
      blocking clauses over full assignments. [#minimize] statements
      are ignored — enumeration explores the unoptimized model space
      (used by tests and the CLI's solver front end). *)
end

module Make (Solver : Solver_intf.S) : S

include S
(** The production instance, over the glucose-class {!Sat} core. *)

module Baseline : S
(** The same stable-model layer over {!Sat_baseline} — the pre-arena,
    Luby-restart MiniSat-style core. Used by [test/test_sat_core.ml]
    as the differential reference and by the [sat-smoke] bench as the
    speedup baseline (reachable through
    [Core.Concretizer.options.baseline_solver]). *)
