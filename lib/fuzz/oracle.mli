(** Oracle harnesses: everything we can demand of the stack on a
    random universe without trusting the solver.

    - every SAT answer must pass [Core.Verify.check_solution] (an
      independent reimplementation of the semantics);
    - every UNSAT answer must carry a DRUP certificate accepted by the
      independent {!Drup} checker;
    - on small instances, answers are cross-checked against a
      brute-force reference enumerator (completeness, and a self-check
      of the enumerator on SAT answers);
    - [Old] and [Hash_attr] encodings must agree on optimum costs and
      the root DAG hash when splicing is off;
    - metamorphic: adding an irrelevant cached spec must not change
      the solution; a solver-chosen splice of a declared-compatible
      package must install by rewiring and link cleanly under [Abi]. *)

type stats = {
  mutable sat_verified : int;
  mutable unsat_certified : int;
  mutable brute_confirmed : int;
  mutable encodings_agreed : int;
  mutable metamorphic_ok : int;
  mutable splices_linked : int;
}

val fresh_stats : unit -> stats

val add_stats : stats -> stats -> unit
(** [add_stats acc s] accumulates [s] into [acc]. *)

val pp_stats : Format.formatter -> stats -> unit

val check : ?stats:stats -> Gen.t -> string list
(** Run every oracle over one universe; returns violation
    descriptions (empty = all invariants held). Never raises: internal
    exceptions become violations. *)
