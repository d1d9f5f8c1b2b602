(** Independent checker for the SAT core's refutation certificates.

    The solver under test ([Asp.Sat]) emits a step list: inputs
    (trusted), PB-derived lemmas (checked by a weight sum against the
    recorded constraint — no search), derived clauses (checked by
    reverse unit propagation), and deletions ([P_delete], emitted when
    the solver's learnt-DB reduction retires a clause — the checker
    tombstones its copy so its database propagates exactly what the
    solver's still can, in drup-trim style: deletions of clauses it
    never saw are ignored). This module shares no code with the
    solver: it is a minimal two-watched-literal propagator written from
    scratch, so a bug in the solver's propagation or conflict analysis
    cannot also hide here.

    A certificate is accepted iff every step checks {e and} the empty
    clause is established — the UNSAT claim is proved, not just
    plausible. *)

val check : Asp.Sat.proof_step list -> (unit, string) result
