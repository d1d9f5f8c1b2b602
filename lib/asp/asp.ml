(** Answer Set Programming engine (clingo-lite).

    The feature subset Spack's concretizer relies on: function terms,
    negation as failure, choice rules with cardinality bounds,
    integrity constraints, comparisons, and multi-level [#minimize].

    Pipeline: {!Parser} (text) → {!Ast} → {!Ground} (instantiation) →
    {!Logic} (stable-model search on the {!Sat} CDCL core).

    Quick use:
    {[
      match Asp.solve_text "a :- not b. b :- not a. :- a." with
      | Asp.Logic.Sat m -> List.iter ... m.Asp.Logic.atoms
      | Asp.Logic.Unsat _ -> ...
    ]} *)

module Term = Term
module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Ground = Ground
module Sat = Sat
module Logic = Logic

let parse = Parser.parse_program

(** Parse, ground, and solve a program given as text, with extra ground
    facts appended programmatically (the concretizer compiles specs and
    packages to [Ast.statement] facts and joins them with the logic
    program text). *)
let solve_text ?(facts = []) ?(certify = false) text =
  let prog = parse text @ facts in
  Logic.solve ~certify (Ground.ground prog)
