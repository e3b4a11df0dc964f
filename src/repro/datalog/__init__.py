"""A bottom-up Datalog engine with function symbols.

This subpackage is the substrate the paper's constructs are built on:

* :mod:`repro.datalog.terms` / :mod:`repro.datalog.atoms` /
  :mod:`repro.datalog.rules` — the rule AST, including the meta-goals
  ``choice``, ``least``, ``most`` and ``next`` as first-class literals;
* :mod:`repro.datalog.parser` — a text syntax for the dialect;
* :mod:`repro.datalog.unify` — matching of AST terms against ground values
  and grounding, plus their compiled once-per-rule closures;
* :mod:`repro.datalog.builtins` — evaluable comparisons and arithmetic;
* :mod:`repro.datalog.dependency` — dependency graph, recursive cliques
  (SCCs) and the stratified-negation check;
* :mod:`repro.datalog.plans` — rule-body compilation: reusable
  execution plans (with delta-specialized variants) and the plan cache;
  :mod:`repro.datalog.frames` lowers each plan onto a slot frame, the
  closures every run executes;
* :mod:`repro.datalog.naive` / :mod:`repro.datalog.seminaive` — bottom-up
  fixpoint evaluation for (stratified) programs without meta-goals.

Ground values are plain Python objects; a ground compound term
``t(a, b)`` is represented as the nested tuple ``("t", "a", "b")`` and a
bare tuple term ``(a, b)`` as ``("a", "b")``.
"""

from repro.datalog.atoms import (
    Atom,
    ChoiceGoal,
    Comparison,
    LeastGoal,
    Literal,
    MostGoal,
    NegatedConjunction,
    Negation,
    NextGoal,
)
from repro.datalog.explain import Derivation, explain
from repro.datalog.parser import parse_program, parse_query, parse_term
from repro.datalog.plans import (
    CompiledPlan,
    CompiledRule,
    CompiledStep,
    PlanCache,
    compile_plan,
    compile_rule,
    run_plan,
)
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Const, Struct, Term, Var

__all__ = [
    "Atom",
    "ChoiceGoal",
    "Comparison",
    "CompiledPlan",
    "CompiledRule",
    "CompiledStep",
    "Const",
    "Derivation",
    "PlanCache",
    "compile_plan",
    "compile_rule",
    "explain",
    "run_plan",
    "LeastGoal",
    "Literal",
    "MostGoal",
    "NegatedConjunction",
    "Negation",
    "NextGoal",
    "Program",
    "Rule",
    "Struct",
    "Term",
    "Var",
    "parse_program",
    "parse_query",
    "parse_term",
]
