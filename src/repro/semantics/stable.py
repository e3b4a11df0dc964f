"""Stable-model checking via the Gelfond–Lifschitz transform.

Given a candidate model ``M`` of a (rewritten) negative program ``P``,
the GL transform deletes every rule whose negative goals are falsified by
``M`` and strips the surviving negative goals; ``M`` is *stable* iff it
is the least model of the resulting positive program.

Operationally we never ground the program: the least model of the reduct
is computed by a fixpoint where positive goals read from the growing set
``T`` and negative goals (and negated conjunctions) are evaluated against
the fixed candidate ``M`` — the ``neg_db`` mode of
:meth:`repro.datalog.plans.PlanCache.consequences`.  ``T`` converges to
the least model of the reduct; stability is ``T == M``.

:func:`verify_engine_output` packages the full Theorem 1 check: rewrite
the original program (next → choice → extrema), complete the engine's
output with the ``chosen$i``/``diffChoice$i`` predicates, and run the GL
test.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.core.rewriting import (
    CHOSEN_PREFIX,
    DIFFCHOICE_PREFIX,
    rewrite_program,
)
from repro.datalog.plans import PlanCache
from repro.datalog.program import Program
from repro.storage.database import Database

__all__ = ["least_model", "is_stable_model", "complete_model", "verify_engine_output"]

PredicateKey = Tuple[str, int]


def least_model(program: Program, edb: Database, neg_db: Database | None = None) -> Database:
    """Least fixpoint of *program* over *edb*, with negated goals read
    from *neg_db* (the GL-reduct evaluation when *neg_db* is the candidate
    model).

    *edb* is copied; the input is not mutated.
    """
    db = edb.copy()
    for name, facts in program.ground_facts().items():
        db.assert_all(name, facts)
    rules = program.proper_rules()
    plans = PlanCache()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            relation = db.relation(rule.head.pred, rule.head.arity)
            for fact in plans.consequences(rule, db, neg_db=neg_db):
                if relation.add(fact):
                    changed = True
    return db


def is_stable_model(program: Program, model: Database) -> bool:
    """Whether *model* is a stable model of the meta-goal-free *program*.

    The extensional part of *model* (predicates never defined by a rule or
    fact of *program*) is taken as given; everything else must be exactly
    reproduced by the least model of the GL reduct.

    The reduct of a *wrong* candidate can be infinite (``next``-expanded
    programs increment stages forever once the memoized blocks are gone),
    so the fixpoint aborts as soon as it derives a fact outside *model* —
    at that point instability is already decided.
    """
    defined: Set[PredicateKey] = {rule.head.key for rule in program.rules}
    db = Database()
    for key in model.predicates():
        if key not in defined:
            rel = db.relation(*key)
            for fact in model.facts(*key):
                rel.add(fact)
    for name, facts in program.ground_facts().items():
        for fact in facts:
            if fact not in model.relation(name, len(fact)):
                return False
        db.assert_all(name, facts)
    rules = program.proper_rules()
    plans = PlanCache()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            relation = db.relation(rule.head.pred, rule.head.arity)
            model_relation = model.relation(rule.head.pred, rule.head.arity)
            for fact in plans.consequences(rule, db, neg_db=model):
                if fact not in model_relation:
                    return False
                if relation.add(fact):
                    changed = True
    return db == model


def complete_model(program: Program, db: Database) -> Tuple[Program, Database]:
    """Rewrite *program* and complete the engine output *db* with the
    auxiliary ``chosen$i`` / ``diffChoice$i`` facts.

    The rewriting includes the predicate-wide-FD completion rules
    ``chosen$i(V) <- head``, so every chosen fact is recoverable from the
    head facts the engine materialised; the ``diffChoice$i`` facts then
    follow from the chosen ones by their (positive-bodied) defining rules.

    Returns:
        ``(rewritten_program, completed_model)`` — the input database is
        not mutated.
    """
    rewritten = rewrite_program(program)
    model = db.copy()
    # Stratified completion: first the positive chosen$i <- head completion
    # rules (every chosen fact of an engine run fired the top rule, so it
    # is recoverable from the heads), then the positive diffChoice$i rules.
    # The guarded "chosen$i <- body, not diffChoice$i" rules are *not* used
    # here — they are what the GL check exercises.
    chosen_completions = [
        rule
        for rule in rewritten.proper_rules()
        if rule.head.pred.startswith(CHOSEN_PREFIX) and not rule.negative
    ]
    diff_rules = [
        rule
        for rule in rewritten.proper_rules()
        if rule.head.pred.startswith(DIFFCHOICE_PREFIX)
    ]
    plans = PlanCache()
    for group in (chosen_completions, diff_rules):
        changed = True
        while changed:
            changed = False
            for rule in group:
                relation = model.relation(rule.head.pred, rule.head.arity)
                for fact in plans.consequences(rule, model, neg_db=model):
                    if relation.add(fact):
                        changed = True
    return rewritten, model


def verify_engine_output(program: Program, db: Database) -> bool:
    """The mechanised Theorem 1 check: is the engine's output a stable
    model of the rewritten program?

    Example::

        db = solve_program(PRIM, facts=..., seed=0)
        assert verify_engine_output(parse_program(PRIM), db)
    """
    rewritten, model = complete_model(program, db)
    return is_stable_model(rewritten, model)
