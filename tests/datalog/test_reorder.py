"""The greedy join reorderer: invariance, soundness, goldens, indices.

Four angles on ``order="greedy"`` vs ``order="written"``:

* **Property-based invariance** — seeded random rule bodies mixing
  constants, shared variables, comparisons and negation enumerate the
  *identical* solution set under both policies (reordering a conjunction
  is semantics-preserving), including the delta-specialized variants.
  The same bodies check the compiled executor itself: every plan's
  solution and head-fact multisets equal the reference solver's
  (:func:`repro.datalog.evaluation.solve`), delta plans over a random
  delta included.
* **Static-boundness soundness** — every compiled plan, under either
  policy, passes :func:`check_static_boundness`: comparisons are ready
  and negations fully bound at their scheduled positions.
* **Golden plans** — curated multi-join rules compile to a pinned step
  order with pinned bound/free splits, mirroring
  ``tests/datalog/test_plans.py``.
* **Index registration** — :func:`register_plan_indices` registers the
  *reordered* binding patterns (and the delta variants'), so a greedy
  plan's lookups never build an index lazily mid-join.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.evaluation import plan_body, solve
from repro.datalog.parser import parse_program
from repro.datalog.plans import (
    ORDER_POLICIES,
    PlanCache,
    check_static_boundness,
    compile_plan,
    compile_rule,
    describe_plan,
    run_plan,
)
from repro.datalog.unify import ground_term
from repro.storage.database import Database
from repro.storage.relation import Relation


def _body_pairs(rule):
    return [(literal, index) for index, literal in enumerate(rule.body)]


def _order(plan):
    return [str(step.literal) for step in plan.steps]


def _solutions(plan, db, **kwargs):
    return {tuple(sorted(s.items())) for s in run_plan(plan, db, **kwargs)}


# ---------------------------------------------------------------------------
# Property-based invariance + static-boundness soundness.
# ---------------------------------------------------------------------------


def _random_rule_and_db(seed):
    """A seeded random safe rule (constants, shared variables, an optional
    comparison, an optional negation) over a random EDB."""
    rng = random.Random(seed)
    domain = rng.randint(3, 6)
    variables = ["A", "B", "C", "D", "E"]

    goals = []
    used = []
    for _ in range(rng.randint(2, 4)):
        pred = rng.choice(["e", "f"])
        args = []
        for _ in range(2):
            if rng.random() < 0.25:
                args.append(str(rng.randrange(domain)))
            else:
                var = rng.choice(variables)
                args.append(var)
                used.append(var)
        goals.append(f"{pred}({', '.join(args)})")
    if not used:  # all-constant body: add one variable goal for safety
        goals.append("u(A)")
        used.append("A")
    if rng.random() < 0.6:
        op = rng.choice(["<", "<=", "!="])
        left = rng.choice(used)
        right = rng.choice(used + [str(rng.randrange(domain))])
        goals.append(f"{left} {op} {right}")
    if rng.random() < 0.6:
        goals.append(f"not u({rng.choice(used)})")
    if rng.random() < 0.3 and len(used) >= 2:
        inner_a, inner_b = rng.sample(used, 2)
        goals.append(f"not (e({inner_a}, Z), Z != {inner_b})")
    rng.shuffle(goals)

    head_vars = sorted(set(used))
    text = f"h({', '.join(head_vars)}) <- {', '.join(goals)}."
    program = parse_program(text)
    rule = next(iter(program.proper_rules()))

    db = Database()
    db.assert_all(
        "e",
        {(rng.randrange(domain), rng.randrange(domain)) for _ in range(rng.randint(3, 12))},
    )
    db.assert_all(
        "f",
        {(rng.randrange(domain), rng.randrange(domain)) for _ in range(rng.randint(3, 12))},
    )
    db.assert_all("u", {(rng.randrange(domain),) for _ in range(rng.randint(0, 4))})
    return rule, db


@pytest.mark.parametrize("seed", range(75))
def test_greedy_and_written_enumerate_identical_solutions(seed):
    rule, db = _random_rule_and_db(seed)
    pairs = _body_pairs(rule)
    written = compile_plan(pairs, order="written")
    greedy = compile_plan(pairs, order="greedy", db=db)
    assert _solutions(greedy, db) == _solutions(written, db), str(rule)


@pytest.mark.parametrize("seed", range(75))
def test_every_plan_is_statically_bound_sound(seed):
    rule, db = _random_rule_and_db(seed)
    pairs = _body_pairs(rule)
    for order in ("written", "greedy"):
        for hints in (None, db):
            plan = compile_plan(pairs, order=order, db=hints)
            assert check_static_boundness(plan) == [], (str(rule), order)


@pytest.mark.parametrize("seed", range(40))
def test_delta_specialized_plans_agree_and_pin_the_delta(seed):
    """Delta plans keep the delta literal first under both policies and
    enumerate the same solutions when the 'delta' is the full relation."""
    rule, db = _random_rule_and_db(seed)
    pairs = _body_pairs(rule)
    atom_indices = [
        index
        for literal, index in pairs
        if type(literal).__name__ == "Atom"
    ]
    delta_index = random.Random(seed ^ 0xD317A).choice(atom_indices)
    delta_atom = rule.body[delta_index]
    delta_relation = db.relation(delta_atom.pred, delta_atom.arity)

    written = compile_plan(pairs, delta_index=delta_index, order="written")
    greedy = compile_plan(pairs, delta_index=delta_index, order="greedy", db=db)
    for plan in (written, greedy):
        assert plan.steps[0].original_index == delta_index
        assert plan.steps[0].is_delta
        assert check_static_boundness(plan) == []
    assert _solutions(
        greedy, db, delta_relation=delta_relation
    ) == _solutions(written, db, delta_relation=delta_relation), str(rule)


def _multiset(substs):
    return Counter(tuple(sorted(s.items())) for s in substs)


@pytest.mark.parametrize("seed", range(75))
def test_compiled_plans_match_the_reference_solver(seed):
    """Every engine runs the compiled executor, the naive oracle included,
    so only the reference solver can catch an executor bug.  The greedy,
    written and delta plans of a random body must enumerate the reference's
    solution multiset and head-fact multiset; each delta plan reads a
    random subset of its predicate's facts as the delta."""
    rule, db = _random_rule_and_db(seed)
    pairs = _body_pairs(rule)
    written_order = plan_body(pairs)
    head = rule.head.args

    def heads(substs):
        return Counter(tuple(ground_term(arg, s) for arg in head) for s in substs)

    reference = list(solve(written_order, db, {}))
    for order in ORDER_POLICIES:
        plan = compile_plan(pairs, head_args=head, order=order, db=db)
        assert _multiset(run_plan(plan, db)) == _multiset(reference), (str(rule), order)
        assert Counter(plan.consequences(db)) == heads(reference), (str(rule), order)

    rng = random.Random(seed ^ 0xDE17A)
    for literal, index in pairs:
        if not isinstance(literal, Atom):
            continue
        delta = Relation(f"Δ{literal.pred}", literal.arity)
        for fact in sorted(db.facts(literal.pred, literal.arity)):
            if rng.random() < 0.5:
                delta.add(fact)
        expected = list(
            solve(written_order, db, {}, delta_index=index, delta_relation=delta)
        )
        for order in ORDER_POLICIES:
            plan = compile_plan(
                pairs, delta_index=index, head_args=head, order=order, db=db
            )
            got = run_plan(plan, db, delta_relation=delta)
            assert _multiset(got) == _multiset(expected), (str(rule), index, order)
            facts = plan.consequences(db, delta_relation=delta)
            assert Counter(facts) == heads(expected), (str(rule), index, order)


# ---------------------------------------------------------------------------
# Golden plans for curated multi-join rules.
# ---------------------------------------------------------------------------

GOLDEN = parse_program(
    """
    jq1(A, E) <- r1(A, B), r2(B, C), r3(C, D), sel(D, E).
    jq3(A, C) <- r2(B, C), r1(A, B), r3(C, 7).
    """
)


def _golden_db(n=16):
    db = Database()
    db.assert_all("r1", [(i, (i * 7) % n) for i in range(n)])
    db.assert_all("r2", [(i, (i * 11 + j) % n) for i in range(n) for j in range(4)])
    db.assert_all("r3", [(i, (i * 13) % n) for i in range(n)])
    db.assert_all("sel", [(i, i) for i in range(3)])
    return db


class TestGoldenReorderedPlans:
    def test_chain_with_selective_tail_runs_backward(self):
        """sel (3 facts) leads, then the chain unwinds through indexed
        lookups — each later step keyed on its second argument."""
        rule = next(iter(GOLDEN.rules_for(("jq1", 2))))
        plan = compile_rule(rule, order="greedy", db=_golden_db()).plan
        assert plan.reordered
        assert _order(plan) == ["sel(D, E)", "r3(C, D)", "r2(B, C)", "r1(A, B)"]
        assert [step.positions for step in plan.steps] == [(), (1,), (1,), (1,)]

    def test_constant_pattern_beats_size(self):
        """r3(C, 7) carries a constant — scheduled first even though sel
        is absent here and r3 is not the smallest relation."""
        rule = next(iter(GOLDEN.rules_for(("jq3", 2))))
        plan = compile_rule(rule, order="greedy", db=_golden_db()).plan
        assert plan.reordered
        assert _order(plan) == ["r3(C, 7)", "r2(B, C)", "r1(A, B)"]
        assert [step.positions for step in plan.steps] == [(1,), (1,), (1,)]

    def test_written_policy_keeps_the_written_order(self):
        rule = next(iter(GOLDEN.rules_for(("jq1", 2))))
        plan = compile_rule(rule, order="written", db=_golden_db()).plan
        assert not plan.reordered
        assert plan.decisions == ()
        assert _order(plan) == ["r1(A, B)", "r2(B, C)", "r3(C, D)", "sel(D, E)"]
        assert [step.positions for step in plan.steps] == [(), (0,), (0,), (0,)]

    def test_empty_relation_schedules_first_as_early_exit(self):
        db = _golden_db()
        db.relation("ghost", 2)  # present but empty
        rule = next(
            iter(
                parse_program(
                    "q(A, C) <- r1(A, B), ghost(B, C)."
                ).proper_rules()
            )
        )
        plan = compile_rule(rule, order="greedy", db=db).plan
        assert _order(plan)[0] == "ghost(B, C)"
        assert list(plan.consequences(db)) == []

    def test_describe_plan_surfaces_the_decisions(self):
        rule = next(iter(GOLDEN.rules_for(("jq1", 2))))
        plan = compile_rule(rule, order="greedy", db=_golden_db()).plan
        lines = describe_plan(plan)
        assert lines[0] == "order=greedy (reordered)"
        assert lines[1] == "  0: sel(D, E)"
        assert lines[2] == "  1: r3(C, D)  [bound=1]"
        assert any("sel(D, E) of 4 candidates" in line for line in lines)
        assert any("size=3" in line for line in lines)

    def test_without_db_greedy_matches_written_on_unhinted_chain(self):
        """No constants, no hints: the score ties everywhere and greedy
        falls back to the written order — existing plans stay stable."""
        rule = next(iter(GOLDEN.rules_for(("jq1", 2))))
        plan = compile_rule(rule, order="greedy").plan
        assert not plan.reordered
        assert _order(plan) == ["r1(A, B)", "r2(B, C)", "r3(C, D)", "sel(D, E)"]


# ---------------------------------------------------------------------------
# Index registration follows the reordered patterns.
# ---------------------------------------------------------------------------

RECURSIVE = parse_program(
    """
    p(A, E) <- r1(A, B), r2(B, C), r3(C, D), sel(D, E).
    p(A, E) <- p(A, D), r3(D, C), sel(C, E).
    """
)


def _index_snapshot(db, names):
    return {
        name: set(db.relation(name, 2)._indexes) for name in names
    }


def test_registered_indices_cover_every_greedy_lookup():
    """After register_indices, running every plan (generic and delta)
    builds no further index: each reordered lookup pattern was
    pre-registered, so no join falls back to a lazy index build."""
    db = _golden_db()
    cache = PlanCache(order="greedy")
    rules = list(RECURSIVE.proper_rules())
    for rule in rules:
        cache.plan(rule, db=db)
    # The recursive rule's delta-specialized variant too.
    cache.plan(rules[1], delta_index=0, db=db)
    cache.register_indices(db)

    names = ["r1", "r2", "r3", "sel", "p"]
    before = _index_snapshot(db, names)
    # Every non-leading atom step must have an indexed (non-scan) pattern.
    for rule in rules:
        plan = cache.plan(rule, db=db)
        assert plan.reordered or rule is rules[1]
        for step in plan.steps[1:]:
            assert step.positions, f"unindexed step {step.literal} in {rule}"

    delta_plan = cache.plan(rules[1], delta_index=0, db=db)
    delta_relation = db.relation("p", 2)
    for rule in rules:
        list(cache.plan(rule, db=db).consequences(db))
    list(delta_plan.consequences(db, delta_relation=delta_relation))
    assert _index_snapshot(db, names) == before


def test_seminaive_fixpoint_builds_no_index_after_registration():
    """End to end: the seminaive engine compiles greedy plans against the
    loaded EDB, registers their patterns, and the whole fixpoint runs
    without a single lazy index build — lookups never fall back to a
    mid-join index construction (the proxy for a full scan)."""
    from repro.datalog.seminaive import SeminaiveEngine

    import repro.storage.relation as relation_module

    db = _golden_db()
    engine = SeminaiveEngine(RECURSIVE, order="greedy")

    phase = {"registered": False}
    late_builds = []
    original_build = relation_module.Relation._build_index
    original_register = PlanCache.register_indices

    def spying_register(cache, target):
        original_register(cache, target)
        phase["registered"] = True

    def spying_build(relation, positions):
        if phase["registered"]:
            late_builds.append((relation.name, positions))
        return original_build(relation, positions)

    relation_module.Relation._build_index = spying_build
    PlanCache.register_indices = spying_register
    try:
        engine.run(db)
    finally:
        relation_module.Relation._build_index = original_build
        PlanCache.register_indices = original_register
    assert phase["registered"], "engine never registered its plan indices"
    assert db.facts("p", 2), "fixpoint derived nothing — test is vacuous"
    assert late_builds == [], (
        "greedy plan lookups fell back to lazy index builds: "
        f"{late_builds}"
    )
