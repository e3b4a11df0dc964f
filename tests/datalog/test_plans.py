"""Golden-plan tests for the compilation layer.

These pin the planner's join orders for the tricky cases — unbound
arithmetic assignments, negated conjunctions with local existentials,
delta-first specialization — so a planner regression fails loudly, and
cross-check the compiled executor against the legacy tuple-at-a-time
solver.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datalog.atoms import NegatedConjunction, Negation
from repro.datalog.evaluation import plan_body, rule_consequences, solve
from repro.datalog.naive import NaiveEngine
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plans import (
    PlanCache,
    compile_rule,
    register_plan_indices,
    run_plan,
)
from repro.datalog.seminaive import SeminaiveEngine
from repro.errors import EvaluationError
from repro.storage.database import Database
from repro.storage.relation import Relation


def _db(**relations):
    db = Database()
    for name, facts in relations.items():
        db.assert_all(name, facts)
    return db


def _order(plan):
    return [str(step.literal) for step in plan.steps]


def _multiset(substs):
    return Counter(tuple(sorted(s.items(), key=repr)) for s in substs)


class TestGoldenPlans:
    def test_unbound_arithmetic_assignment_waits_for_inputs(self):
        # K = J + 1 can only run once r(J) has bound J, even though the
        # assignment appears first in the body.
        rule = parse_rule("a(X, K) <- K = J + 1, b(X), c(X, J).")
        plan = compile_rule(rule).plan
        assert _order(plan) == ["b(X)", "c(X, J)", "K = (J + 1)"]
        # And the split is pinned: c joins on its bound first column.
        c_step = plan.steps[1]
        assert c_step.positions == (0,)
        assert [pos for pos, _ in c_step.free_slots] == [1]

    def test_negated_conjunction_with_local_existential(self):
        # Y and D are local to the conjunction; it must wait for the
        # shared C, and its inner plan is compiled exactly once.
        rule = parse_rule("p(X) <- q(X, C), not (q(Y, D), D < C).")
        plan = compile_rule(rule).plan
        assert _order(plan) == ["q(X, C)", "not (q(Y, D), D < C)"]
        conj = plan.steps[1]
        assert isinstance(conj.literal, NegatedConjunction)
        assert conj.inner is not None
        # Inner golden order: the existential scan, then the filter.
        assert _order(conj.inner) == ["q(Y, D)", "D < C"]
        assert conj.inner.initially_bound == frozenset({"X", "C"})
        # The inner scan is fully free (Y, D are existential).
        assert conj.inner.steps[0].positions == ()

    def test_delta_first_specialization(self):
        # The generic bound-first plan starts from q and buries the
        # recursive occurrence last; the delta plan must lead with it.
        rule = parse_rule("p(X, Z) <- q(X), b(X, Y), p(Y, Z).")
        compiled = compile_rule(rule, delta_indices=[2])
        assert _order(compiled.plan) == ["q(X)", "b(X, Y)", "p(Y, Z)"]
        delta = compiled.for_delta(2)
        assert _order(delta) == ["p(Y, Z)", "b(X, Y)", "q(X)"]
        assert delta.steps[0].is_delta
        assert not any(step.is_delta for step in delta.steps[1:])
        # The rest is planned against the delta bindings: b joins on its
        # second column (Y), q on its only column (X).
        assert delta.steps[1].positions == (1,)
        assert delta.steps[2].positions == (0,)

    def test_delta_index_must_name_a_positive_goal(self):
        rule = parse_rule("p(X) <- q(X), X < 3.")
        with pytest.raises(EvaluationError):
            compile_rule(rule, delta_indices=[1])

    def test_initially_bound_tightens_the_split(self):
        rule = parse_rule("p(X, Y) <- e(X, Y).")
        free = compile_rule(rule).plan
        assert free.steps[0].positions == ()
        bound = compile_rule(rule, initially_bound=frozenset({"X"})).plan
        assert bound.steps[0].positions == (0,)

    def test_negation_split_treats_wildcards_as_free(self):
        rule = parse_rule("p(X) <- q(X), not r(X, _).")
        plan = compile_rule(rule).plan
        neg = plan.steps[1]
        assert isinstance(neg.literal, Negation)
        assert neg.positions == (0,)
        assert [pos for pos, _ in neg.free_slots] == [1]


#: Mixed kinds, bools, floats (NaN included), None and tuples: compiled
#: comparisons must follow the total order on them, not Python's.
MIXED = [0, 1, 2, True, False, 1.0, 2.5, float("nan"), None, "a", "b", ("t", 1), ("t", "a")]


class TestCompiledExecution:
    #: ``(rule, extra facts)``: each rule runs over the shared facts below
    #: plus its extra ones.
    PARITY_RULES = [
        ("p(X, Z) <- q(X, Y), r(Y, Z).", {}),
        ("p(X) <- q(X), not bad(X).", {"q": [("a",), ("b",)]}),
        ("p(X) <- q(X, C), not (q(Y, D), D < C).", {}),
        ("p(X, K) <- q(X, J), K = J * 2, K > 3.", {}),
        ("child(X) <- h(t(X, _)).", {}),
        ("p(X) <- q(X, X).", {"q": [("d", "d"), (7, 7), (8, 8.0)]}),
        ("p(Y) <- q(a, Y).", {"q": [("a", 9), ("ab", 3)]}),
        ("p(A, B) <- h(T), T = t(A, B).", {"h": [(("t", 1, ("t", 2, 3)),), (("t", 4),)]}),
        ("p(X) <- h((X, _)).", {"h": [(("e", "f"),), (("g",),), ((1, ("e", "f")),)]}),
        ("p(X, Y) <- q(X, _), h(t(X, Y)).", {"h": [(("t", "c", 6),), (("t", "z", 7),)]}),
        (
            "p(X, C) <- q(X, C), C < X.",
            {
                "q": [
                    (3, 1), (1, 3), ("z", "y"), ("y", "z"), (2, "w"), (("t", 1), 5),
                    (True, 0), (2.5, 2), (2, 2.5), (None, 0), (0, None), ("k", ("t", 1)),
                ]
            },
        ),
        ("p(X, Y) <- v(X), w(Y), X = Y.", {"v": [(x,) for x in MIXED], "w": [(y,) for y in MIXED]}),
        ("p(X, Y) <- v(X), w(Y), X != Y.", {"v": [(x,) for x in MIXED], "w": [(y,) for y in MIXED]}),
        ("p(X) <- q(X, _), not q(_, X).", {"q": [("d", "a"), ("e", "e")]}),
        (
            "p(X) <- q(X, C), not (h(t(X, D)), D < C).",
            {"h": [(("t", "b", 1),), (("t", "c", 9),), (("t", "c", "x"),)]},
        ),
    ]

    @staticmethod
    def _parity_db(extra):
        db = _db(
            q=[("a", 1), ("b", 2), ("c", 5)],
            r=[(1, "u"), (2, "v")],
            bad=[("b",)],
            h=[(("t", "a", "b"),), (("u", "c", "d"),)],
        )
        for name, facts in extra.items():
            db.assert_all(name, facts)
        return db

    @pytest.mark.parametrize(
        "source,extra", PARITY_RULES, ids=[r for r, _ in PARITY_RULES]
    )
    def test_matches_legacy_solver(self, source, extra):
        rule = parse_rule(source)
        db = self._parity_db(extra)
        legacy = Counter(rule_consequences(rule, db))
        assert legacy, "the reference derives nothing — the case is vacuous"
        pairs = [(literal, index) for index, literal in enumerate(rule.body)]
        reference = _multiset(solve(plan_body(pairs), db, {}))
        for order in ("greedy", "written"):
            plan = compile_rule(rule, order=order, db=db).plan
            assert Counter(plan.consequences(db)) == legacy, order
            assert _multiset(run_plan(plan, db)) == reference, order

    def test_arithmetic_error_matches_legacy_solver(self):
        rule = parse_rule("p(K) <- q(X, J), K = X + J.")
        db = _db(q=[("a", 1)])
        with pytest.raises(EvaluationError) as legacy:
            list(rule_consequences(rule, db))
        plan = compile_rule(rule).plan
        with pytest.raises(EvaluationError) as facts:
            plan.consequences(db)
        with pytest.raises(EvaluationError) as substs:
            run_plan(plan, db)
        assert str(facts.value) == str(substs.value) == str(legacy.value)

    def test_delta_restriction_matches_legacy(self):
        rule = parse_rule("p(X, Z) <- q(X, Y), q(Y, Z).")
        db = _db(q=[("a", "b"), ("b", "c"), ("c", "d")])
        delta = Relation("Δq", 2)
        delta.add(("b", "c"))
        legacy = set(rule_consequences(rule, db, delta_index=1, delta_relation=delta))
        plan = compile_rule(rule, delta_indices=[1]).for_delta(1)
        assert set(plan.consequences(db, delta_relation=delta)) == legacy == {("a", "c")}

    def test_delta_plan_requires_delta_relation(self):
        rule = parse_rule("p(X, Z) <- q(X, Y), q(Y, Z).")
        plan = compile_rule(rule, delta_indices=[0]).for_delta(0)
        with pytest.raises(EvaluationError):
            list(run_plan(plan, _db(q=[("a", "b")])))

    def test_register_indices_builds_patterns_up_front(self):
        rule = parse_rule("p(X, Z) <- q(X, Y), r(Y, Z).")
        db = _db(q=[("a", 1)], r=[(1, "u")])
        plan = compile_rule(rule).plan
        register_plan_indices(plan, db)
        # The second atom joins on its first column; the index must exist
        # before any lookup ran.
        assert (0,) in db.relation("r", 2)._indexes


class TestPlanCache:
    def test_hits_and_misses_are_counted(self):
        rule = parse_rule("p(X, Z) <- q(X, Y), r(Y, Z).")
        cache = PlanCache(stats=SeminaiveEngine(parse_program("a(1).")).stats)
        first = cache.plan(rule)
        again = cache.plan(rule)
        assert first is again
        delta = cache.plan(rule, delta_index=0)
        assert delta is not first
        assert cache.stats.plans_compiled == 2
        assert cache.stats.plan_cache_hits == 1
        assert len(cache) == 2

    def test_disabled_cache_recompiles_every_call(self):
        rule = parse_rule("p(X) <- q(X).")
        cache = PlanCache(enabled=False)
        assert cache.plan(rule) is not cache.plan(rule)
        assert len(cache) == 0

    def test_meta_goals_are_rejected(self):
        rule = parse_rule("p(X, I) <- next(I), q(X).")
        with pytest.raises(EvaluationError):
            list(PlanCache().consequences(rule, Database()))


class TestEngineStatsContract:
    """`plan_body` runs at most once per (rule, delta occurrence) per
    engine run: `plans_compiled` stays constant while `rule_firings`
    grows with the input across differential rounds."""

    TC = parse_program(
        """
        path(X, Y) <- edge(X, Y).
        path(X, Y) <- path(X, Z), edge(Z, Y).
        """
    )

    def _run(self, engine_cls, n, **kwargs):
        db = Database()
        db.assert_all("edge", [(i, i + 1) for i in range(n)])
        engine = engine_cls(self.TC, **kwargs)
        engine.run(db)
        return engine.stats

    def test_seminaive_compiles_once_per_rule_and_delta_occurrence(self):
        small = self._run(SeminaiveEngine, 8)
        large = self._run(SeminaiveEngine, 32)
        # Two rule bodies plus one delta occurrence of `path`.
        assert small.plans_compiled == large.plans_compiled == 3
        assert large.rule_firings > small.rule_firings
        assert large.iterations > small.iterations
        assert large.plan_cache_hits > small.plan_cache_hits

    def test_naive_compiles_once_per_rule(self):
        small = self._run(NaiveEngine, 8)
        large = self._run(NaiveEngine, 16)
        assert small.plans_compiled == large.plans_compiled == 2
        assert large.rule_firings > small.rule_firings

    def test_uncached_baseline_compiles_per_firing(self):
        stats = self._run(SeminaiveEngine, 8, cache_plans=False)
        assert stats.plans_compiled > 3
        assert stats.plan_cache_hits == 0

    def test_phase_timers_are_populated(self):
        stats = self._run(SeminaiveEngine, 8)
        assert stats.phase_seconds["plan"] >= 0.0
        assert stats.phase_seconds["eval"] > 0.0
