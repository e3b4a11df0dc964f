"""Extrema pushdown: premappability analysis, the best-value lattice, and
the policy equivalence pushdown == post on every engine.

The optimisation (docs/api.md, "Extrema pushdown") follows the
premappability line of Zaniolo et al. (see PAPERS.md): when a recursive
clique's ``least``/``most`` goal satisfies the monotone-cost-flow
conditions, the extremum commutes with the fixpoint and dominated facts
can be pruned the moment a better one appears.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import ENGINES, solve_program
from repro.core.extrema_lattice import BestTable, PremapSpec, dominated_facts
from repro.core.rewriting import premappable_extrema
from repro.datalog.parser import parse_program
from repro.datalog.plans import EXTREMA_POLICIES
from repro.datalog.seminaive import SeminaiveEngine
from repro.errors import EvaluationError, StratificationError
from repro.obs.tracer import Tracer
from repro.programs import (
    bottleneck_distances,
    shortest_distances,
    texts,
    widest_capacities,
)


def _clique_of(source):
    """The (rules, predicates) pair of the program's recursive clique."""
    from repro.datalog.dependency import DependencyGraph

    program = parse_program(source)
    for group in DependencyGraph(program).evaluation_order():
        for clique in group:
            if clique.is_recursive:
                return clique.rules, clique.predicates
    raise AssertionError("no recursive clique in program")


SHORTEST = """
dist(S, 0) <- source(S).
dist(Y, D) <- dist(X, DX), g(X, Y, C), D = DX + C, least(D, Y).
"""

EDGES = [
    ("a", "b", 1),
    ("a", "c", 4),
    ("b", "c", 1),
    ("b", "d", 5),
    ("c", "d", 2),
    ("a", "d", 9),
]
FACTS = {"g": EDGES, "source": [("a",)]}
SHORTEST_MODEL = [("a", 0), ("b", 1), ("c", 2), ("d", 4)]


class TestPremappability:
    def test_shortest_path_spec(self):
        specs = premappable_extrema(*_clique_of(SHORTEST))
        assert specs is not None
        spec = specs[("dist", 2)]
        assert spec.cost_position == 1
        assert spec.group_positions == (0,)
        assert spec.direction == "least"

    def test_most_with_min_combiner(self):
        specs = premappable_extrema(*_clique_of(texts.WIDEST_PATH))
        assert specs is not None
        assert specs[("wide", 2)].direction == "most"

    def test_tuple_group_covers_two_positions(self):
        specs = premappable_extrema(
            *_clique_of(
                """
                short(X, Y, C) <- g(X, Y, C).
                short(X, Z, C) <- short(X, Y, C1), g(Y, Z, C2),
                                  C = C1 + C2, least(C, (X, Z)).
                """
            )
        )
        assert specs is not None
        assert specs[("short", 3)].group_positions == (0, 1)

    @pytest.mark.parametrize(
        "body",
        [
            # A guard consuming the chained cost breaks premappability:
            # pruning a dominated fact could disable a derivation that
            # only the dominated cost satisfied.
            "dist(X, DX), g(X, Y, C), DX < 10, D = DX + C, least(D, Y)",
            # Non-monotone combiners.
            "dist(X, DX), g(X, Y, C), D = DX * C, least(D, Y)",
            "dist(X, DX), g(X, Y, C), D = C - DX, least(D, Y)",
            # The recursive cost variable may not land in the head group.
            "dist(X, DX), g(X, Y, C), D = DX + C, least(D, DX)",
            # Cost must be a head variable, not an expression input only.
            "dist(X, DX), g(X, Y, C), D = DX + C, least(DX, Y)",
        ],
    )
    def test_rejected_bodies(self, body):
        rules, predicates = _clique_of(
            f"dist(S, 0) <- source(S).\ndist(Y, D) <- {body}."
        )
        assert premappable_extrema(rules, predicates) is None

    def test_shared_cost_variable_between_clique_atoms_rejected(self):
        # Joining two clique atoms on their cost positions makes the cost
        # an equality filter; pruning one side can starve the join.
        rules, predicates = _clique_of(
            """
            p(X, C) <- e(X, C).
            p(Y, D) <- p(X, C), p(Z, C), g(X, Y, W), D = C + W, least(D, Y).
            """
        )
        assert premappable_extrema(rules, predicates) is None

    def test_rule_without_extrema_in_clique_rejected(self):
        rules, predicates = _clique_of(
            """
            dist(S, 0) <- source(S).
            dist(Y, D) <- dist(X, DX), g(X, Y, C), D = DX + C, least(D, Y).
            dist(Y, D) <- dist(X, D), h(X, Y).
            """
        )
        assert premappable_extrema(rules, predicates) is None

    def test_subtraction_monotone_in_left_argument_accepted(self):
        specs = premappable_extrema(
            *_clique_of(
                """
                p(S, 100) <- source(S).
                p(Y, D) <- p(X, DX), g(X, Y, C), D = DX - C, most(D, Y).
                """
            )
        )
        assert specs is not None


class TestBestTable:
    SPEC = PremapSpec(("d", 2), cost_position=1, group_positions=(0,), direction="least")

    def _table(self):
        return BestTable({("d", 2): self.SPEC})

    def test_insert_displace_reject(self):
        table = self._table()
        assert table.observe(("d", 2), ("a", 5)) == (True, [])
        accepted, displaced = table.observe(("d", 2), ("a", 3))
        assert accepted and displaced == [("a", 5)]
        assert table.observe(("d", 2), ("a", 7)) == (False, [])

    def test_ties_kept(self):
        table = self._table()
        table.observe(("d", 2), ("a", 3))
        accepted, displaced = table.observe(("d", 2), ("a", 3))
        assert accepted and displaced == []

    def test_groups_independent(self):
        table = self._table()
        table.observe(("d", 2), ("a", 3))
        assert table.observe(("d", 2), ("b", 9)) == (True, [])
        assert table.best_cost(("d", 2), ("a",)) != table.best_cost(("d", 2), ("b",))

    def test_dominated_facts_matches_table(self):
        facts = [("a", 5), ("a", 3), ("a", 3), ("b", 2)]
        assert dominated_facts(facts, self.SPEC) == [("a", 5)]


class TestPolicyEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("extrema", EXTREMA_POLICIES)
    def test_shortest_path_model(self, engine, extrema):
        db = solve_program(SHORTEST, facts=FACTS, engine=engine, extrema=extrema)
        assert sorted(db.facts("dist", 2)) == SHORTEST_MODEL

    def test_pushdown_prunes_and_traces(self):
        program = parse_program(
            SHORTEST + "".join(f"g({u}, {v}, {c}).\n" for u, v, c in EDGES)
            + "source(a).\n"
        )
        tracer = Tracer(enabled=True)
        engine = SeminaiveEngine(program, tracer=tracer, extrema="pushdown")
        engine.run()
        assert engine.stats.facts_pruned_extrema > 0
        (event,) = tracer.events("extrema-pushdown")
        assert event.attrs["clique"] == "clique [dist/2]"
        assert event.attrs["policy"] == "pushdown"
        assert event.attrs["predicates"] == ["dist/2"]
        assert event.attrs["pruned"] == engine.stats.facts_pruned_extrema

    def test_pushdown_terminates_on_cyclic_sum_graph(self):
        # A cost-positive cycle has an infinite un-pruned fixpoint; the
        # pushdown policy converges because every group's best can only
        # improve finitely often.
        cyclic = {"g": EDGES + [("d", "a", 1)], "source": [("a",)]}
        db = solve_program(SHORTEST, facts=cyclic, engine="seminaive")
        assert sorted(db.facts("dist", 2)) == SHORTEST_MODEL

    def test_non_recursive_extrema_now_supported_by_plain_engines(self):
        # The naive/seminaive constructors previously refused every
        # least/most; stratified (non-recursive) extrema evaluate there
        # now, matching the stage engines.
        facts = {"takes": [("ann", "db", 3), ("bob", "db", 2), ("cal", "os", 2)]}
        expected = sorted(
            solve_program(texts.BOTTOM_STUDENTS, facts=facts, engine="rql").facts(
                "bttm_st", 3
            )
        )
        for engine in ("naive", "seminaive"):
            db = solve_program(texts.BOTTOM_STUDENTS, facts=facts, engine=engine)
            assert sorted(db.facts("bttm_st", 3)) == expected

    def test_choice_still_refused_by_plain_engines(self):
        with pytest.raises(EvaluationError):
            SeminaiveEngine(parse_program("p(X) <- q(X), choice((), X)."))

    def test_unknown_policy_rejected(self):
        with pytest.raises(EvaluationError):
            solve_program(SHORTEST, facts=FACTS, extrema="sideways")

    def test_non_premappable_raises_under_both_policies(self):
        source = """
        p(X, C) <- e(X, C).
        p(Y, D) <- p(X, DX), g(X, Y, C), D = DX * C, least(D, Y).
        """
        for extrema in EXTREMA_POLICIES:
            with pytest.raises(StratificationError):
                solve_program(
                    source,
                    facts={"e": [("a", 2)], "g": [("a", "b", 3)]},
                    engine="seminaive",
                    extrema=extrema,
                )


class TestWrappers:
    def test_shortest_distances(self):
        assert shortest_distances(EDGES, "a", directed=True) == dict(SHORTEST_MODEL)

    def test_bottleneck_distances(self):
        got = bottleneck_distances(EDGES, "a", directed=True)
        assert got == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_widest_capacities(self):
        got = widest_capacities(EDGES, "a", directed=True)
        # cap0 = max edge + 1 = 10 at the source; d's widest route is the
        # direct a -> d arc of capacity 9.
        assert got == {"a": 10, "b": 1, "c": 4, "d": 9}

    def test_wrappers_policy_invariant(self):
        for extrema in EXTREMA_POLICIES:
            assert shortest_distances(
                EDGES, "a", directed=True, extrema=extrema
            ) == dict(SHORTEST_MODEL)
