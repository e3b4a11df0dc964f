"""Unit tests for the shared clique-evaluation helpers."""

from __future__ import annotations


from repro.baselines import dijkstra_distances
from repro.core import clique_eval
from repro.core.clique_eval import (
    body_solutions,
    evaluate_rule_once,
    extrema_filter,
    saturate,
)
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.seminaive import SeminaiveEngine
from repro.programs import texts
from repro.programs._run import symmetric_edges
from repro.storage.database import Database
from repro.workloads.graphs import random_connected_graph


def _db(**relations):
    db = Database()
    for name, facts in relations.items():
        db.assert_all(name, facts)
    return db


class TestExtremaFilter:
    def _solutions(self, rule, db):
        return body_solutions(rule, db)

    def test_global_least(self):
        rule = parse_rule("pick(X, C) <- p(X, C), least(C).")
        db = _db(p=[("a", 3), ("b", 1), ("c", 2)])
        survivors = extrema_filter(self._solutions(rule, db), rule.extrema_goals)
        assert [s["X"] for s in survivors] == ["b"]

    def test_grouped_least_keeps_one_per_group(self):
        rule = parse_rule("pick(X, G, C) <- p(X, G, C), least(C, G).")
        db = _db(p=[("a", "g1", 3), ("b", "g1", 1), ("c", "g2", 2)])
        survivors = extrema_filter(self._solutions(rule, db), rule.extrema_goals)
        assert {s["X"] for s in survivors} == {"b", "c"}

    def test_ties_survive_together(self):
        rule = parse_rule("pick(X, C) <- p(X, C), least(C).")
        db = _db(p=[("a", 1), ("b", 1), ("c", 2)])
        survivors = extrema_filter(self._solutions(rule, db), rule.extrema_goals)
        assert {s["X"] for s in survivors} == {"a", "b"}

    def test_most(self):
        rule = parse_rule("pick(X, C) <- p(X, C), most(C).")
        db = _db(p=[("a", 3), ("b", 9)])
        survivors = extrema_filter(self._solutions(rule, db), rule.extrema_goals)
        assert [s["X"] for s in survivors] == ["b"]

    def test_sequential_extrema(self):
        """Two goals apply in order: max profit, then max slot among the
        max-profit candidates (the job-sequencing device)."""
        rule = parse_rule("pick(X, P, S) <- p(X, P, S), most(P), most(S).")
        db = _db(p=[("a", 9, 1), ("b", 9, 3), ("c", 5, 9)])
        survivors = extrema_filter(self._solutions(rule, db), rule.extrema_goals)
        assert [s["X"] for s in survivors] == ["b"]

    def test_empty_solutions(self):
        rule = parse_rule("pick(X, C) <- p(X, C), least(C).")
        assert extrema_filter([], rule.extrema_goals) == []


class TestEvaluateRuleOnce:
    def test_returns_only_new_facts(self):
        rule = parse_rule("q(X) <- p(X).")
        db = _db(p=[("a",), ("b",)])
        db.assert_fact("q", ("a",))
        new = evaluate_rule_once(rule, db)
        assert new == [("b",)]

    def test_initial_bindings_parameterise(self):
        rule = parse_rule("view(X, I) <- p(X, J), J <= I, most(J, (X, I)).")
        db = _db(p=[("a", 1), ("a", 3), ("a", 5)])
        new = evaluate_rule_once(rule, db, initial={"I": 4})
        assert new == [("a", 4)]


class TestSaturate:
    TC = parse_program(
        "path(X, Y) <- edge(X, Y). path(X, Y) <- path(X, Z), edge(Z, Y)."
    )

    def test_full_saturation(self):
        db = _db(edge=[(1, 2), (2, 3)])
        produced = saturate(self.TC.proper_rules(), {("path", 2)}, db)
        assert set(produced[("path", 2)]) == {(1, 2), (2, 3), (1, 3)}

    def test_seeded_saturation_only_extends(self):
        db = _db(edge=[(1, 2), (2, 3)])
        saturate(self.TC.proper_rules(), {("path", 2)}, db)
        # A new edge arrives; drive only its consequences.
        db.assert_fact("edge", (3, 4))
        produced = saturate(
            self.TC.proper_rules(),
            {("path", 2), ("edge", 2)},
            db,
            seed_deltas={("edge", 2): [(3, 4)]},
        )
        assert set(produced.get(("path", 2), [])) == {(3, 4), (2, 4), (1, 4)}

    def test_empty_seed_is_noop(self):
        db = _db(edge=[(1, 2)])
        produced = saturate(
            self.TC.proper_rules(), {("path", 2)}, db, seed_deltas={}
        )
        assert produced == {}


class TestPushdownContract:
    """Under a ``BestTable`` the kernel drops dominated inserts, and a fact
    a better insert displaces leaves the relation and the pending delta
    at once: it never drives a round (it would extend a dominated chain
    and inflate the fixpoint, while the model stays right)."""

    def test_displaced_facts_never_reach_a_delta_relation(self, monkeypatch):
        nodes, edges = random_connected_graph(60, 120, seed=7)
        db = _db(g=symmetric_edges(edges), source=[(nodes[0],)])
        stale = []
        handed = 0
        as_relation = clique_eval._as_relation

        def spy(key, facts):
            nonlocal handed
            relation = db.relation(key[0], key[1])
            stale.extend(fact for fact in facts if fact not in relation)
            handed += len(facts)
            return as_relation(key, facts)

        monkeypatch.setattr(clique_eval, "_as_relation", spy)
        engine = SeminaiveEngine(parse_program(texts.SHORTEST_PATH), extrema="pushdown")
        engine.run(db)
        assert engine.stats.facts_pruned_extrema > 0
        assert handed > 0, "no delta round ran — the check is vacuous"
        assert stale == []
        assert dict(db.facts("dist", 2)) == dijkstra_distances(edges, nodes[0])
