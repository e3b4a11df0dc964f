"""The compiled :class:`ChoiceMemo` against a reference built on
``ground_term`` and ``match_args``.

Every engine shares the memo, so the cross-engine batteries cannot catch
a bug in it: here a seeded random sequence of ``commit``, ``admits`` and
``absorb_head_fact`` calls drives both, over the choice-goal shapes the
program library uses, and then over copies made by ``clone()`` and by a
``load_state(freeze_state(snapshot_state()))`` round trip.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.choice_fixpoint import ChoiceFixpointEngine
from repro.core.engine_base import ChoiceMemo
from repro.core.greedy_engine import GreedyStageEngine
from repro.core.stage_engine import BasicStageEngine
from repro.datalog.parser import parse_program
from repro.datalog.unify import ground_term, match_args
from repro.programs import texts
from repro.programs._run import symmetric_edges
from repro.semantics import choice_models
from repro.storage.database import Database
from repro.workloads import complete_graph, random_takes


class ReferenceMemo:
    """The memo as it read the rule's terms on every call."""

    def __init__(self, rule):
        self.rule = rule
        self.goals = rule.choice_goals
        self.maps = [{} for _ in self.goals]
        self.chosen = set()

    def control_tuple(self, subst):
        values, seen = [], set()
        for goal in self.goals:
            for term in goal.left + goal.right:
                for var in term.variables():
                    if var.name not in seen and not var.name.startswith("_"):
                        seen.add(var.name)
                        values.append(subst[var.name])
        return tuple(values)

    def _sides(self, goal, subst):
        left = tuple(ground_term(term, subst) for term in goal.left)
        right = tuple(ground_term(term, subst) for term in goal.right)
        return left, right

    def admits(self, subst, check_new=True):
        if check_new and self.control_tuple(subst) in self.chosen:
            return False
        for goal, mapping in zip(self.goals, self.maps):
            left, right = self._sides(goal, subst)
            established = mapping.get(left)
            if established is not None and established != right:
                return False
        return True

    def commit(self, subst):
        self.chosen.add(self.control_tuple(subst))
        for goal, mapping in zip(self.goals, self.maps):
            left, right = self._sides(goal, subst)
            mapping[left] = right

    def absorb_head_fact(self, fact):
        subst = match_args(self.rule.head.args, fact, {})
        if subst is None:
            return False
        needed = {
            var.name
            for goal in self.goals
            for term in goal.left + goal.right
            for var in term.variables()
            if not var.name.startswith("_")
        }
        if not needed <= set(subst):
            return False
        self.commit(subst)
        return True

    def state(self):
        return {"maps": self.maps, "chosen": self.chosen}


def _rule(source, pred):
    for rule in parse_program(source).proper_rules():
        if rule.head.pred == pred and rule.choice_goals:
            return rule
    raise AssertionError(f"no choice rule for {pred}")


#: The side shapes of the library: ``choice(Y, X)``, the TSP seed's
#: ``choice((), (X, Y))``, the spanning tree's ``choice(Y, (X, C))``,
#: HUFFMAN's ``choice(X, I), choice(Y, I)`` under the head ``h(t(X, Y), C,
#: I)``, and the two-FD matchings of Example 1 and Example 7; plus a rule
#: whose head leaves a choice variable unbound, so that no head fact is
#: ever absorbed.
RULES = {
    "body_only": _rule("p(X) <- q(X, Y), choice(X, Y).", "p"),
    "prim": _rule(texts.PRIM, "prm"),
    "tsp_seed": _rule(texts.TSP_GREEDY, "tsp_chain"),
    "spanning_tree": _rule(texts.SPANNING_TREE, "st"),
    "huffman": _rule(texts.HUFFMAN, "h"),
    "assignment": _rule(texts.EXAMPLE1_ASSIGNMENT, "a_st"),
    "matching": _rule(texts.MATCHING, "matching"),
}

#: Small pools, so FDs collide often.
_POOL = ["a", "b", "c", 1, 2, ("t", "a", "b")]


def _subst(rule, rng):
    names = {v.name for v in rule.variables() if not v.name.startswith("_")}
    return {name: rng.choice(_POOL) for name in sorted(names)}


def _head_fact(rule, rng):
    """A head fact: mostly one the head matches, sometimes one with a
    plain value where the head has a structure or a constant."""
    subst = _subst(rule, rng)
    fact = tuple(ground_term(arg, subst) for arg in rule.head.args)
    if rng.random() < 0.2:
        position = rng.randrange(len(fact))
        fact = fact[:position] + (rng.choice(_POOL),) + fact[position + 1 :]
    return fact


def _step(memo, ref, rule, rng):
    """One random call on both; the results must agree."""
    roll = rng.random()
    if roll < 0.45:
        subst = _subst(rule, rng)
        check_new = rng.random() < 0.5
        assert memo.admits(subst, check_new) == ref.admits(subst, check_new)
    elif roll < 0.75:
        subst = _subst(rule, rng)
        memo.commit(subst)
        ref.commit(subst)
    else:
        fact = _head_fact(rule, rng)
        assert memo.absorb_head_fact(fact) == ref.absorb_head_fact(fact)


def _canonical(state):
    """Order-free and type-sensitive (``1`` is not ``1.0``)."""
    return (
        [sorted(repr(item) for item in mapping.items()) for mapping in state["maps"]],
        sorted(repr(control) for control in state["chosen"]),
    )


def _assert_same(memo, ref, probes):
    assert _canonical(memo.snapshot_state()) == _canonical(ref.state())
    assert memo.chosen_count == len(ref.chosen)
    for subst in probes:
        assert memo.control_tuple(subst) == ref.control_tuple(subst)
        for check_new in (True, False):
            assert memo.admits(subst, check_new) == ref.admits(subst, check_new)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(RULES))
def test_compiled_memo_decides_like_the_reference(name, seed):
    rule = RULES[name]
    rng = random.Random(seed)
    probes = [_subst(rule, rng) for _ in range(20)]
    memo, ref = ChoiceMemo(rule), ReferenceMemo(rule)
    for _ in range(80):
        _step(memo, ref, rule, rng)
        _assert_same(memo, ref, probes)

    # Copies decide like the original, and each evolves on its own.
    loaded = ChoiceMemo(rule)
    loaded.load_state(ChoiceMemo.freeze_state(memo.snapshot_state()))
    memos = [memo, memo.clone(), loaded]
    refs = [ref, copy.deepcopy(ref), copy.deepcopy(ref)]
    for twin, twin_ref in zip(memos, refs):
        _assert_same(twin, twin_ref, probes)
    for _ in range(120):
        k = rng.randrange(len(memos))
        _step(memos[k], refs[k], rule, rng)
        for twin, twin_ref in zip(memos, refs):
            _assert_same(twin, twin_ref, probes)


def test_a_commit_on_one_copy_never_shows_in_another():
    rule = RULES["prim"]
    memo = ChoiceMemo(rule)
    memo.commit({"X": "a", "Y": "b", "C": 1, "I": 1, "J": 0})
    loaded = ChoiceMemo(rule)
    loaded.load_state(ChoiceMemo.freeze_state(memo.snapshot_state()))
    clone = memo.clone()
    # choice(Y, X): once c enters from a, entering c from b breaks the FD.
    entering = {"X": "a", "Y": "c", "C": 2, "I": 2, "J": 1}
    rival = {"X": "b", "Y": "c", "C": 3, "I": 2, "J": 1}
    clone.commit(entering)
    assert not clone.admits(rival, check_new=False)
    assert memo.admits(rival, check_new=False)
    assert loaded.admits(rival, check_new=False)
    loaded.commit(rival)
    assert memo.admits(entering, check_new=False)
    assert memo.chosen_count == 1


# -- one commit per firing ------------------------------------------------------


@pytest.fixture
def commits(monkeypatch):
    """Records ``(memo, control tuple)`` for every ``ChoiceMemo.commit``."""
    calls = []
    commit = ChoiceMemo.commit

    def counting(memo, subst):
        calls.append((id(memo), memo.control_tuple(subst)))
        commit(memo, subst)

    monkeypatch.setattr(ChoiceMemo, "commit", counting)
    return calls


def _run(engine_class, text, facts):
    engine = engine_class(parse_program(text), rng=random.Random(5))
    db = Database()
    for name, rows in facts.items():
        db.assert_all(name, rows)
    engine.run(db)
    return engine


def test_a_choice_firing_commits_its_fds_once(commits):
    # The solve_suite shape of Example 1: 40 students, 40 courses, 4 each.
    takes = sorted({(s, c) for s, c, _ in random_takes(40, 40, 4, seed=5000)})
    engine = _run(ChoiceFixpointEngine, texts.EXAMPLE1_ASSIGNMENT, {"takes": takes})
    assert engine.stats.gamma_firings > 1
    assert len(commits) == engine.stats.gamma_firings


@pytest.mark.parametrize("engine_class", [BasicStageEngine, GreedyStageEngine])
def test_a_stage_firing_commits_its_fds_once(commits, engine_class):
    # TSP_GREEDY fires its stage-less exit choice rule, then next rules.
    # The exit fact also reaches the sibling next rule's memo, so the
    # check is that no memo commits one control tuple twice.
    _, edges = complete_graph(7, seed=5)
    engine = _run(engine_class, texts.TSP_GREEDY, {"g": symmetric_edges(edges)})
    assert engine.stats.gamma_firings == 6  # n - 1 arcs
    assert len(commits) == len(set(commits)) == engine.stats.gamma_firings + 1


def test_an_enumerator_firing_commits_its_fds_once(commits, monkeypatch):
    fired = []
    fire = choice_models._Enumerator._fire

    def counting(self, rule, subst, state, db):
        fired.append(rule)
        fire(self, rule, subst, state, db)

    monkeypatch.setattr(choice_models._Enumerator, "_fire", counting)
    takes = [("andy", "engl"), ("mark", "engl"), ("mark", "math"), ("ann", "math")]
    models = choice_models.enumerate_choice_models(
        texts.EXAMPLE1_ASSIGNMENT, {"takes": takes}
    )
    assert len(models) > 1
    assert len(commits) == len(fired)
