"""The batch insert (``Relation.add_batch``, ``Database.assert_all``)
against the fact-at-a-time loop it replaces.

``add_batch`` must leave a relation exactly as a loop of ``add`` does —
the returned new facts and their order, the fact set, every index
(including ones built before the batch) — and must fail the same way,
at the same fact, when a fact in the middle has the wrong arity or the
fault hook fires.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.robust.faults import FaultInjected, FaultInjector, FaultPlan, inject
from repro.storage.database import Database
from repro.storage.relation import Relation

ARITY = 3

facts_of = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=40
)
index_sets = st.lists(
    st.sampled_from([(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]), unique=True, max_size=3
)


def _relation(initial, indexes):
    relation = Relation("r", ARITY)
    for fact in initial:
        relation.add(fact)
    for positions in indexes:
        relation.ensure_index(positions)
    return relation


def _sequential(relation, batch):
    """The reference: a loop of ``add``, collecting the new facts."""
    return [fact for fact in batch if relation.add(fact)]


def _same_state(a, b):
    assert a._facts == b._facts
    assert a._indexes == b._indexes
    assert a.check_invariants() and b.check_invariants()


@given(initial=facts_of, batch=facts_of, indexes=index_sets, later=index_sets)
def test_batch_equals_an_add_loop(initial, batch, indexes, later):
    loop, batched = _relation(initial, indexes), _relation(initial, indexes)
    assert batched.add_batch(batch) == _sequential(loop, batch)
    _same_state(loop, batched)
    # Indexes built after the batch cover its facts too.
    for positions in later:
        loop.ensure_index(positions)
        batched.ensure_index(positions)
    _same_state(loop, batched)


@given(
    initial=facts_of,
    batch=facts_of,
    indexes=index_sets,
    at=st.integers(0, 40),
    bad=st.sampled_from([(), (1,), (1, 2), (1, 2, 3, 4)]),
)
def test_a_bad_arity_fact_mid_batch_fails_like_the_loop(initial, batch, indexes, at, bad):
    batch = batch[:at] + [bad] + batch[at:]
    loop, batched = _relation(initial, indexes), _relation(initial, indexes)
    with pytest.raises(ValueError) as expected:
        _sequential(loop, batch)
    with pytest.raises(ValueError) as got:
        batched.add_batch(batch)
    assert str(got.value) == str(expected.value)
    _same_state(loop, batched)


@pytest.mark.parametrize("nth", [1, 4, 9])
def test_a_fault_mid_batch_fails_like_the_loop(nth):
    batch = [(i % 5, i, 0) for i in range(12)]
    states = []
    for insert in (_sequential, lambda relation, facts: relation.add_batch(facts)):
        relation = _relation([(0, 0, 0), (1, 1, 0)], [(0,)])
        injector = FaultInjector([FaultPlan("relation.add", "error", nth=nth)])
        with pytest.raises(FaultInjected):
            with inject(injector):
                insert(relation, batch)
        assert injector.hits["relation.add"] == nth
        states.append(relation)
    _same_state(*states)


def test_one_fact_batches_return_a_list():
    relation = Relation("p", 1)
    assert relation.add_batch([("a",)]) == [("a",)]
    assert relation.add_batch([("a",)]) == []
    assert relation.add_batch(()) == []
    assert relation.add_all([("a",), ("b",), ("b",)]) == 1


# -- Database.assert_all ------------------------------------------------------------

mixed = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=30,
)


@given(facts=mixed)
def test_assert_all_equals_an_assert_fact_loop(facts):
    loop, batched = Database(), Database()
    count = sum(1 for fact in facts if loop.assert_fact("p", fact))
    assert batched.assert_all("p", facts) == count
    assert batched.as_dict() == loop.as_dict()
    assert sorted(batched.predicates()) == sorted(loop.predicates())
    assert batched.check_invariants()


def test_assert_all_sends_each_arity_run_in_one_call(monkeypatch):
    calls = []
    add_batch = Relation.add_batch

    def spy(relation, facts):
        new = add_batch(relation, facts)
        calls.append((relation.arity, len(new)))
        return new

    monkeypatch.setattr(Relation, "add_batch", spy)
    db = Database()
    db.assert_all("p", [(i, i) for i in range(50)])
    assert calls == [(2, 50)]
    calls.clear()
    db.assert_all("takes", [("a", "b"), ("a", "c"), ("a", "b", 3), ("d", "e")])
    assert calls == [(2, 2), (3, 1), (2, 1)]
