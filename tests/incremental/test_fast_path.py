"""The stage-checkpoint fast path: deletion-only repairs resume from a
mid-run governor checkpoint instead of re-running the clique.

Soundness gates are exercised both ways: streams where the fast path
fires must still match the from-scratch oracle, and every guard that
makes it ineligible (insertions, non-candidate touches, candidate inside
the clique, used/sibling congruence classes) must fall back to the full
recompute — correctly, never silently wrong.
"""

from __future__ import annotations

import random

import pytest

from repro.incremental import MaterializedView, UpdateBatch, UpdateOp
from repro.robust import checkpoint

from .conftest import assert_matches_oracle

SORTING = """
sp(nil, 0, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

PRIM = """
prm(nil, S, 0, 0) <- source(S).
prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I, least(C, I), choice(Y, X).
new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
"""

ITEMS = [(f"i{k}", c) for k, c in enumerate(
    [5, 3, 8, 1, 9, 2, 7, 4, 6, 10, 12, 11, 14, 13, 15, 16, 18, 17, 20, 19,
     22, 21, 24, 23, 26, 25, 28, 27, 30, 29, 32, 31, 34, 33, 36, 35]
)]


@pytest.fixture
def calls(monkeypatch):
    """``{name: count}`` of calls to the checkpoint layer's snapshot,
    freeze and capture functions while the test runs."""
    counts = {"snapshot": 0, "freeze": 0, "capture": 0}
    for name in counts:
        original = getattr(checkpoint, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(checkpoint, name, counted)
    return counts


def _loaded_sorting_view():
    view = MaterializedView(SORTING, engine="rql", seed=0)
    view.apply(
        UpdateBatch.of([UpdateOp("+", "p", it) for it in ITEMS], batch_id="init")
    )
    return view


class TestFastPathFires:
    def test_deletions_resume_from_checkpoints(self):
        view = _loaded_sorting_view()
        rng = random.Random(5)
        resumed = 0
        for step in range(25):
            present = sorted(set(view.db.facts("p", 2)))
            result = view.apply(
                UpdateBatch.of(
                    [UpdateOp("-", "p", rng.choice(present))], batch_id=f"s{step}"
                )
            )
            resumed += result.fast_path_resumes
            assert_matches_oracle(view, f"at step {step}")
        # With 36 items and checkpoint interval 16 the tape is populated;
        # a healthy majority of the tail deletions resume mid-run.
        assert resumed >= 5

    def test_resume_repopulates_the_tape(self):
        view = _loaded_sorting_view()
        # Delete the final item (largest cost): the newest checkpoint is
        # eligible, and the resumed run records a fresh tape so the NEXT
        # deletion can fast-path again.
        result1 = view.apply(
            UpdateBatch.of([UpdateOp("-", "p", ("i35", 35))], batch_id="d1")
        )
        assert result1.fast_path_resumes == 1
        assert_matches_oracle(view)
        result2 = view.apply(
            UpdateBatch.of([UpdateOp("-", "p", ("i33", 33))], batch_id="d2")
        )
        assert result2.fast_path_resumes == 1
        assert_matches_oracle(view)


class TestFastPathGuards:
    def test_insertion_falls_back(self):
        view = _loaded_sorting_view()
        result = view.apply(
            UpdateBatch.of([UpdateOp("+", "p", ("zz", 100))], batch_id="ins")
        )
        assert result.fast_path_resumes == 0
        assert result.units_recomputed == 1
        assert_matches_oracle(view)

    def test_mixed_batch_falls_back(self):
        view = _loaded_sorting_view()
        result = view.apply(
            UpdateBatch.of(
                [UpdateOp("-", "p", ("i35", 35)), UpdateOp("+", "p", ("zz", 100))],
                batch_id="mix",
            )
        )
        assert result.fast_path_resumes == 0
        assert_matches_oracle(view)

    def test_candidate_inside_the_clique_never_fast_paths(self):
        # Prim's candidate relation (new_g) is derived inside the
        # clique, so deletions of g can never resume mid-run.
        view = MaterializedView(PRIM, engine="rql", seed=3)
        edges = [("a", "b", 3), ("b", "c", 1), ("a", "c", 5), ("c", "d", 2)]
        ops = [UpdateOp("+", "g", e) for e in edges]
        ops.append(UpdateOp("+", "source", ("a",)))
        view.apply(UpdateBatch.of(ops, batch_id="init"))
        result = view.apply(
            UpdateBatch.of([UpdateOp("-", "g", ("a", "c", 5))], batch_id="del")
        )
        assert result.fast_path_resumes == 0
        assert_matches_oracle(view)

    def test_early_deletion_skips_poisoned_checkpoints(self):
        view = _loaded_sorting_view()
        # Deleting the *cheapest* item invalidates every checkpoint
        # taken after it was used; the repair must fall back (or pick a
        # checkpoint from before the use) and still match the oracle.
        result = view.apply(
            UpdateBatch.of([UpdateOp("-", "p", ("i3", 1))], batch_id="cheap")
        )
        assert result.fast_path_resumes == 0
        assert result.units_recomputed == 1
        assert_matches_oracle(view)

    def test_fast_path_counter_lands_in_the_registry(self):
        view = _loaded_sorting_view()
        view.apply(UpdateBatch.of([UpdateOp("-", "p", ("i35", 35))], batch_id="d"))
        assert view.tracer.registry.counter("incremental/fast_path_resumes") == 1


class TestTapeCost:
    """Checkpoint capture stays off the write path: only units whose fast
    path can fire keep a tape, and a tape entry is frozen only when a
    resume starts from it."""

    def test_prim_view_keeps_no_tape_and_never_snapshots(self, calls):
        view = MaterializedView(PRIM, engine="rql", seed=3)
        rng = random.Random(11)
        nodes = [f"n{k}" for k in range(12)]
        edges = {(nodes[k], nodes[k + 1], rng.randint(1, 30)) for k in range(11)}
        ops = [UpdateOp("+", "g", e) for e in sorted(edges)]
        ops.append(UpdateOp("+", "source", ("n0",)))
        view.apply(UpdateBatch.of(ops, batch_id="init"))
        inserted = []
        for step in range(10):
            if len(inserted) >= 3:
                op = UpdateOp("-", "g", inserted.pop(0))
            else:
                edge = (*rng.sample(nodes, 2), rng.randint(1, 30))
                inserted.append(edge)
                op = UpdateOp("+", "g", edge)
            result = view.apply(UpdateBatch.of([op], batch_id=f"w{step}"))
            assert result.units_recomputed == 1
            assert_matches_oracle(view, f"at step {step}")
        assert all(unit.tape == [] for unit in view.units)
        assert calls["snapshot"] == 0
        assert calls["capture"] == 0
        # The counters do see the layer: a SORTING view snapshots.
        _loaded_sorting_view()
        assert calls["snapshot"] > 0

    def test_insert_freezes_nothing_and_a_resume_freezes_one(self, calls):
        view = _loaded_sorting_view()
        result = view.apply(
            UpdateBatch.of([UpdateOp("+", "p", ("zz", 100))], batch_id="ins")
        )
        assert result.units_recomputed == 1
        assert calls["freeze"] == 0
        assert view.units[0].tape
        for step, item in enumerate([("zz", 100), ("i35", 35), ("i33", 33)]):
            result = view.apply(
                UpdateBatch.of([UpdateOp("-", "p", item)], batch_id=f"d{step}")
            )
            assert result.fast_path_resumes == 1
            assert calls["freeze"] == step + 1
            assert_matches_oracle(view, f"after deleting {item}")
        assert calls["capture"] == 0
