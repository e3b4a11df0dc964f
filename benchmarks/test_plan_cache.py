"""Plan-cache ablation — cached delta-first plans vs per-call planning.

The E7 transitive-closure sweep fires the recursive rule once per
differential round; with the cache off, every firing re-runs the greedy
planner and recompiles the bound/free splits.  Compilation cost is per
firing (Θ(n) on a chain) instead of per rule, so the cached engine must
win on wall clock, and its ``plans_compiled`` counter must stay constant
while the uncached one grows with input size.
"""

from __future__ import annotations

from benchmarks.conftest import print_experiment
from repro.bench.runner import paired_sweep
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SeminaiveEngine
from repro.storage.database import Database

TC = parse_program(
    """
    path(X, Y) <- edge(X, Y).
    path(X, Y) <- path(X, Z), edge(Z, Y).
    """
)

SIZES = [20, 40, 80]


def _chain(n: int):
    return [(i, i + 1) for i in range(n)]


def _run(cache_plans: bool):
    def op(edges):
        db = Database()
        db.assert_all("edge", edges)
        engine = SeminaiveEngine(TC, cache_plans=cache_plans)
        engine.run(db)
        return len(db.relation("path", 2)), engine.stats.plans_compiled

    return op


def test_plan_cache_beats_per_call_planning(benchmark):
    # Interleaved, so a change in machine speed mid-sweep cannot move the
    # ratio between the two sides.
    uncached, cached = paired_sweep(
        ("tc/per-call-plans", "tc/cached-plans"),
        SIZES,
        _chain,
        (_run(False), _run(True)),
        repeats=3,
    )
    rows = []
    for c, u in zip(cached.points, uncached.points):
        assert c.payload[0] == u.payload[0]  # identical models
        rows.append(
            [c.size, c.seconds, u.seconds, u.seconds / max(c.seconds, 1e-9),
             c.payload[1], u.payload[1]]
        )
    print_experiment(
        "Plan cache ablation (seminaive transitive closure on a path)",
        "compile once per (rule, delta occurrence) vs re-plan every firing",
        ["chain length", "cached s", "uncached s", "speedup",
         "plans (cached)", "plans (uncached)"],
        rows,
    )
    # Shape: cached compilations are a constant of the program (2 rule
    # bodies + 1 delta variant); uncached compilations grow with the
    # rounds, i.e. with input size.
    cached_compiles = [p.payload[1] for p in cached.points]
    uncached_compiles = [p.payload[1] for p in uncached.points]
    assert cached_compiles == [3] * len(SIZES)
    assert uncached_compiles[-1] > uncached_compiles[0] > 3
    # Wall clock: over the whole sweep the cache must win outright.
    # (Per-point margins shrink as evaluation dominates at large n, so
    # the aggregate is the noise-robust assertion.)
    assert sum(cached.times) < sum(uncached.times)
    edges = _chain(max(SIZES))
    benchmark(lambda: _run(True)(edges))
