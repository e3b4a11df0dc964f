"""Perf-regression harness: the ablation sweeps behind ``BENCH_plans.json``
and the CI gate that re-checks them.

:data:`SWEEPS` is the one list of sweeps and of their gates.  Each
:class:`Sweep` measures one ablation — the plan cache, the greedy
engine's shape, the execution governor, the in-process service,
durability, join order, extrema pushdown, incremental maintenance,
sharded scaling and hot-standby replication — as one block of the
report, and names the statistic of that block that ``--check`` gates,
the kind of gate and its bound.  Re-run after touching the planner, the
executor or a serving layer::

    PYTHONPATH=src python -m repro.bench.regression           # rewrite BENCH_plans.json
    PYTHONPATH=src python -m repro.bench.regression --check   # gate against it

Every gated statistic is a ratio of two timings taken on the same box
(cached vs per-call plans, governed vs ungoverned, ...), which cancels
the machine's constant factor.  A gate is an absolute floor or ceiling
on that ratio, or — for the plan-cache sweep — a fraction of the
baseline's value.  A block recorded as ``skipped`` (a cross-process
sweep on a box with too few cores) is not gated; a block that is not
skipped but lacks its statistic raises.

The JSON shape is stable: ``sweeps`` maps each sweep's name to its
block — a ``description``, per-size ``rows`` (one batch's timings for
the two cross-process sweeps) and the sweep's summary statistics; the
TC and sorting blocks also record a ``metrics`` block, the
:mod:`repro.obs` registry snapshot (per-phase wall time and engine/
storage counters) of one traced run at the largest size.  ``meta``
records the interpreter so numbers from different machines are not
compared blindly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import EmptySweepError, SweepResult, paired_sweep, sweep
from repro.core.compiler import compile_program, solve_program
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SeminaiveEngine
from repro.obs.export import metrics_snapshot
from repro.obs.tracer import Tracer
from repro.programs import texts
from repro.storage.database import Database
from repro.workloads import random_costed_relation

__all__ = ["SWEEPS", "Sweep", "run_regression", "check_against_baseline", "main"]

#: Gate kinds: an absolute floor or ceiling on the statistic, or a floor
#: at ``bound`` × the baseline's value of it.
FLOOR, CEILING, BASELINE = "floor", "ceiling", "baseline"


@dataclass(frozen=True)
class Sweep:
    """One sweep of the report and its gate.

    ``measure()`` returns the sweep's block without its description.  A
    sweep with no ``stat`` is recorded, not gated.  ``read`` takes the
    statistic from a block where the block does not store it under
    ``stat`` (the TC block keeps only its rows).
    """

    name: str
    description: str
    measure: Callable[[], Dict[str, Any]]
    stat: Optional[str] = None
    gate: str = ""
    bound: float = 0.0
    read: Optional[Callable[[Dict[str, Any]], float]] = None

    @property
    def gate_text(self) -> str:
        if self.gate == BASELINE:
            return f"floor {self.bound:.2f} x baseline"
        return f"{self.gate} {self.bound:.2f}x"

    def statistic(self, block: Dict[str, Any]) -> float:
        """The gated value in *block*; raises ``KeyError`` if it has none."""
        return self.read(block) if self.read else block[self.stat]

    def failure(
        self, block: Dict[str, Any], baseline: Dict[str, Any]
    ) -> Optional[str]:
        """Why *block* fails this sweep's gate; ``None`` when it holds."""
        if self.stat is None or "skipped" in block:
            return None
        value = self.statistic(block)
        limit = self.bound
        if self.gate == BASELINE:
            limit *= self.statistic(baseline["sweeps"][self.name])
        failed = value > limit if self.gate == CEILING else value < limit
        if not failed:
            return None
        return (
            f"{self.name} regressed: {self.stat} {value:.3f}x against "
            f"{limit:.3f}x ({self.gate_text})"
        )


def _rows(
    first: SweepResult, second: SweepResult, keys: Tuple[str, str], ratio: str
) -> List[Dict[str, Any]]:
    """Per-size rows of a paired sweep: each side's best time under *keys*
    and their *ratio* — a ``speedup`` is first / second (the slow side
    first), an ``overhead`` second / first (the bare side first)."""
    rows = []
    for a, b in zip(first.points, second.points):
        slow, fast = (a, b) if ratio == "speedup" else (b, a)
        rows.append(
            {
                "size": a.size,
                keys[0]: round(a.seconds, 6),
                keys[1]: round(b.seconds, 6),
                ratio: round(slow.seconds / max(fast.seconds, 1e-9), 3),
            }
        )
    return rows


def _summarised(rows: List[Dict[str, Any]], column: str) -> Dict[str, Any]:
    """A block of *rows* with the mean and the minimum of their *column*."""
    values = [row[column] for row in rows]
    return {
        "rows": rows,
        f"mean_{column}": round(sum(values) / len(values), 3),
        f"min_{column}": round(min(values), 3),
    }


def _same_models(
    label: str,
    sizes: Sequence[int],
    make_input: Callable[[int], Any],
    operations: Tuple[Callable[[Any], Database], Callable[[Any], Database]],
) -> None:
    """Raise unless both *operations* compute the same model at every
    size; run before a paired sweep times them."""
    for size in sizes:
        payload = make_input(size)
        first, second = (operation(payload).as_dict() for operation in operations)
        if first != second:
            raise AssertionError(f"{label}: models diverged at size {size}")


TC_TEXT = """
path(X, Y) <- edge(X, Y).
path(X, Y) <- path(X, Z), edge(Z, Y).
"""
TC = parse_program(TC_TEXT)


def _chain(n: int) -> List[tuple]:
    return [(i, i + 1) for i in range(n)]


def _mean_row_speedup(block: Dict[str, Any]) -> float:
    rows = block["rows"]
    return sum(row["speedup"] for row in rows) / len(rows)


def _tc_op(cache_plans: bool) -> Callable[[Any], Any]:
    def op(edges):
        db = Database()
        db.assert_all("edge", edges)
        engine = SeminaiveEngine(TC, cache_plans=cache_plans)
        engine.run(db)
        return engine.stats.plans_compiled

    return op


def _measure_tc() -> Dict[str, Any]:
    uncached, cached = paired_sweep(
        ("tc/per-call-plans", "tc/cached-plans"),
        [20, 40, 80, 160],
        _chain,
        (_tc_op(False), _tc_op(True)),
        repeats=3,
    )
    # Metrics snapshot of one traced cached-plans run at the largest size.
    db = Database()
    db.assert_all("edge", _chain(cached.sizes[-1]))
    tracer = Tracer(enabled=True)
    SeminaiveEngine(TC, tracer=tracer).run(db)
    return {
        "rows": _rows(uncached, cached, ("before_s", "after_s"), "speedup"),
        "plans_compiled": {
            "before": [p.payload for p in uncached.points],
            "after": [p.payload for p in cached.points],
        },
        "exponent_before": round(uncached.exponent(), 3),
        "exponent_after": round(cached.exponent(), 3),
        "metrics": metrics_snapshot(tracer.registry),
    }


def _costed(n: int) -> List[tuple]:
    return random_costed_relation(n, seed=0)


def _sort(payload, governor: Any = None) -> Database:
    """The Example 5 sorting program: the timed work of five sweeps."""
    return solve_program(
        texts.SORTING, facts={"p": list(payload)}, seed=0, governor=governor
    )


def _governed(durability: Any = None):
    """A governor with every cap set but unhittable, so the run pays the
    full per-tick bookkeeping."""
    from repro.robust import Budget, RunGovernor

    budget = Budget(
        wall_clock=3600.0,
        max_gamma_steps=10**9,
        max_rounds=10**9,
        max_facts=10**9,
    )
    return RunGovernor(budget, durability=durability)


def _measure_sorting() -> Dict[str, Any]:
    greedy = sweep("sorting/rql", [8, 16, 32], _costed, _sort, repeats=3)
    # Metrics snapshot of one traced greedy run at the largest size.
    tracer = Tracer(enabled=True)
    compile_program(texts.SORTING).run(
        facts={"p": _costed(greedy.sizes[-1])}, seed=0, tracer=tracer
    )
    rows = [{"size": p.size, "seconds": round(p.seconds, 6)} for p in greedy.points]
    return {
        "rows": rows,
        "exponent": round(greedy.exponent(), 3),
        "metrics": metrics_snapshot(tracer.registry),
    }


def _measure_governor() -> Dict[str, Any]:
    off, on = paired_sweep(
        ("governor/off", "governor/on"),
        [32, 64, 128, 256],
        _costed,
        (_sort, lambda payload: _sort(payload, _governed())),
        repeats=15,
    )
    return _summarised(_rows(off, on, ("off_s", "on_s"), "overhead"), "overhead")


def _measure_service() -> Dict[str, Any]:
    from repro.serve import QueryRequest, QueryService

    service = QueryService(workers=1)
    try:

        def served(payload):
            return service.evaluate(
                QueryRequest(program=texts.SORTING, facts={"p": payload}, seed=0),
                timeout=60,
            )

        direct, through = paired_sweep(
            ("service/direct", "service/served"),
            [32, 64, 128, 256],
            _costed,
            (_sort, served),
            repeats=15,
        )
    finally:
        service.close()
    rows = _rows(direct, through, ("direct_s", "service_s"), "overhead")
    return _summarised(rows, "overhead")


def _measure_durable() -> Dict[str, Any]:
    from repro.durable import CheckpointStore, DurableWriter

    run_ids = itertools.count(1)
    with tempfile.TemporaryDirectory(prefix="bench-durable-") as root:
        store = CheckpointStore(root)
        try:

            def durable(payload):
                writer = DurableWriter(store, str(next(run_ids)))
                return _sort(payload, _governed(writer))

            bare, on = paired_sweep(
                ("durable/bare", "durable/on"),
                [32, 64, 128, 256],
                _costed,
                (lambda payload: _sort(payload, _governed()), durable),
                repeats=15,
            )
        finally:
            store.close()
    rows = _rows(bare, on, ("bare_s", "durable_s"), "overhead")
    return _summarised(rows, "overhead")


#: Wide multi-join rules (4-6 goals per body) over skewed relation sizes.
#: The written body order leads every rule with a big relation and leaves
#: the selective goal (a 3-fact relation, a 2-fact relation, a constant
#: pattern) last, so written-order evaluation enumerates the full chain
#: before filtering; the greedy reorderer starts from the selective goal
#: and walks the joins backward through indexed lookups.
JOIN = parse_program(
    """
    jq1(A, E) <- r1(A, B), r2(B, C), r3(C, D), sel(D, E).
    jq2(A, F) <- r1(A, B), r2(B, C), r3(C, D), r4(D, E), tiny(E, F), F <= A.
    jq3(A, C) <- r2(B, C), r1(A, B), r3(C, 7).
    """
)


def _join_db(n: int) -> Database:
    """Skewed-size EDB for the multi-join sweep: three permutation-like
    chains of *n* facts, one fan-out-4 relation of ``4n`` facts, and two
    tiny selective relations."""
    db = Database()
    db.assert_all("r1", [(i, (i * 7) % n) for i in range(n)])
    db.assert_all("r2", [(i, (i * 11 + j) % n) for i in range(n) for j in range(4)])
    db.assert_all("r3", [(i, (i * 13) % n) for i in range(n)])
    db.assert_all("r4", [(i, (i * 17) % n) for i in range(n)])
    db.assert_all("sel", [(i, i) for i in range(3)])
    db.assert_all("tiny", [(0, 0), (1, 1)])
    return db


def _measure_join() -> Dict[str, Any]:
    # Each op builds the database and evaluates the whole program, so the
    # ratio understates the pure join-work gap (EDB loading is identical
    # on both sides), which makes the gate conservative.
    sizes = [64, 128, 256]
    orders = (
        lambda n: SeminaiveEngine(JOIN, order="written").run(_join_db(n)),
        lambda n: SeminaiveEngine(JOIN, order="greedy").run(_join_db(n)),
    )
    _same_models("join-order sweep", sizes, lambda n: n, orders)
    written, greedy = paired_sweep(
        ("join/written", "join/greedy"), sizes, lambda n: n, orders, repeats=9
    )
    rows = _rows(written, greedy, ("written_s", "greedy_s"), "speedup")
    return _summarised(rows, "speedup")


def _extrema_graph(n: int, width: int = 4) -> List[tuple]:
    """A layered DAG of *n* nodes (edges only point forward, so the
    "post" policy's un-pruned fixpoint stays finite): ``width`` nodes per
    layer, every consecutive pair of layers fully connected with
    deterministic costs in 1..9, plus one layer-skipping arc per layer.
    Path multiplicity grows with depth, so post-policy saturation derives
    many dominated distances per node where pushdown keeps one."""
    layers = max(n // width, 2)
    g: List[tuple] = []
    for li in range(layers - 1):
        for i in range(width):
            u = li * width + i
            for j in range(width):
                g.append((u, (li + 1) * width + j, (li * 7 + i * 3 + j * 5) % 9 + 1))
        if li + 2 < layers:
            g.append((li * width, (li + 2) * width + 1, li % 9 + 1))
    return g


def _measure_extrema() -> Dict[str, Any]:
    program = parse_program(texts.SHORTEST_PATH)

    def policy(extrema: str) -> Callable[[Any], Database]:
        def op(edges):
            db = Database()
            db.assert_all("g", edges)
            db.assert_all("source", [(0,)])
            SeminaiveEngine(program, extrema=extrema).run(db)
            return db

        return op

    sizes, policies = [24, 48, 96], (policy("post"), policy("pushdown"))
    # The policy equivalence the cross-engine battery proves, re-pinned
    # at bench scale.
    _same_models("extrema sweep", sizes, _extrema_graph, policies)
    post, pushdown = paired_sweep(
        ("extrema/post", "extrema/pushdown"), sizes, _extrema_graph, policies, repeats=5
    )
    rows = _rows(post, pushdown, ("post_s", "pushdown_s"), "speedup")
    return _summarised(rows, "speedup")


def _measure_incremental() -> Dict[str, Any]:
    """Best-of-3 timings for an update stream applied through a
    :class:`~repro.incremental.MaterializedView` vs re-running
    ``solve_program`` from scratch after every batch.  The stream churns
    the tail of a transitive-closure chain — extend, retract, re-extend —
    so each delta is localized while the model stays O(n²).  Only the
    stream is timed, not the view's construction and initial load, so
    this sweep keeps its own loop instead of :func:`paired_sweep`."""
    from repro.incremental import MaterializedView, UpdateBatch, UpdateOp

    updates = 10
    rows: List[Dict[str, Any]] = []
    for size in [40, 80, 160]:
        base = _chain(size)
        stream = []
        for i in range(updates):
            tail = (size + i // 2, size + i // 2 + 1)
            stream.append(("+" if i % 2 == 0 else "-", tail))

        def incremental_once():
            view = MaterializedView(TC_TEXT, engine="seminaive", seed=0)
            view.apply(
                UpdateBatch.of(
                    [UpdateOp("+", "edge", e) for e in base], batch_id="init"
                )
            )
            start = time.perf_counter()
            for j, (op, edge) in enumerate(stream):
                view.apply(
                    UpdateBatch.of([UpdateOp(op, "edge", edge)], batch_id=f"u{j}")
                )
            return time.perf_counter() - start, view

        def scratch_once():
            edges = list(base)
            db = None
            start = time.perf_counter()
            for op, edge in stream:
                if op == "+":
                    edges.append(edge)
                else:
                    edges.remove(edge)
                db = solve_program(
                    TC_TEXT, facts={"edge": list(edges)}, seed=0, engine="seminaive"
                )
            return time.perf_counter() - start, db

        # Pin correctness once per size before anything is gated on speed.
        _, view = incremental_once()
        _, oracle = scratch_once()
        if view.db.as_dict() != oracle.as_dict():
            raise AssertionError(
                f"incremental sweep: maintained view diverged at size {size}"
            )
        best_inc = best_scratch = float("inf")
        for _ in range(3):
            seconds, _ = incremental_once()
            best_inc = min(best_inc, seconds)
            seconds, _ = scratch_once()
            best_scratch = min(best_scratch, seconds)
        rows.append(
            {
                "size": size,
                "updates": updates,
                "recompute_s": round(best_scratch, 6),
                "incremental_s": round(best_inc, 6),
                "speedup": round(best_scratch / max(best_inc, 1e-9), 3),
            }
        )
    return _summarised(rows, "speedup")


#: Batch size and shard count for the cross-process scaling sweep.
SHARDED_SCALING_REQUESTS = 64
SHARDED_SCALING_SHARDS = 4
#: Batch size and shard count for the replication-overhead sweep.
REPLICATION_REQUESTS = 32
REPLICATION_SHARDS = 2


def _measure_sharded_scaling() -> Dict[str, Any]:
    """Wall time for one batch through 1 vs ``SHARDED_SCALING_SHARDS``
    worker processes; skipped on machines without enough cores to express
    the parallelism (the sweep would measure context switching, not
    scaling).

    The batch spreads over ``4 × shards`` distinct program classes so
    fingerprint routing actually fans out — a single-class batch pins to
    one shard by design (ownership keeps its plan cache hot) and is the
    wrong thing to measure here.
    """
    requests, shards, repeats = SHARDED_SCALING_REQUESTS, SHARDED_SCALING_SHARDS, 3
    if (os.cpu_count() or 1) < shards:
        return {"skipped": "not enough cores for the shard count"}

    from repro.serve import QueryRequest, ShardedQueryService

    payload = random_costed_relation(24, seed=0)

    def batch_seconds(n_shards: int) -> float:
        service = ShardedQueryService(
            shards=n_shards,
            queue_capacity=requests + 8,
            heartbeat_interval=0.05,
        )
        try:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                tickets = [
                    service.submit(
                        QueryRequest(
                            texts.SORTING,
                            {"p": payload},
                            seed=i % 8,
                            klass=f"bench-{i % (4 * shards)}",
                        )
                    )
                    for i in range(requests)
                ]
                for ticket in tickets:
                    ticket.response(timeout=300)
                best = min(best, time.perf_counter() - start)
            return best
        finally:
            service.close()

    one_s = batch_seconds(1)
    many_s = batch_seconds(shards)
    return {
        "requests": requests,
        "shards": shards,
        "one_shard_s": round(one_s, 6),
        "sharded_s": round(many_s, 6),
        "speedup": round(one_s / max(many_s, 1e-9), 3),
    }


def _measure_replication() -> Dict[str, Any]:
    """Wall time for one batch through a durable sharded service with
    ``replicas=0`` vs ``replicas=1``; skipped on machines without a core
    per worker process (2 primaries + 2 standbys), where the sweep would
    measure scheduling pressure rather than the shipping tax.

    The replicated run is timed only after every standby reports warm,
    so the batch pays steady-state shipping — not one-off anti-entropy.
    """
    requests, shards, repeats = REPLICATION_REQUESTS, REPLICATION_SHARDS, 3
    if (os.cpu_count() or 1) < 2 * shards:
        return {"skipped": "not enough cores for primary+standby pairs"}

    from repro.serve import QueryRequest, ShardedQueryService

    payload = random_costed_relation(24, seed=0)

    def batch_seconds(replicas: int) -> float:
        with tempfile.TemporaryDirectory(prefix="bench-repl-") as root:
            service = ShardedQueryService(
                shards=shards,
                replicas=replicas,
                durable_dir=root,
                queue_capacity=requests + 8,
                heartbeat_interval=0.05,
            )
            try:
                if replicas:
                    deadline = time.monotonic() + 120
                    while time.monotonic() < deadline:
                        if all(
                            s["standby_state"] == "warm"
                            for s in service.stats()["shards"].values()
                        ):
                            break
                        time.sleep(0.02)
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    tickets = [
                        service.submit(
                            QueryRequest(
                                texts.SORTING,
                                {"p": payload},
                                seed=i % 8,
                                klass=f"bench-{i % (4 * shards)}",
                            )
                        )
                        for i in range(requests)
                    ]
                    for ticket in tickets:
                        ticket.response(timeout=300)
                    best = min(best, time.perf_counter() - start)
                return best
            finally:
                service.close()

    plain_s = batch_seconds(0)
    replicated_s = batch_seconds(1)
    return {
        "requests": requests,
        "shards": shards,
        "plain_s": round(plain_s, 6),
        "replicated_s": round(replicated_s, 6),
        "overhead": round(replicated_s / max(plain_s, 1e-9), 3),
    }


#: Every sweep of the report, in report order, with its gate: the one
#: list of the bench's gates.
SWEEPS: Tuple[Sweep, ...] = (
    Sweep(
        "seminaive_tc",
        "E7 transitive closure on a path; before = "
        "per-call planning (cache_plans=False), after = plan cache",
        _measure_tc,
        # Cached plans may lose at most 25% of the baseline's mean speedup.
        stat="mean_speedup",
        gate=BASELINE,
        bound=0.75,
        read=_mean_row_speedup,
    ),
    Sweep(
        "greedy_sorting",
        "(R, Q, L) engine on the Example 5 sorting "
        "program; rest_plan is compiled once per candidate atom "
        "instead of once per popped candidate",
        _measure_sorting,
    ),
    Sweep(
        "governor_overhead",
        "(R, Q, L) sorting run with the execution "
        "governor armed (every cap set but unhittable) vs the "
        "NULL_GOVERNOR no-op path; overhead = on_s / off_s.  The "
        "gate uses min_overhead: scheduler noise only ever slows "
        "a run, so the smallest ratio is the cleanest estimate of "
        "the true per-tick cost, and a real regression lifts "
        "every row at once",
        _measure_governor,
        # An armed governor costs < 5% over the NULL_GOVERNOR path at the
        # size where its overhead reads lowest.
        stat="min_overhead",
        gate=CEILING,
        bound=1.05,
    ),
    Sweep(
        "service_overhead",
        "(R, Q, L) sorting run submitted through the "
        "in-process QueryService (admission queue, worker thread, "
        "per-request governor and metrics merge) vs the direct "
        "solve_program call; overhead = service_s / direct_s.  "
        "Gated on min_overhead like the governor sweep: noise only "
        "ever inflates a ratio, so the smallest one is the "
        "cleanest estimate of the true service tax",
        _measure_service,
        # Serving a request in-process costs < 10% over the direct call at
        # the size where its overhead reads lowest.
        stat="min_overhead",
        gate=CEILING,
        bound=1.10,
    ),
    Sweep(
        "durable_overhead",
        "(R, Q, L) sorting run under a governor "
        "with a DurableWriter attached at the default time-based "
        "cadence (checkpoint store on disk) vs the same governed "
        "run bare; overhead = durable_s / bare_s.  The time "
        "cadence caps checkpoint serialization at one write per "
        "interval, so the sweep pins the per-tick durability tax. "
        "Gated on min_overhead like the governor sweep",
        _measure_durable,
        # A DurableWriter at the default cadence costs < 5% over the bare
        # governed run at the size where its overhead reads lowest.
        stat="min_overhead",
        gate=CEILING,
        bound=1.05,
    ),
    Sweep(
        "join_order",
        "wide multi-join rules (4-6 goals per "
        "body) over skewed relation sizes, seminaive with "
        "order='written' (legacy body order, selective goals "
        "last) vs order='greedy' (the reorderer starts from "
        "constants/tiny relations and walks the joins through "
        "indexed lookups); speedup = written_s / greedy_s, "
        "models checked identical before timing",
        _measure_join,
        # The greedy join order never loses to the written order on
        # average over the sizes.
        stat="mean_speedup",
        gate=FLOOR,
        bound=1.0,
    ),
    Sweep(
        "extrema_pushdown",
        "premappable shortest-path program on "
        "layered DAGs, seminaive with extrema='post' (saturate "
        "the full dominated fixpoint, then filter per group) vs "
        "extrema='pushdown' (per-group best table consulted on "
        "insert, dominated facts dropped and displaced ones "
        "retracted from the delta); speedup = post_s / "
        "pushdown_s, models checked identical before timing",
        _measure_extrema,
        # Pushdown never loses to saturate-then-filter; in practice the
        # gap is an order of magnitude at the largest size.
        stat="mean_speedup",
        gate=FLOOR,
        bound=1.0,
    ),
    Sweep(
        "incremental_maintenance",
        "a tail-churn update stream on the "
        "transitive-closure chain applied through a "
        "MaterializedView (counting for non-recursive strata, "
        "DRed over delta plans for recursive cliques) vs "
        "re-running solve_program from scratch after every "
        "batch; speedup = recompute_s / incremental_s, final "
        "models checked identical before timing",
        _measure_incremental,
        # Maintaining the view never loses to re-running solve_program
        # after every batch; the gap widens with the model size since a
        # localized delta costs O(affected), not O(model).
        stat="mean_speedup",
        gate=FLOOR,
        bound=1.0,
    ),
    Sweep(
        "sharded_scaling",
        "one batch of sorting requests over "
        f"{4 * SHARDED_SCALING_SHARDS} program classes served "
        "through the sharded front door with 1 vs "
        f"{SHARDED_SCALING_SHARDS} worker processes; speedup = "
        "one_shard_s / sharded_s.  Recorded as skipped (and not "
        "gated) on machines with fewer cores than shards",
        _measure_sharded_scaling,
        # SHARDED_SCALING_SHARDS worker processes beat one by at least 1.5x.
        stat="speedup",
        gate=FLOOR,
        bound=1.5,
    ),
    Sweep(
        "replication_overhead",
        "the same durable sharded batch with "
        "replicas=0 vs replicas=1 (every shard a primary + warm "
        "hot standby; WAL records shipped post-fsync over the "
        "pipe and replayed by the standby process); overhead = "
        "replicated_s / plain_s.  Recorded as skipped (and not "
        "gated) on machines without a core per worker process",
        _measure_replication,
        # Hot standbys cost < 10% over the same durable service with
        # replicas=0.  Shipping happens post-fsync off the response path,
        # so the tax is the pipe relay plus the standby processes
        # competing for cores.
        stat="overhead",
        gate=CEILING,
        bound=1.10,
    ),
)


def run_regression() -> Dict[str, Any]:
    """Measure every sweep in :data:`SWEEPS`; return the report as a plain dict."""
    return {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "harness": "repro.bench.regression",
        },
        "sweeps": {
            entry.name: {"description": entry.description, **entry.measure()}
            for entry in SWEEPS
        },
    }


def check_against_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Gate *report* against *baseline*: one line per sweep whose gate
    fails; an empty list means every gate held."""
    failures = (
        entry.failure(report["sweeps"][entry.name], baseline) for entry in SWEEPS
    )
    return [failure for failure in failures if failure is not None]


def _summary(entry: Sweep, block: Dict[str, Any]) -> List[str]:
    """The lines printed for one sweep, whether writing or checking."""
    if "skipped" in block:
        return [f"{entry.name}: skipped ({block['skipped']})"]
    head = entry.name
    if entry.stat is not None:
        value = entry.statistic(block)
        head += f": {entry.stat} {value:.3f}x ({entry.gate_text})"
    # The cross-process sweeps record one batch: print the block as a row.
    rows = block.get("rows") or [
        {key: value for key, value in block.items() if key != "description"}
    ]
    return [head] + [
        "  " + "  ".join(f"{key} {value}" for key, value in row.items())
        for row in rows
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="Measure the benchmark sweeps; write or check a baseline.",
    )
    parser.add_argument(
        "out",
        nargs="?",
        default=None,
        help="output path (default: BENCH_plans.json at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline instead of overwriting it",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE.json",
        help="baseline file for --check (default: the out path)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Write ``BENCH_plans.json`` next to the repository's ``src/`` —
    or, with ``--check``, gate against the committed baseline."""
    args = _build_parser().parse_args(argv)
    default_out = Path(__file__).resolve().parents[3] / "BENCH_plans.json"
    out = Path(args.out) if args.out else default_out
    try:
        report = run_regression()
    except EmptySweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in SWEEPS:
        print("\n".join(_summary(entry, report["sweeps"][entry.name])))
    if not args.check:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
        return 0
    baseline_path = Path(args.baseline) if args.baseline else out
    failures = check_against_baseline(report, json.loads(baseline_path.read_text()))
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: every gate in SWEEPS holds against {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
