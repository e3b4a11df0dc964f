"""live_views — a closed loop with one client through an in-process
``QueryService(workers=1, store=CheckpointStore(...))`` holding two live
views: SHORTEST_PATH on the seminaive engine (150 nodes; the DRed and
runner-up-ledger repair path) and PRIM on the rql engine (120 nodes; the
choice-clique recompute path).

Requests alternate between a write and a read-back of the view just
written.  A write is one edge inserted or retracted (both orientations in
one batch), sent to the shortest-path view nine times in ten and to Prim
once; every inserted edge is retracted a few writes later, so the EDB
stays the same size.  A read is ``updates=[]``.

It uses the same WAL layer as serve_sharded, but for update journaling,
and the engine layers incrementally instead of from scratch: a repair
optimisation moves ``greedy_ms`` (Prim) and ``p95_ms``, a DRed or
journaling optimisation moves ``fixpoint_ms`` and ``p50_ms``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from harness import (
    WORK,
    BenchError,
    Calibration,
    Outcome,
    Spans,
    gmean_of_medians,
    mean,
    median,
    ms,
    peak_rss_mb,
    per,
    percentile,
    provenance,
    timed_setups,
)
from layers import (
    engine_metrics,
    service_metrics,
    snapshot_figures,
    trace_metrics,
    zero_service_metrics,
)

SP_NODES, SP_CHORDS = 150, 150
PRIM_NODES, PRIM_CHORDS = 120, 120
#: One write in this many goes to the Prim view.
PRIM_EVERY = 10
#: Inserted edges a view holds before the oldest is retracted.
POOL = 3
#: Oracle-check the written view on every CHECK_EVERY-th write.
CHECK_EVERY = 25


@dataclass
class View:
    name: str
    klass: str
    text: str
    engine: str
    seed: int
    nodes: List[str]
    base: List[tuple]
    #: Inserted edges not yet retracted, oldest first.
    inserted: List[tuple] = field(default_factory=list)
    present: set = field(default_factory=set)

    def edges(self) -> List[tuple]:
        return self.base + self.inserted

    def request(self, updates: List[str], facts: Optional[dict] = None):
        from repro.serve import QueryRequest

        return QueryRequest(program=self.text, facts=facts or {}, engine=self.engine,
                            seed=self.seed, updates=updates)


@dataclass
class Setup:
    service: Any
    store: Any
    directory: str
    views: List[View]
    rng: random.Random


def next_write(view: View, rng: random.Random) -> List[str]:
    """Retract the oldest inserted edge once ``POOL`` are in, else insert
    a fresh chord; both orientations travel in one batch."""
    if len(view.inserted) >= POOL:
        u, v, c = view.inserted.pop(0)
        view.present.discard(frozenset((u, v)))
        sign = "-"
    else:
        while True:
            u, v = rng.sample(view.nodes, 2)
            if frozenset((u, v)) not in view.present:
                break
        c = rng.randint(1, 20 * len(view.nodes))
        view.inserted.append((u, v, c))
        view.present.add(frozenset((u, v)))
        sign = "+"
    return [f"{sign}g({u}, {v}, {c})", f"{sign}g({v}, {u}, {c})"]


def check_view(view: View, db: Any) -> Optional[str]:
    """``None`` when the maintained model matches the from-scratch oracle
    over the view's current EDB, else what disagreed."""
    from repro.baselines import prim_mst
    from repro.core.compiler import solve_program
    from repro.programs._run import symmetric_edges

    if view.klass == "fixpoint":
        want = solve_program(view.text, {"g": symmetric_edges(view.edges()),
                                         "source": [("v0",)]},
                             seed=view.seed, engine=view.engine)
        return None if db.as_dict() == want.as_dict() else "shortest-path view != solve_program"
    cost = sum(f[2] for f in db.facts("prm", 4) if f[0] != "nil")
    want_cost = prim_mst(view.edges(), "v0")[1]
    return None if cost == want_cost else f"prim view cost {cost} != prim_mst {want_cost}"


def open_views(seed: int) -> Setup:
    """Store, service, both views built, one untimed write/retract/read
    per view, each checked against its oracle."""
    from repro.durable import CheckpointStore
    from repro.programs import texts
    from repro.programs._run import symmetric_edges
    from repro.serve import QueryService
    from repro.workloads import random_connected_graph

    WORK.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="live-", dir=WORK)
    store = CheckpointStore(directory)
    service = QueryService(workers=1, store=store, seed=seed)
    setup = Setup(service, store, directory, [], random.Random(seed))
    try:
        for name, klass, text, engine, n, chords in (
            ("shortest_path", "fixpoint", texts.SHORTEST_PATH, "seminaive", SP_NODES, SP_CHORDS),
            ("prim", "greedy", texts.PRIM, "rql", PRIM_NODES, PRIM_CHORDS),
        ):
            nodes, edges = random_connected_graph(n, chords, seed=seed * 10 + len(setup.views))
            view = View(name, klass, text, engine, seed, nodes, edges,
                        present={frozenset((u, v)) for u, v, _ in edges})
            setup.views.append(view)
            build = view.request([], {"g": symmetric_edges(edges), "source": [("v0",)]})
            responses = [service.evaluate(build, timeout=120)]
            for _ in range(POOL + 1):
                responses.append(service.evaluate(view.request(next_write(view, setup.rng)),
                                                  timeout=120))
            responses.append(service.evaluate(view.request([]), timeout=120))
            problem = check_view(view, responses[-1].database)
            if problem or any(r.status != "ok" for r in responses):
                raise BenchError(f"warm-up of the {name} view failed: {problem}")
    except BaseException:
        close_views(setup)
        raise
    return setup


def close_views(setup: Setup) -> None:
    setup.service.close()
    setup.store.close()
    shutil.rmtree(setup.directory, ignore_errors=True)


@dataclass
class Op:
    """One request's timing and exported figures (the returned model is
    checked and dropped, so memory does not grow with the request count)."""

    view: View
    write: bool
    #: When the request completed (``time.perf_counter``), for calibration.
    end: float
    raw: float
    #: Time spent inside ``LiveView.apply`` (writes only): the engine's
    #: CPU-bound repair, the part calibration applies to.
    engine: float
    latency_s: float
    queue_s: float
    metrics: Dict[str, Any]
    #: The request time with its engine part at reference machine speed.
    seconds: float = 0.0


@contextmanager
def timing_applies(applies: List[float]) -> Iterator[None]:
    """Record how long each ``LiveView.apply`` takes: a timer, not a
    span, costing two clock reads per write."""
    from repro.incremental import LiveView

    original = LiveView.apply

    def timed(view: Any, batch: Any) -> Any:
        start = time.perf_counter()
        try:
            return original(view, batch)
        finally:
            applies.append(time.perf_counter() - start)

    LiveView.apply = timed
    try:
        yield
    finally:
        LiveView.apply = original


def closed_loop(setup: Setup, seconds: float, outcome: Outcome, spans: Spans,
                cal: Calibration) -> List[Op]:
    """Alternate write and read-back for *seconds*; oracle checks and
    calibration samples run between requests, outside their timings.

    Only the engine part of a request (its ``LiveView.apply``) is
    calibrated: journaling fsyncs and thread hand-offs do not run at CPU
    speed, and scaling them with it would add noise instead of removing
    it."""
    sp, prim = setup.views
    ops: List[Op] = []
    applies: List[float] = []
    deadline = time.perf_counter() + seconds
    writes = 0
    with timing_applies(applies):
        while time.perf_counter() < deadline:
            view = prim if writes % PRIM_EVERY == PRIM_EVERY - 1 else sp
            writes += 1
            for write in (True, False):
                request = view.request(next_write(view, setup.rng) if write else [])
                applies.clear()
                t0 = time.perf_counter()
                with spans.span("request", len(ops)):
                    response = setup.service.submit(request).response(timeout=120)
                end = time.perf_counter()
                ops.append(Op(view, write, end, end - t0, sum(applies), response.latency_s,
                              response.queue_s, response.metrics))
                outcome.attempted += 1
                if response.status != "ok":
                    outcome.fail(f"{view.name} {'write' if write else 'read'}: "
                                 f"{response.status}")
                elif write and writes % CHECK_EVERY == 0:
                    problem = check_view(view, response.database)
                    if problem:
                        outcome.fail(problem)
                cal.maybe_sample()
    for view in setup.views:
        response = setup.service.evaluate(view.request([]), timeout=120)
        problem = check_view(view, response.database)
        if problem:
            outcome.fail(f"at the end: {problem}")
    for op in ops:
        op.seconds = op.raw + op.engine * (cal.at(op.end) - 1.0)
    return ops


def end_to_end(ops: List[Op]) -> Dict[str, float]:
    writes = [op.seconds for op in ops if op.write]

    def class_ms(klass: str) -> float:
        # One view per class, so the class figure is that view's median.
        return ms(gmean_of_medians(
            {klass: [op.seconds for op in ops if op.write and op.view.klass == klass]}))

    return {
        "ops_per_s": per(len(ops), sum(op.seconds for op in ops)),
        "p50_ms": ms(median(writes)),
        "p95_ms": ms(percentile(writes, 95)),
        "greedy_ms": class_ms("greedy"),
        "fixpoint_ms": class_ms("fixpoint"),
    }


def per_layer(ops: List[Op], spans: Spans, fsyncs: int, written: int) -> Dict[str, float]:
    rows: Dict[str, List[Dict[str, float]]] = {"greedy": [], "fixpoint": []}
    n, n_writes = len(ops), sum(1 for op in ops if op.write)
    in_service = []
    incremental = {"invalidated": 0, "rederived": 0, "units_recomputed": 0,
                   "fast_path_resumes": 0}
    for op in ops:
        figures = snapshot_figures(op.metrics)
        if op.write:
            rows[op.view.klass].append(figures)
            for key in incremental:
                incremental[key] += figures[key]
        in_service.append((op.latency_s, op.queue_s, figures["clique_s"]))
    journal_s = sum(sum(spans.durations(name)) for name in (
        "store.journal_request", "store.journal_update", "store.mark_done", "store.sync"))
    applies = spans.durations("view.apply")
    metrics = engine_metrics(rows)
    metrics.update(zero_service_metrics())
    metrics.update(service_metrics(in_service))
    metrics.update({
        "durable.store.fsyncs_per_op": per(fsyncs, n),
        "durable.store.bytes_per_op": per(written, n),
        "durable.store.journal_ms": ms(per(journal_s, n)),
        "incremental.view.apply_ms": ms(mean(applies)),
        "incremental.view.facts_invalidated": per(incremental["invalidated"], n_writes),
        "incremental.view.facts_rederived": per(incremental["rederived"], n_writes),
        "incremental.view.units_recomputed": per(incremental["units_recomputed"], n_writes),
        "incremental.view.fast_path_resumes": per(incremental["fast_path_resumes"], n_writes),
    })
    return metrics


def run(seed: int, seconds: float, trace: bool, spans: Spans) -> Outcome:
    from repro.incremental import LiveView

    outcome = Outcome()
    setup: Optional[Setup] = None
    try:
        if not trace:
            setup = timed_setups(lambda: open_views(seed), close_views, outcome)
            outcome.provenance = provenance("live_views", seed, trace, setup.directory,
                                            setup.store.fsync)
            cal = Calibration()
            ops = closed_loop(setup, seconds, outcome, spans, cal)
            outcome.metrics.update(end_to_end(ops), peak_rss_mb=peak_rss_mb())
            writes = [op.seconds for op in ops if op.write]
            outcome.notes += [
                ("requests", len(ops), "count"),
                ("machine_speed_factor", cal.factor, "ratio"),
                ("update_p50_ms", outcome.metrics["p50_ms"], "ms"),
                ("update_p99_ms", ms(percentile(writes, 99)), "ms"),
                ("update_p99_samples_beyond", len(writes) // 100, "count"),
                ("read_p50_ms", ms(median([op.seconds for op in ops if not op.write])), "ms"),
            ]
            return outcome

        setup = open_views(seed)
        store = setup.store
        outcome.provenance = provenance("live_views", seed, trace, setup.directory, store.fsync)
        base_cal, traced_cal = Calibration(), Calibration()
        untraced = closed_loop(setup, seconds / 2, outcome, Spans(), base_cal)
        counters_before = dict(store.stats()["counters"])
        # Request ids: the batch id ("req-<id>") of an apply, the first
        # argument of a journal call.
        undo = [spans.wrap(LiveView, "apply", "view.apply", lambda _view, batch: batch.batch_id)]
        undo += [spans.wrap(store, attr, f"store.{attr}", lambda *args: args[0] if args else None)
                 for attr in ("journal_request", "journal_update", "mark_done", "sync")]
        spans.enabled = True
        try:
            traced = closed_loop(setup, seconds / 2, outcome, spans, traced_cal)
        finally:
            spans.enabled = False
            for restore in undo:
                restore()
        counters = store.stats()["counters"]
        metrics = per_layer(
            traced, spans,
            counters.get("fsyncs", 0) - counters_before.get("fsyncs", 0),
            counters.get("bytes_written", 0) - counters_before.get("bytes_written", 0),
        )
        metrics.update(trace_metrics(ms(median([op.seconds for op in untraced if op.write])),
                                     ms(median([op.seconds for op in traced if op.write])),
                                     spans))
        outcome.metrics = metrics
        return outcome
    finally:
        if setup is not None:
            close_views(setup)
