"""serve_sharded — an open loop, Poisson arrivals at 40 requests/s,
through the ``repro serve --shards 1 --replicas 1 --durable-dir``
topology: a front door, one primary shard process and its hot standby,
on two cores.

Requests are small (SORTING on 20 items, PRIM on 12 nodes, SHORTEST_PATH
on 15 nodes, ACTIVITY_SELECTION on 20 jobs; 16 input seeds each, so 64
distinct requests in rotation), so the engine does little and the front
door, the pipe, the supervisor's heartbeat drain, admission, fsync=always
journaling and WAL shipping do the most.  A serving optimisation shows
here; a solve-path optimisation should show nothing.

One thread submits on a seeded schedule and one collects responses.  Each request
is timed from when it was due, so a stall also charges the requests
queued behind it; the run is invalid if the generator fell behind or a
backlog built up.
"""

from __future__ import annotations

import os
import queue
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from harness import (
    WORK,
    BenchError,
    Outcome,
    Spans,
    dir_bytes,
    gmean_of_medians,
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

RATE = 40.0
#: A response slower than this (from its due time) misses the limit.
LATENCY_LIMIT_S = 0.25
#: Input seeds per program: 4 programs x 16 = 64 distinct requests.
SEEDS = 16
FSYNC = "always"
#: Input sizes: items, nodes, nodes and jobs.  Each request costs 3 to
#: 5 ms in the worker.  Larger requests widen the run-to-run spread: the
#: shard's in-service time switches between a fast and a slow mode every
#: few seconds, and its queueing tail grows with the request size.
SORTING_ITEMS, PRIM_NODES, SHORTEST_PATH_NODES, ACTIVITY_JOBS = 20, 12, 15, 20


@dataclass
class Sent:
    index: int
    program: str
    klass: str
    due: float
    sent: float
    done: Optional[float] = None
    response: Any = None
    error: Optional[BaseException] = None


@dataclass
class Fleet:
    service: Any
    durable_dir: str
    requests: List[Any]
    #: Program name and class of each request.
    programs: List[str]
    classes: List[str]
    expected: List[Dict[Any, Any]]


def distinct_finishes(k: int) -> List[tuple]:
    """``random_jobs`` with finish times made distinct (scaled, ties broken
    by job index), so the greedy model is unique.  With tied finish times
    the γ draw of a durable shard can differ from an in-process run with
    the same seed, and there would be no single model to check against."""
    from repro.workloads import random_jobs

    return [(name, s * 100, f * 100 + i)
            for i, (name, s, f) in enumerate(random_jobs(ACTIVITY_JOBS, seed=k))]


def make_requests(seed: int):
    """The 64 distinct requests, their program classes and their oracle
    models (in-process ``solve_program`` with the same seed)."""
    from repro.core.compiler import solve_program
    from repro.programs import texts
    from repro.programs._run import symmetric_edges
    from repro.serve import QueryRequest
    from repro.workloads import random_connected_graph, random_costed_relation

    requests, programs, classes, expected = [], [], [], []
    for j in range(SEEDS):
        k = seed * 100 + j
        _, prim_edges = random_connected_graph(PRIM_NODES, PRIM_NODES, seed=k)
        _, sp_edges = random_connected_graph(SHORTEST_PATH_NODES, SHORTEST_PATH_NODES, seed=k)
        batch = [
            ("SORTING", "greedy", "rql", {"p": random_costed_relation(SORTING_ITEMS, seed=k)}),
            ("PRIM", "greedy", "rql",
             {"g": symmetric_edges(prim_edges), "source": [("v0",)]}),
            ("SHORTEST_PATH", "fixpoint", "seminaive",
             {"g": symmetric_edges(sp_edges), "source": [("v0",)]}),
            ("ACTIVITY_SELECTION", "greedy", "rql", {"job": distinct_finishes(k)}),
        ]
        for name, klass, engine, facts in batch:
            text = getattr(texts, name)
            requests.append(QueryRequest(program=text, facts=facts, engine=engine, seed=k))
            programs.append(name)
            classes.append(klass)
            expected.append(solve_program(text, facts, seed=k, engine=engine).as_dict())
    return requests, programs, classes, expected


def wait_warm(service: Any, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.stats()["shards"][0]["standby_state"] == "warm":
            return
        time.sleep(0.01)
    raise BenchError("the standby never became warm")


def start_fleet(seed: int) -> Fleet:
    """Spawn the fleet, wait for the warm standby, and run every distinct
    request once, untimed, against its oracle."""
    from repro.serve import ShardedQueryService

    WORK.mkdir(parents=True, exist_ok=True)
    durable_dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
    requests, programs, classes, expected = make_requests(seed)
    service = ShardedQueryService(
        shards=1, replicas=1, durable_dir=durable_dir, fsync=FSYNC, seed=seed
    )
    fleet = Fleet(service, durable_dir, requests, programs, classes, expected)
    try:
        wait_warm(service)
        tickets = [service.submit(r) for r in requests]
        for i, ticket in enumerate(tickets):
            response = ticket.response(timeout=60)
            if response.status != "ok" or response.database.as_dict() != expected[i]:
                raise BenchError(f"warm-up request {i} disagrees with its oracle")
    except BaseException:
        stop_fleet(fleet)
        raise
    return fleet


def stop_fleet(fleet: Fleet) -> None:
    fleet.service.close()
    shutil.rmtree(fleet.durable_dir, ignore_errors=True)


def arrivals(rng: random.Random, seconds: float) -> List[float]:
    """Arrival offsets of a Poisson process at ``RATE`` per second,
    conditioned on its expected count: that many uniform times, sorted.
    Independent users arrive at random; a strictly periodic schedule
    would also lock the requests' phase against the supervisor's
    periodic drain, and each run would measure whichever phase it
    started in.  The fixed count keeps the offered load, and with it
    goodput, the same in every run."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(max(1, int(seconds * RATE))))


def open_loop(fleet: Fleet, seconds: float, outcome: Outcome, rng: random.Random,
              sample: Any = None) -> List[Sent]:
    """Submit requests at Poisson arrival times for *seconds* and collect
    every response.  *sample* (traced runs) is called every tenth
    submission."""
    from repro.errors import ReproError

    service, requests = fleet.service, fleet.requests
    handoff: "queue.Queue[Optional[tuple]]" = queue.Queue()
    sent: List[Sent] = []

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            record, ticket = item
            try:
                record.response = ticket.response(timeout=60)
            except TimeoutError as exc:
                record.error = exc
            record.done = time.perf_counter()

    collector = threading.Thread(target=collect, name="perfbench-collect")
    collector.start()
    lateness = 0.0
    try:
        start = time.perf_counter() + 0.02
        for i, offset in enumerate(arrivals(rng, seconds)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            lateness = max(lateness, now - due)
            j = i % len(requests)
            record = Sent(i, fleet.programs[j], fleet.classes[j], due, now)
            sent.append(record)
            try:
                ticket = service.submit(requests[j])
            except ReproError as exc:
                record.error, record.done = exc, time.perf_counter()
                continue
            handoff.put((record, ticket))
            if sample is not None and i % 10 == 0:
                sample()
        backlog = service.stats()["pending"]
    finally:
        handoff.put(None)
        collector.join()
    outcome.notes += [
        ("generator_max_lateness_ms", ms(lateness), "ms"),
        ("backlog_at_end", backlog, "count"),
    ]
    if lateness > LATENCY_LIMIT_S:
        outcome.invalidate(f"the generator fell {ms(lateness):.0f} ms behind schedule")
    if backlog > RATE * LATENCY_LIMIT_S:
        outcome.invalidate(f"{backlog} requests still pending when the schedule ended")
    return sent


def check(fleet: Fleet, sent: List[Sent], outcome: Outcome) -> List[float]:
    """Oracle-check every response; returns each request's latency from
    its due time (a failed request counts as missing every limit)."""
    latencies = []
    for record in sent:
        outcome.attempted += 1
        response = record.response
        if record.error is not None or response is None or response.status != "ok":
            outcome.fail(f"request {record.index}: "
                         f"{record.error or getattr(response, 'status', None)}")
            latencies.append(float("inf"))
            continue
        if response.database.as_dict() != fleet.expected[record.index % len(fleet.requests)]:
            outcome.fail(f"request {record.index}: model disagrees with solve_program")
        latencies.append(record.done - record.due)
    return latencies


def end_to_end(sent: List[Sent], latencies: List[float]) -> Dict[str, float]:
    """Goodput is per second of the run: from the first request's due
    time to the last response."""
    seconds = max(r.done for r in sent if r.done is not None) - sent[0].due
    by_program: Dict[str, Dict[str, List[float]]] = {"greedy": {}, "fixpoint": {}}
    for record, latency in zip(sent, latencies):
        by_program[record.klass].setdefault(record.program, []).append(latency)
    good = sum(1 for latency in latencies if latency <= LATENCY_LIMIT_S)
    return {
        "ops_per_s": good / seconds,
        "p50_ms": ms(median(latencies)),
        "p95_ms": ms(percentile(latencies, 95)),
        "greedy_ms": ms(gmean_of_medians(by_program["greedy"])),
        "fixpoint_ms": ms(gmean_of_medians(by_program["fixpoint"])),
    }


def per_layer(fleet: Fleet, sent: List[Sent], spans: Spans, wal_bytes: int,
              shipped: int, lag_max: int) -> Dict[str, float]:
    """Per-request means from the responses' own metrics, the front-door
    share (client round trip minus the worker's latency: two durations,
    each taken in one process) and the wire codec timed on each pair."""
    from repro.serve.shard import decode_response, encode_response

    rows: Dict[str, List[Dict[str, float]]] = {"greedy": [], "fixpoint": []}
    in_service = []
    frontdoor_s = codec_s = checks = 0.0
    n = 0
    for record in sent:
        response = record.response
        if response is None:
            continue
        n += 1
        figures = snapshot_figures(response.metrics)
        rows[record.klass].append(figures)
        in_service.append((response.latency_s, response.queue_s, figures["clique_s"]))
        frontdoor_s += (record.done - record.sent) - response.latency_s
        checks += figures["governor_checks"]
        request = fleet.requests[record.index % len(fleet.requests)]
        t0 = time.perf_counter()
        type(request).from_payload(request.to_payload())
        decode_response(response.request_id, encode_response(response))
        codec_s += time.perf_counter() - t0
        parent = spans.add("request", record.due, record.done, record.index)
        spans.add("frontdoor", record.sent, record.done - response.latency_s,
                  record.index, parent)
        spans.add("shard", record.done - response.latency_s, record.done,
                  record.index, parent)
    metrics = engine_metrics(rows)
    metrics.update(zero_service_metrics())
    metrics.update(service_metrics(in_service))
    metrics.update({
        "robust.governor.checks": per(checks, n),
        "serve.shard.frontdoor_ms": ms(per(frontdoor_s, n)),
        "serve.shard.codec_us": per(codec_s, n) * 1e6,
        "durable.wal.bytes_per_request": per(wal_bytes, n),
        "durable.replication.shipped_per_request": per(shipped, n),
        "durable.replication.lag_records_max": float(lag_max),
    })
    return metrics


def primary_wal(fleet: Fleet) -> str:
    from repro.serve.routing import wal_slot

    slot = fleet.service.stats()["shards"][0]["slot"]
    return os.path.join(fleet.durable_dir, wal_slot(0, slot))


def run(seed: int, seconds: float, trace: bool, spans: Spans) -> Outcome:
    outcome = Outcome()
    fleet: Optional[Fleet] = None
    try:
        if not trace:
            fleet = timed_setups(lambda: start_fleet(seed), stop_fleet, outcome)
            outcome.provenance = provenance("serve_sharded", seed, trace,
                                            fleet.durable_dir, FSYNC)
            sent = open_loop(fleet, seconds, outcome, random.Random(seed))
            latencies = check(fleet, sent, outcome)
            outcome.metrics.update(end_to_end(sent, latencies), peak_rss_mb=peak_rss_mb())
            outcome.notes += [
                ("requests", len(sent), "count"),
                ("serve_p50_ms", outcome.metrics["p50_ms"], "ms"),
                ("serve_p99_ms", ms(percentile(latencies, 99)), "ms"),
                ("serve_p99_samples_beyond", len(latencies) // 100, "count"),
                ("serve_goodput_rps", outcome.metrics["ops_per_s"], "1/s"),
            ]
            return outcome

        fleet = start_fleet(seed)
        outcome.provenance = provenance("serve_sharded", seed, trace,
                                        fleet.durable_dir, FSYNC)
        rng = random.Random(seed)
        untraced = open_loop(fleet, seconds / 2, outcome, rng)
        base = ms(median(check(fleet, untraced, outcome)))
        service = fleet.service
        lag = [0]

        def sample() -> None:
            lag[0] = max(lag[0], service.stats()["shards"][0]["replication_lag_records"])

        wal_path = primary_wal(fleet)
        wal_before = dir_bytes(wal_path)
        shipped_before = service.stats()["counters"].get("repl_shipped", 0)
        traced = open_loop(fleet, seconds / 2, outcome, rng, sample)
        with_trace = ms(median(check(fleet, traced, outcome)))
        shipped = service.stats()["counters"].get("repl_shipped", 0) - shipped_before
        outcome.metrics = per_layer(fleet, traced, spans, dir_bytes(wal_path) - wal_before,
                                    shipped, lag[0])
        outcome.metrics.update(trace_metrics(base, with_trace, spans))
        return outcome
    finally:
        if fleet is not None:
            stop_fleet(fleet)
