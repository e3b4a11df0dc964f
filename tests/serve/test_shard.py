"""Shard building blocks: routing, the wire codec, and one shard's
worker loop, driven end to end through a real spawned process and on
an in-process thread (where its loop passes can be counted).

The supervisor-level properties (crash detection, restart, WAL replay,
failover) live in ``test_supervisor.py``; the full acceptance soak lives
in ``test_sharded_soak.py``.
"""

from __future__ import annotations

import multiprocessing
import queue
import sys
import threading
import time

import pytest

from repro.core.compiler import solve_program
from repro.errors import BudgetExceeded
from repro.robust.faults import FaultPlan
from repro.serve import (
    DEGRADED,
    FAILED,
    OK,
    SHED,
    QueryRequest,
    QueryResponse,
    ShardConfig,
    ShardedQueryService,
    ShardError,
    failover_order,
    route,
)
from repro.serve.errors import CircuitOpen, Overloaded
from repro.serve.shard import (
    ShardHandle,
    _decode_database,
    _decode_error,
    _encode_database,
    _encode_error,
    decode_response,
    encode_response,
    shard_worker_main,
)
from repro.storage.io import dumps_facts

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"v{i}", (37 * i) % 101) for i in range(10)]}

#: Enough items for a few hundred milliseconds of engine work.
LONG_SORT_FACTS = {"p": [(f"v{i}", (7919 * i) % 100003) for i in range(6000)]}

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


class TestRouting:
    def test_route_is_stable_and_in_range(self):
        for shards in (1, 2, 3, 7):
            for klass in ("rql:deadbeef", "basic:cafe0000", "custom"):
                first = route(klass, shards)
                assert 0 <= first < shards
                assert route(klass, shards) == first

    def test_route_spreads_classes(self):
        # sha256 placement should not dump every class on one shard.
        owners = {route(f"rql:{i:08x}", 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_failover_order_is_a_permutation_starting_at_the_owner(self):
        order = failover_order("rql:deadbeef", 5)
        assert sorted(order) == [0, 1, 2, 3, 4]
        assert order[0] == route("rql:deadbeef", 5)
        # Ring order: each next entry is the successor mod shards.
        for a, b in zip(order, order[1:]):
            assert b == (a + 1) % 5

    def test_route_rejects_nonpositive_shard_counts(self):
        with pytest.raises(ValueError):
            route("k", 0)


class TestWireCodec:
    def test_database_round_trip_preserves_every_fact(self):
        db = solve_program(
            SORTING, {k: list(v) for k, v in SORT_FACTS.items()}, seed=3
        )
        decoded = _decode_database(_encode_database(db))
        assert dumps_facts(decoded) == dumps_facts(db)

    def test_ok_response_round_trip(self):
        db = solve_program(PATH, {"edge": [(1, 2), (2, 3)]}, seed=0)
        response = QueryResponse(
            request_id=7,
            status=OK,
            database=db,
            attempts=2,
            retries=1,
            latency_s=0.25,
            queue_s=0.03,
        )
        wire = encode_response(response)
        back = decode_response(7, wire)
        assert back.request_id == 7
        assert back.status == OK
        assert back.attempts == 2 and back.retries == 1
        assert back.latency_s == pytest.approx(0.25)
        assert back.queue_s == pytest.approx(0.03)
        assert dumps_facts(back.database) == dumps_facts(db)

    def test_failed_response_reconstructs_a_typed_error(self):
        response = QueryResponse(
            request_id=1,
            status=FAILED,
            error=BudgetExceeded("wall clock exhausted"),
        )
        back = decode_response(1, encode_response(response))
        assert back.status == FAILED
        assert isinstance(back.error, BudgetExceeded)
        assert "wall clock" in str(back.error)

    def test_shed_response_keeps_the_retry_hint(self):
        response = QueryResponse(
            request_id=2,
            status=SHED,
            error=Overloaded("queue full", retry_after=1.5),
        )
        back = decode_response(2, encode_response(response))
        assert isinstance(back.error, Overloaded)
        assert back.error.retry_after == pytest.approx(1.5)

    def test_circuit_open_survives_the_pipe(self):
        decoded = _decode_error(
            _encode_error(CircuitOpen("k", retry_after=0.4))
        )
        assert isinstance(decoded, CircuitOpen)
        assert decoded.retry_after == pytest.approx(0.4)

    def test_unknown_error_type_degrades_to_shard_error(self):
        decoded = _decode_error(
            {"type": "NoSuchError", "message": "boom", "retry_after": 0.0}
        )
        assert isinstance(decoded, ShardError)
        assert "NoSuchError" in str(decoded)
        assert "boom" in str(decoded)


class TestInjectableClock:
    """The worker's latency stamps come from the module-level ``_now``
    hook, so tests can pin shard-side timings instead of sleeping."""

    def test_rejection_latency_uses_the_injected_clock(self, monkeypatch):
        from repro.serve import shard

        ticks = iter([10.0, 10.25])
        monkeypatch.setattr(shard, "_now", lambda: next(ticks))
        started = shard._now()
        wire = shard._rejection_response(
            Overloaded("queue full", retry_after=1.5), started
        )
        assert wire["status"] == SHED
        assert wire["latency_s"] == pytest.approx(0.25)
        assert wire["queue_s"] == 0.0

    def test_non_rejection_errors_stamp_failed(self, monkeypatch):
        from repro.serve import shard

        monkeypatch.setattr(shard, "_now", lambda: 5.0)
        wire = shard._rejection_response(BudgetExceeded("deadline"), 4.0)
        assert wire["status"] == FAILED
        assert wire["latency_s"] == pytest.approx(1.0)
        decoded = _decode_error(wire["error"])
        assert isinstance(decoded, BudgetExceeded)


class TestShardConfig:
    def test_defaults_are_frozen(self):
        config = ShardConfig()
        assert config.workers == 1
        assert config.durable_root is None
        with pytest.raises(Exception):
            config.workers = 2  # type: ignore[misc]


class TestOneShardEndToEnd:
    def test_requests_route_to_real_processes_and_come_back(self):
        service = ShardedQueryService(shards=2, heartbeat_interval=0.03)
        try:
            expected = {
                seed: dumps_facts(
                    solve_program(
                        SORTING,
                        {k: list(v) for k, v in SORT_FACTS.items()},
                        seed=seed,
                    )
                )
                for seed in range(4)
            }
            tickets = [
                (seed, service.submit(QueryRequest(SORTING, SORT_FACTS, seed=seed)))
                for seed in range(4)
            ]
            for seed, ticket in tickets:
                response = ticket.response(timeout=60)
                assert response.status == OK
                assert dumps_facts(response.database) == expected[seed]
            stats = service.stats()
            assert stats["counters"]["ok"] == 4
            assert stats["pending"] == 0
        finally:
            service.close()
        assert all(s["state"] == "stopped" for s in service.stats()["shards"].values())

    def test_evaluate_degraded_result_crosses_the_pipe(self):
        service = ShardedQueryService(
            shards=1,
            heartbeat_interval=0.03,
            default_budget_wall_clock=None,
        )
        try:
            from repro.robust.governor import Budget

            response = service.evaluate(
                QueryRequest(
                    "nat(0). nat(Y) <- nat(X), Y = X + 1.",
                    {},
                    seed=0,
                    budget=Budget(max_facts=64),
                ),
                timeout=60,
            )
            assert response.status == DEGRADED
            # The checkpoint crossed the pipe and is resumable locally.
            assert response.checkpoint is not None
        finally:
            service.close()

    def test_close_is_idempotent_and_context_manager_works(self):
        with ShardedQueryService(shards=1, heartbeat_interval=0.03) as service:
            assert service.evaluate(
                QueryRequest(PATH, {"edge": [(1, 2)]}), timeout=60
            ).status == OK
        service.close()  # second close is a no-op


class _ClosesWhenPickled:
    """A payload whose pickling closes *conn*: the race where another
    thread closes the pipe after ``send`` checked it but before the
    pickled bytes are written."""

    def __init__(self, conn):
        self.conn = conn

    def __reduce__(self):
        self.conn.close()
        return (str, ("",))


class TestSenderThread:
    def test_pipe_closed_mid_send_ends_the_sender_quietly(self):
        # The supervisor closes a dead worker's pipe from its own thread;
        # a sender thread caught mid-send must exit, not die raising.
        parent, child = multiprocessing.Pipe()
        outbox = queue.Queue()
        outbox.put(("submit", 1, _ClosesWhenPickled(parent)))
        ShardHandle._send_loop(parent, outbox)  # returns instead of raising
        assert parent.closed
        child.close()


class TestDeliveryOnArrival:
    """Responses cross the pipe when they exist, not on the supervisor's
    next tick: with a 2 s heartbeat, a fresh one-shard fleet comes up
    and answers five requests back to back well inside one interval."""

    def test_ready_and_answers_do_not_wait_for_a_tick(self):
        interval = 2.0
        started = time.monotonic()
        service = ShardedQueryService(shards=1, heartbeat_interval=interval)
        try:
            for i in range(5):
                response = service.evaluate(
                    QueryRequest(PATH, {"edge": [(1, 2), (2, i)]}), timeout=60
                )
                assert response.status == OK
            elapsed = time.monotonic() - started
        finally:
            service.close()
        assert elapsed < interval / 2, elapsed


class _PipeReader:
    """The test's end of an in-process worker's pipe, batches unwrapped."""

    def __init__(self, conn):
        self.conn = conn
        self.backlog = []

    def next(self, kind: str, timeout: float = 60.0):
        """Read until a message of *kind* arrives, skipping the rest."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.backlog:
                if self.conn.poll(0.05):
                    message = self.conn.recv()
                    batch = message[0] == "batch"
                    self.backlog = list(message[1]) if batch else [message]
                continue
            message = self.backlog.pop(0)
            if message[0] == kind:
                return message
        raise AssertionError(f"no {kind!r} message within {timeout}s")


def _start_worker(config):
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=shard_worker_main, args=(0, child, config), daemon=True
    )
    thread.start()
    reader = _PipeReader(parent)
    reader.next("recovered")
    return parent, reader, thread


class TestWorkerLoopBlocks:
    """The worker loop sleeps on its pipe and a wakeup fd while a request
    runs instead of polling the pipe, so it makes a few passes per
    request, however long the request takes."""

    def test_loop_passes_stay_constant_while_a_request_runs(self):
        from repro.robust import faults

        config = ShardConfig(
            workers=1,
            # Never fires: it installs the injector whose per-site visit
            # counter counts the loop's passes.
            fault_plans=(FaultPlan("shard.loop", "error", nth=10**9),),
        )
        parent, reader, thread = _start_worker(config)
        try:
            injector = faults._SHARD_HOOK
            before = injector.hits["shard.loop"]
            parent.send(
                ("submit", 1, QueryRequest(SORTING, LONG_SORT_FACTS).to_payload())
            )
            message = reader.next("response")
            passes = injector.hits["shard.loop"] - before
            response = decode_response(1, message[2])
            assert response.status == OK
            assert response.latency_s >= 0.1, response.latency_s
            assert passes <= 5, passes
        finally:
            parent.send(("close",))
            thread.join(timeout=30)
            faults.install(None)
        assert not thread.is_alive()

    def test_no_finished_ticket_is_missed_under_thread_churn(self, tmp_path):
        # While work is in flight the loop sleeps with no timeout, so a
        # lost wakeup for the last ticket of a burst would strand its
        # response for good.  Bursts of tickets and shipped records
        # finish on more worker threads than cores, with the interpreter
        # switching threads as often as it can.
        bursts, size = 80, 8
        config = ShardConfig(
            workers=4,
            queue_capacity=size,
            durable_root=str(tmp_path),
            fsync="never",
            replicate=True,
        )
        parent, reader, thread = _start_worker(config)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        answered = 0
        try:
            for burst in range(bursts):
                rids = range(burst * size, (burst + 1) * size)
                # One write per burst: the worker may answer while we
                # would still be sending.
                parent.send(
                    (
                        "batch",
                        [
                            (
                                "submit",
                                rid,
                                QueryRequest(
                                    PATH, {"edge": [(1, 2), (2, rid)]}
                                ).to_payload(),
                            )
                            for rid in rids
                        ],
                    )
                )
                seen = set()
                while len(seen) < size:
                    message = reader.next("response", timeout=30)
                    assert decode_response(message[1], message[2]).status == OK
                    seen.add(message[1])
                assert seen == set(rids)
                answered += len(seen)
        finally:
            sys.setswitchinterval(switch)
            parent.send(("close",))
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert answered == bursts * size
