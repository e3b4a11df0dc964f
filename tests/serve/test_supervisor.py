"""Supervisor behaviour: crash detection, restart with WAL replay,
hang detection, crash-loop containment and failover routing.

Each test drives real spawned worker processes — nothing is mocked —
so timings are deliberately generous for slow CI machines.  The
high-volume acceptance soak lives in ``test_sharded_soak.py``.
"""

from __future__ import annotations

import os
import resource
import signal
import time

import pytest

from repro.core.compiler import solve_program
from repro.robust.faults import FaultPlan
from repro.serve import (
    OK,
    QueryRequest,
    ShardDown,
    ShardedQueryService,
    route,
)
from repro.storage.io import dumps_facts

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"v{i}", (37 * i) % 101) for i in range(10)]}


def _expected(seed: int) -> str:
    return dumps_facts(
        solve_program(SORTING, {k: list(v) for k, v in SORT_FACTS.items()}, seed=seed)
    )


def _submit_with_retry(service, request, deadline_s: float = 30.0):
    """Submit, retrying on the typed ``ShardDown`` rejection (the
    documented client contract while every candidate shard is down)."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return service.submit(request)
        except ShardDown as exc:
            if time.monotonic() >= deadline:
                raise
            time.sleep(max(0.02, min(exc.retry_after, 0.25)))


def _wait_for(predicate, timeout: float = 20.0, message: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestCrashRecovery:
    def test_sigkill_mid_flight_restarts_replays_and_loses_nothing(self, tmp_path):
        service = ShardedQueryService(
            shards=2,
            durable_dir=str(tmp_path),
            heartbeat_interval=0.03,
            restart_backoff=0.05,
            stable_after=0.2,
        )
        try:
            tickets = []
            for seed in range(12):
                tickets.append(
                    (seed, _submit_with_retry(service, QueryRequest(SORTING, SORT_FACTS, seed=seed)))
                )
                if seed == 4:
                    victim = service._shards[0]
                    _wait_for(lambda: victim.state == "up" and victim.pid, message="shard 0 up")
                    os.kill(victim.pid, signal.SIGKILL)
            for seed, ticket in tickets:
                response = ticket.response(timeout=90)
                assert response.status == OK, (seed, response.status, response.error)
                assert dumps_facts(response.database) == _expected(seed)
            counters = service.stats()["counters"]
            assert counters["crashes"] >= 1
            assert counters["restarts"] >= 1
            # The killed shard reopened *its own* WAL directory.
            assert (tmp_path / "shard-0").is_dir()
        finally:
            service.close()

    def test_exit_before_ack_is_resent_and_completes(self, tmp_path):
        # The worker dies *after* the inner service finished (and journalled
        # ``done``) but *before* the response crossed the pipe — the classic
        # lost-ack window.  The front door must resend and the rerun must
        # produce the identical model.
        service = ShardedQueryService(
            shards=1,
            durable_dir=str(tmp_path),
            heartbeat_interval=0.03,
            restart_backoff=0.05,
            stable_after=0.2,
            fault_plans=(FaultPlan("shard.ack", "exit", nth=2),),
        )
        try:
            first = service.submit(QueryRequest(SORTING, SORT_FACTS, seed=0))
            assert first.response(timeout=60).status == OK
            second = service.submit(QueryRequest(SORTING, SORT_FACTS, seed=1))
            response = second.response(timeout=90)
            assert response.status == OK
            assert dumps_facts(response.database) == _expected(1)
            counters = service.stats()["counters"]
            assert counters["crashes"] >= 1
            assert counters["resent"] >= 1
        finally:
            service.close()


class TestHangDetection:
    def test_stopped_worker_is_declared_hung_and_replaced(self, tmp_path):
        service = ShardedQueryService(
            shards=1,
            durable_dir=str(tmp_path),
            heartbeat_interval=0.03,
            miss_limit=8,
            restart_backoff=0.05,
            stable_after=0.2,
        )
        try:
            assert service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=0), timeout=60
            ).status == OK
            state = service._shards[0]
            first_pid = state.pid
            os.kill(first_pid, signal.SIGSTOP)  # alive but unresponsive
            _wait_for(
                lambda: state.restarts >= 1 or state.pid not in (None, first_pid),
                timeout=30,
                message="supervisor to replace the stopped worker",
            )
            _wait_for(lambda: state.state == "up", timeout=30, message="replacement up")
            assert state.pid != first_pid
            response = _submit_with_retry(
                service, QueryRequest(SORTING, SORT_FACTS, seed=1)
            ).response(timeout=90)
            assert response.status == OK
            assert dumps_facts(response.database) == _expected(1)
            assert service.stats()["counters"]["crashes"] >= 1
        finally:
            service.close()


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TestNoSpin:
    def test_a_dead_workers_pipe_does_not_spin_the_front_door(self):
        # The supervisor blocks on every live pipe between ticks.  A
        # SIGKILLed worker's pipe is at EOF — readable forever — so it
        # must leave the wait set until the tick reaps the crash, or the
        # front door burns a core for up to an interval.
        service = ShardedQueryService(shards=1, heartbeat_interval=1.0)
        try:
            state = service._shards[0]
            # Shoot right after a tick, so the crash stays unreaped for
            # most of an interval.
            seq = state.ping_seq
            _wait_for(lambda: state.ping_seq != seq, message="a heartbeat tick")
            wall, cpu = time.monotonic(), _cpu_seconds()
            os.kill(state.pid, signal.SIGKILL)
            _wait_for(
                lambda: service.stats()["counters"].get("crashes", 0) >= 1,
                message="the tick to reap the crash",
            )
            wall, cpu = time.monotonic() - wall, _cpu_seconds() - cpu
            assert wall >= 0.5, wall  # long enough to tell a spin
            assert cpu < 0.25 * wall, (cpu, wall)
        finally:
            service.close()


class TestCrashLoopContainment:
    def test_repeated_instant_crashes_end_in_failed_not_spin(self):
        # Every spawned worker exits at its first loop visit, so restarts
        # can never help; the breaker + max_restarts must park the shard
        # as failed instead of spinning forever.
        service = ShardedQueryService(
            shards=1,
            heartbeat_interval=0.02,
            restart_backoff=0.01,
            max_backoff=0.05,
            max_restarts=2,
            start_timeout=0,
            fault_plans=(FaultPlan("shard.loop", "exit", nth=1),),
        )
        try:
            state = service._shards[0]
            _wait_for(lambda: state.state == "failed", timeout=30, message="shard failed")
            assert state.lifetime_restarts <= 6  # bounded, not a hot loop
            with pytest.raises(ShardDown):
                service.submit(QueryRequest(SORTING, SORT_FACTS, seed=0))
            assert service.health()["states"][0] == "failed"
            assert service.stats()["counters"]["failed_shards"] >= 1
        finally:
            service.close()


class TestFailover:
    def test_requests_for_a_down_shard_fail_over_to_the_ring(self):
        service = ShardedQueryService(
            shards=2,
            heartbeat_interval=0.03,
            restart_backoff=5.0,  # keep the victim down for the whole test
            stable_after=0.2,
        )
        try:
            victim_id = 0
            klass = next(
                f"class-{i}" for i in range(64) if route(f"class-{i}", 2) == victim_id
            )
            victim = service._shards[victim_id]
            _wait_for(lambda: victim.state == "up" and victim.pid, message="victim up")
            os.kill(victim.pid, signal.SIGKILL)
            _wait_for(lambda: victim.state != "up", message="crash detected")
            response = _submit_with_retry(
                service, QueryRequest(SORTING, SORT_FACTS, seed=3, klass=klass)
            ).response(timeout=90)
            assert response.status == OK
            assert dumps_facts(response.database) == _expected(3)
            assert service.stats()["counters"]["failover"] >= 1
        finally:
            service.close()

    def test_failover_disabled_rejects_while_the_owner_is_down(self):
        service = ShardedQueryService(
            shards=2,
            heartbeat_interval=0.03,
            restart_backoff=5.0,
            failover=False,
        )
        try:
            victim_id = 1
            klass = next(
                f"class-{i}" for i in range(64) if route(f"class-{i}", 2) == victim_id
            )
            victim = service._shards[victim_id]
            _wait_for(lambda: victim.state == "up" and victim.pid, message="victim up")
            os.kill(victim.pid, signal.SIGKILL)
            _wait_for(lambda: victim.state != "up", message="crash detected")
            with pytest.raises(ShardDown) as excinfo:
                service.submit(QueryRequest(SORTING, SORT_FACTS, seed=0, klass=klass))
            assert excinfo.value.shard_id == victim_id
            assert excinfo.value.retry_after >= 0.0
        finally:
            service.close()
