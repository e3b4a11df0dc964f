"""Serving-layer replication: live WAL shipping, hot-standby promotion,
fencing, and anti-entropy catch-up.

Each test drives real spawned worker processes through the
:class:`~repro.serve.supervisor.ShardedQueryService` front door (the
fencing tests run ``shard_worker_main`` directly on an in-process pipe
so both ends of the protocol are observable).  The durable mechanism
underneath — manifests, fence files, the ReplicaWal — is proven
in-process in ``tests/durable/test_replication.py``; the high-volume
acceptance soak lives in ``test_replication_soak.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.compiler import solve_program
from repro.durable import fence_path, write_fence_token
from repro.durable.wal import frame
from repro.robust.faults import FaultPlan
from repro.serve import (
    OK,
    QueryRequest,
    ShardConfig,
    ShardDown,
    ShardedQueryService,
)
from repro.serve import shard as shard_module
from repro.serve.routing import wal_slot
from repro.serve.shard import shard_worker_main
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
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return service.submit(request)
        except ShardDown as exc:
            if time.monotonic() >= deadline:
                raise
            time.sleep(max(0.02, min(exc.retry_after, 0.25)))


def _wait_for(predicate, timeout: float = 30.0, message: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _service(tmp_path, **overrides):
    kwargs = dict(
        shards=1,
        durable_dir=str(tmp_path),
        replicas=1,
        heartbeat_interval=0.03,
        restart_backoff=0.05,
        stable_after=0.2,
        start_timeout=60,
    )
    kwargs.update(overrides)
    return ShardedQueryService(**kwargs)


def _shard(service, k: int = 0):
    return service.stats()["shards"][k]


def _counters(service):
    return service.stats()["counters"]


def _slot_bytes(durable_dir: str, shard_id: int, slot: str):
    """``{segment name: bytes}`` for one WAL slot (read-only; safe to
    call while the owning process is live)."""
    root = os.path.join(durable_dir, wal_slot(shard_id, slot))
    out = {}
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return out
    for name in sorted(names):
        if name.startswith("wal-") and name.endswith(".log"):
            with open(os.path.join(root, name), "rb") as handle:
                out[name] = handle.read()
    return out


class TestShipping:
    def test_standby_converges_to_byte_identical_segments(self, tmp_path):
        service = _service(tmp_path)
        try:
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            for seed in range(4):
                response = service.evaluate(
                    QueryRequest(SORTING, SORT_FACTS, seed=seed), timeout=60
                )
                assert response.status == OK
            # The ship stream is asynchronous: wait for the replica to
            # drain it, then for the slots to agree byte for byte.
            _wait_for(
                lambda: _shard(service)["replication_lag_records"] == 0,
                message="replication lag 0",
            )
            _wait_for(
                lambda: _slot_bytes(str(tmp_path), 0, "a")
                == _slot_bytes(str(tmp_path), 0, "b")
                and _slot_bytes(str(tmp_path), 0, "a"),
                message="slot convergence",
            )
            counters = _counters(service)
            assert counters["repl_shipped"] >= 4
            assert counters.get("repl_diverged", 0) == 0
            assert _shard(service)["slot"] == "a"
            assert _shard(service)["fence_token"] == 0
        finally:
            service.close()

    def test_standby_warms_without_waiting_for_a_tick(self, tmp_path):
        # Sync request, manifest, segment fetches and the warm report are
        # relayed as they arrive, not one hop per heartbeat.
        interval = 2.0
        started = time.monotonic()
        service = _service(tmp_path, heartbeat_interval=interval)
        try:
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            elapsed = time.monotonic() - started
        finally:
            service.close()
        assert elapsed < interval / 2, elapsed


class TestPromotion:
    def test_sigkill_promotes_the_warm_standby_and_loses_nothing(self, tmp_path):
        # max_restarts=0: the first crash must promote, not restart.
        service = _service(tmp_path, max_restarts=0)
        try:
            warm = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=0), timeout=60
            )
            assert warm.status == OK
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            tickets = [
                (seed, _submit_with_retry(service, QueryRequest(SORTING, SORT_FACTS, seed=seed)))
                for seed in range(1, 7)
            ]
            os.kill(_shard(service)["pid"], signal.SIGKILL)
            for seed, ticket in tickets:
                response = ticket.response(timeout=120)
                assert response.status == OK, (seed, response.status, response.error)
                assert dumps_facts(response.database) == _expected(seed)
            shard = _shard(service)
            assert shard["state"] == "up"
            assert shard["slot"] == "b"
            assert shard["fence_token"] == 1
            counters = _counters(service)
            assert counters["promotions"] == 1
            assert counters.get("restarts", 0) == 0
            # The promoted primary gets its own fresh standby, which
            # rebuilds the dead primary's slot via anti-entropy.
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="fresh standby warm",
            )
            assert _counters(service)["standby_spawns"] >= 2
            # ... and the promoted primary ships to it.
            shipped = _counters(service)["repl_shipped"]
            after = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=9), timeout=60
            )
            assert after.status == OK
            assert dumps_facts(after.database) == _expected(9)
            _wait_for(
                lambda: _counters(service)["repl_shipped"] > shipped
                and _shard(service)["replication_lag_records"] == 0,
                message="post-promotion shipping",
            )
        finally:
            service.close()

    @pytest.mark.parametrize("nth", [1, 3])
    def test_crash_at_the_ship_hook_promotes_an_exact_prefix(self, tmp_path, nth):
        """The worst promotion window: the primary dies *inside* the ship
        hook — the record is fsynced in its own log but never reaches the
        standby.  The promoted standby serves the resent request from an
        exact prefix, and the stale slot (which holds the unshipped
        record, and lacks the promotion fence stamp) is detected as
        diverged and rebuilt — never silently trusted."""
        service = _service(
            tmp_path,
            max_restarts=0,
            fault_plans=(FaultPlan("repl.ship", "exit", nth=nth),),
            # Chaos scoped to primaries: standbys (and therefore promoted
            # primaries) install no injector, so the resent request cannot
            # re-trip the same countdown in the new primary.
            standby_fault_plans=(),
        )
        try:
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            tickets = [
                (seed, _submit_with_retry(service, QueryRequest(SORTING, SORT_FACTS, seed=seed)))
                for seed in range(4)
            ]
            for seed, ticket in tickets:
                response = ticket.response(timeout=120)
                assert response.status == OK, (seed, response.status, response.error)
                assert dumps_facts(response.database) == _expected(seed)
            shard = _shard(service)
            assert shard["slot"] == "b"
            assert shard["fence_token"] == 1
            assert _counters(service)["promotions"] == 1
            # The stale ex-primary slot provably diverged (unshipped
            # suffix vs the promoted log's fence stamp) and was rebuilt.
            _wait_for(
                lambda: _counters(service).get("repl_diverged", 0) >= 1
                and _shard(service)["standby_state"] == "warm",
                message="stale slot rebuilt as diverged",
            )
        finally:
            service.close()

    def test_crash_before_warm_defers_promotion_and_restarts(self, tmp_path):
        """A crash while nothing is promotable must not park the shard:
        the standby syncs *through* the primary, so FAILED here would
        strand a replica that is seconds from warm.  The supervisor
        spends promotion grace on an in-place restart instead, and the
        next crash with a warm standby promotes as usual."""
        service = _service(tmp_path, max_restarts=0)
        try:
            warm = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=0), timeout=60
            )
            assert warm.status == OK
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            # Take the standby out, wait for the supervisor to notice,
            # then shoot the primary while nothing is promotable.
            os.kill(service._shards[0].standby_pid, signal.SIGKILL)
            _wait_for(
                lambda: _shard(service)["standby_state"] != "warm",
                message="standby loss noticed",
            )
            os.kill(_shard(service)["pid"], signal.SIGKILL)
            _wait_for(
                lambda: _counters(service).get("promote_deferred", 0) >= 1,
                message="deferred promotion",
            )
            _wait_for(
                lambda: _shard(service)["state"] == "up",
                message="grace-restarted primary back up",
            )
            # Same slot, same token: a restart, not a promotion — and
            # decidedly not a parked shard.
            shard = _shard(service)
            assert shard["slot"] == "a"
            assert shard["fence_token"] == 0
            counters = _counters(service)
            assert counters.get("promotions", 0) == 0
            assert counters.get("failed_shards", 0) == 0
            assert counters.get("restarts", 0) >= 1
            response = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=1), timeout=60
            )
            assert response.status == OK
            assert dumps_facts(response.database) == _expected(1)
            # Once the rebuilt standby warms, promotion works as ever.
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm again",
            )
            os.kill(_shard(service)["pid"], signal.SIGKILL)
            _wait_for(
                lambda: _shard(service)["fence_token"] == 1,
                timeout=60,
                message="promotion after the grace window",
            )
            assert _shard(service)["slot"] == "b"
        finally:
            service.close()


class TestFencedZombie:
    """``shard_worker_main`` run on an in-process pipe: both fencing
    checkpoints (before startup, before every publish) observable
    without a supervisor in the way."""

    @staticmethod
    def _start(tmp_path, config):
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=shard_worker_main, args=(0, child, config), daemon=True
        )
        thread.start()
        return parent, thread

    @staticmethod
    def _config(tmp_path):
        return ShardConfig(
            workers=1,
            durable_root=str(tmp_path),
            fence_file=fence_path(str(tmp_path), 0),
        )

    @staticmethod
    def _drain(conn, timeout=0.1):
        # Not ``shard._drain_inbox``: that raises ``EOFError`` on the
        # poll *after* the buffered messages once the worker closes its
        # end, which would discard what was already read.
        messages = []
        try:
            while conn.poll(timeout if not messages else 0.0):
                message = conn.recv()
                if message and message[0] == "batch":
                    messages.extend(message[1])
                else:
                    messages.append(message)
        except (EOFError, OSError):
            pass
        return messages

    def _collect_until_exit(self, conn, thread, timeout=60.0):
        deadline = time.monotonic() + timeout
        messages = []
        while time.monotonic() < deadline:
            messages.extend(self._drain(conn))
            if not thread.is_alive():
                break
        thread.join(timeout=10)
        assert not thread.is_alive(), "worker did not stop after fencing"
        messages.extend(self._drain(conn))
        return messages

    def test_startup_fenced_worker_reports_and_never_serves(self, tmp_path):
        write_fence_token(fence_path(str(tmp_path), 0), 2)
        parent, thread = self._start(tmp_path, self._config(tmp_path))
        messages = self._collect_until_exit(parent, thread)
        assert ("fenced", 2, 0) in messages
        kinds = [m[0] for m in messages]
        assert "ready" not in kinds  # refused before opening the store
        assert "response" not in kinds

    def test_fence_written_mid_run_blocks_every_response(self, tmp_path):
        parent, thread = self._start(tmp_path, self._config(tmp_path))
        _wait_for(
            lambda: any(m[0] == "ready" for m in self._drain(parent)),
            message="worker ready",
        )
        # Fence first, submit second: the worker re-checks the fence
        # before publishing any response, so the submitted request can
        # run but its answer must never cross the pipe.
        write_fence_token(fence_path(str(tmp_path), 0), 5)
        try:
            parent.send(
                ("submit", 1, QueryRequest(SORTING, SORT_FACTS).to_payload())
            )
        except (BrokenPipeError, OSError):
            pass  # already fenced out on an idle check — equally a refusal
        messages = self._collect_until_exit(parent, thread)
        assert ("fenced", 5, 0) in messages
        assert all(m[0] != "response" for m in messages)

    def test_fence_written_before_close_blocks_the_drained_responses(
        self, tmp_path, monkeypatch
    ):
        """A request still running when ``("close",)`` arrives finishes
        during the drain, and its response is a publish like any other:
        a fence written meanwhile must block it too."""
        # A frozen clock never brings the idle-time fence re-check due,
        # so the only checks left are the ones before a publish.
        monkeypatch.setattr(shard_module, "_now", lambda: 0.0)
        parent, thread = self._start(tmp_path, self._config(tmp_path))
        _wait_for(
            lambda: any(m[0] == "ready" for m in self._drain(parent)),
            message="worker ready",
        )
        heavy = {"p": [(f"h{i}", (7919 * i) % 4001) for i in range(4000)]}
        parent.send(("submit", 1, QueryRequest(SORTING, heavy).to_payload()))
        parent.send(("ping", 1))
        _wait_for(
            lambda: any(
                m[0] == "pong" and m[3] == 1 for m in self._drain(parent)
            ),
            message="request in flight",
        )
        write_fence_token(fence_path(str(tmp_path), 0), 5)
        parent.send(("close",))
        messages = self._collect_until_exit(parent, thread)
        assert ("fenced", 5, 0) in messages
        kinds = [m[0] for m in messages]
        assert "response" not in kinds
        assert "bye" not in kinds


class TestAntiEntropy:
    def test_divergent_slot_is_rebuilt_never_promoted(self, tmp_path):
        """A standby slot pre-seeded with alien history: the standby
        must detect the divergence (counter + rebuilt), come up warm on
        the primary's exact bytes, and the primary keeps slot "a"."""
        slot_b = tmp_path / wal_slot(0, "b")
        os.makedirs(slot_b)
        junk = frame(b'{"kind":"done","rid":"ghost"}')
        for name in ("wal-00000001.log", "wal-00000009.log"):
            with open(slot_b / name, "wb") as handle:
                handle.write(junk)
        service = _service(tmp_path)
        try:
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm"
                and _counters(service).get("repl_diverged", 0) >= 1,
                message="diverged slot rebuilt",
            )
            shard = _shard(service)
            assert shard["slot"] == "a"
            assert shard["fence_token"] == 0
            response = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=0), timeout=60
            )
            assert response.status == OK
            assert dumps_facts(response.database) == _expected(0)
        finally:
            service.close()

    def test_killed_standby_is_respawned_and_resynced(self, tmp_path):
        service = _service(tmp_path)
        try:
            _wait_for(
                lambda: _shard(service)["standby_state"] == "warm",
                message="standby warm",
            )
            assert _counters(service)["standby_spawns"] == 1
            os.kill(service._shards[0].standby_pid, signal.SIGKILL)
            _wait_for(
                lambda: _counters(service)["standby_spawns"] >= 2
                and _shard(service)["standby_state"] == "warm",
                message="standby respawned and warm",
            )
            # The primary never wavered.
            counters = _counters(service)
            assert counters.get("promotions", 0) == 0
            assert counters.get("crashes", 0) == 0
            response = service.evaluate(
                QueryRequest(SORTING, SORT_FACTS, seed=1), timeout=60
            )
            assert response.status == OK
        finally:
            service.close()
