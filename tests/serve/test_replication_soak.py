"""Replication soak: zero lost requests when every SIGKILL forces a
hot-standby promotion, plus the fencing post-mortem.

The acceptance property from the issue: a multi-thousand-request soak
against a replicated front door (``replicas=1``, ``max_restarts=0`` so a
crash with a warm standby can never be papered over by a restart —
promotion is the recovery path), with confirmed primary SIGKILLs landing
mid-stream.  Every request must still resolve ``ok`` with a model
byte-identical to the unsharded oracle, and afterwards a resurrected
ex-primary on its old WAL slot must provably refuse to publish
(``("fenced", ...)`` before it so much as opens its store).

The killer only shoots a primary whose standby is warm, and just before
each SIGKILL it submits one heavy request (over a second of engine
work) routed to the victim, so every kill lands with that request in
flight and the promoted standby must replay or be resent it; heavy
requests must come back ``ok`` with their oracle model too.  Each kill
is confirmed by the shard's fencing token bumping before it counts; a kill
that loses the warm/crash race (the supervisor defers promotion and
grace-restarts instead) is retried until the milestone's promotion
lands, so ``N_KILLS`` means exactly that many observed promotions.  Any
*incidental* crash — e.g. a worker declared hung under CI load while its
post-promotion standby is still syncing — must never park a shard: the
deferred-promotion grace keeps it serving, and ``failed_shards`` staying
at zero is asserted.

Sizing: PR CI runs ``REPRO_REPL_SOAK_REQUESTS`` (default 1000) with
``REPRO_REPL_KILLS`` (default 3) promotions; nightly raises both via the
same knobs.  ``REPRO_REPL_ARTIFACT_DIR`` preserves the WAL directory for
upload when the invariant fails.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import signal
import threading
import time

from repro.core.compiler import solve_program
from repro.durable import fence_path, read_fence_token
from repro.serve import (
    OK,
    QueryRequest,
    ShardConfig,
    ShardDown,
    ShardedQueryService,
    route,
)
from repro.serve.routing import WAL_SLOTS, wal_slot
from repro.serve.shard import shard_worker_main
from repro.storage.io import dumps_facts

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"v{i}", (37 * i) % 101) for i in range(10)]}

N_REQUESTS = int(os.environ.get("REPRO_REPL_SOAK_REQUESTS", "1000"))
N_KILLS = int(os.environ.get("REPRO_REPL_KILLS", "3"))
N_SHARDS = 2
N_SEEDS = 10  # request i runs seed i % N_SEEDS
N_SUBMITTERS = 4

#: The killer's request: SORTING on enough items for over a second of
#: engine work in a durable shard, so a SIGKILL sent right after it is
#: submitted always lands while it is in flight.
HEAVY_FACTS = {"p": [(f"h{i}", (7919 * i) % 100003) for i in range(6000)]}
#: A program class per shard that ``route`` maps to it.
HEAVY_CLASS = {
    shard: next(
        f"heavy-{i}" for i in range(64) if route(f"heavy-{i}", N_SHARDS) == shard
    )
    for shard in range(N_SHARDS)
}

#: When set (nightly CI), the WAL directory is copied here on failure so
#: both replica slots of every shard can be uploaded as an artifact.
ARTIFACT_DIR = os.environ.get("REPRO_REPL_ARTIFACT_DIR")


def _expected_models():
    return {
        seed: dumps_facts(
            solve_program(
                SORTING, {k: list(v) for k, v in SORT_FACTS.items()}, seed=seed
            )
        )
        for seed in range(N_SEEDS)
    }


def _prove_zombie_is_fenced(wal_root: str, shard_id: int, old_slot: str):
    """Resurrect a worker on the promoted shard's *old* WAL slot with a
    stale token and return the messages it managed to publish.  The
    fence check precedes the store open, so this is exactly what the
    dead ex-primary would see if its process came back."""
    config = ShardConfig(
        workers=1,
        durable_root=wal_root,
        wal_name=wal_slot(shard_id, old_slot),
        fence_token=0,
        fence_file=fence_path(wal_root, shard_id),
    )
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=shard_worker_main, args=(shard_id, child, config), daemon=True
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "resurrected ex-primary refused to stop"
    # Keep whatever was read before the worker's end-of-pipe: the
    # EOFError lands on the poll *after* the buffered messages.
    messages = []
    try:
        while parent.poll(0.1 if not messages else 0.0):
            message = parent.recv()
            if message and message[0] == "batch":
                messages.extend(message[1])
            else:
                messages.append(message)
    except (EOFError, OSError):
        pass
    return messages


def _heavy_request(shard_id: int) -> QueryRequest:
    return QueryRequest(SORTING, HEAVY_FACTS, seed=0, klass=HEAVY_CLASS[shard_id])


def test_replication_soak_every_kill_promotes_zero_lost(tmp_path):
    expected = _expected_models()
    expected_heavy = dumps_facts(solve_program(SORTING, HEAVY_FACTS, seed=0))
    wal_root = tmp_path / "wal"
    service = ShardedQueryService(
        shards=N_SHARDS,
        queue_capacity=N_REQUESTS + 100,
        durable_dir=str(wal_root),
        replicas=1,
        heartbeat_interval=0.03,
        # A saturated CI core can starve a healthy worker for seconds;
        # the default hung trigger (40 missed pings = 1.2s here) would
        # add spurious kills on top of the deliberate ones.
        miss_limit=200,
        restart_backoff=0.05,
        max_backoff=0.5,
        max_restarts=0,  # a kill with a warm standby must promote
        stable_after=0.2,
        start_timeout=120,
    )
    tickets = [None] * N_REQUESTS
    errors = []
    rng = random.Random(0xFE11CE)
    promotions_observed = []  # (shard_id, old_slot, new_token)
    heavy_tickets = []
    submitted = [0]
    submitted_lock = threading.Lock()

    def submitter(lane: int) -> None:
        try:
            for i in range(lane, N_REQUESTS, N_SUBMITTERS):
                request = QueryRequest(SORTING, SORT_FACTS, seed=i % N_SEEDS)
                while True:
                    try:
                        tickets[i] = service.submit(request)
                        break
                    except ShardDown as exc:
                        time.sleep(max(0.02, min(exc.retry_after, 0.25)))
                with submitted_lock:
                    submitted[0] += 1
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append((lane, exc))

    def killer() -> None:
        # One confirmed promotion per evenly spaced submission milestone.
        # A victim qualifies only while up with a *warm* standby, is shot
        # with a heavy request of its own in flight, and the kill is
        # confirmed by its fencing token bumping — under max_restarts=0
        # that bump can only come from a promotion.
        try:
            for k in range(N_KILLS):
                mark = (k + 1) * N_REQUESTS // (N_KILLS + 1)
                while True:
                    with submitted_lock:
                        count = submitted[0]
                    if count >= mark:
                        break
                    time.sleep(0.005)
                deadline = time.monotonic() + 240
                while time.monotonic() < deadline:
                    candidates = [
                        s
                        for s in service._shards
                        if s.state == "up"
                        and s.pid
                        and s.handle.alive()
                        and s.standby_state == "warm"
                    ]
                    if not candidates:
                        time.sleep(0.01)
                        continue
                    victim = rng.choice(candidates)
                    token_before = victim.fence_token
                    old_slot = victim.slot
                    try:
                        heavy = service.submit(
                            _heavy_request(victim.handle.shard_id)
                        )
                    except ShardDown:
                        continue
                    heavy_tickets.append(heavy)
                    with service._pending_lock:
                        entry = service._pending.get(heavy.request_id)
                    if entry is None or entry.shard_id != victim.handle.shard_id:
                        continue  # the victim went down under us: pick again
                    try:
                        os.kill(victim.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        continue
                    confirm_by = min(deadline, time.monotonic() + 30)
                    while (
                        time.monotonic() < confirm_by
                        and victim.fence_token == token_before
                    ):
                        time.sleep(0.01)
                    if victim.fence_token > token_before:
                        promotions_observed.append(
                            (victim.handle.shard_id, old_slot, victim.fence_token)
                        )
                        break
                    # The warm check lost the race against the crash
                    # handler (the supervisor deferred promotion and
                    # grace-restarted instead): this kill does not
                    # count — pick another victim.
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(("killer", exc))

    try:
        threads = [
            threading.Thread(target=submitter, args=(lane,), name=f"submit-{lane}")
            for lane in range(N_SUBMITTERS)
        ]
        threads.append(threading.Thread(target=killer, name="killer"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not errors, errors

        lost = []
        wrong = []
        for i, ticket in enumerate(tickets):
            assert ticket is not None, f"request {i} was never submitted"
            try:
                response = ticket.response(timeout=300)
            except TimeoutError:
                lost.append(i)
                continue
            if response.status != OK:
                lost.append((i, response.status, str(response.error)))
                continue
            if dumps_facts(response.database) != expected[i % N_SEEDS]:
                wrong.append(i)
        for ticket in heavy_tickets:
            response = ticket.response(timeout=300)
            assert response.status == OK, (response.status, response.error)
            assert dumps_facts(response.database) == expected_heavy

        counters = service.stats()["counters"]
        try:
            assert lost == [], f"lost/failed requests: {lost[:10]} (counters={counters})"
            assert wrong == [], f"non-deterministic models for: {wrong[:10]}"
            assert len(promotions_observed) == N_KILLS, (
                f"only {promotions_observed} promotions landed (counters={counters})"
            )
            assert counters["promotions"] >= N_KILLS
            assert counters["crashes"] >= N_KILLS
            # Deferred-promotion grace means incidental crashes (a hung
            # verdict under CI load while the fresh standby still syncs)
            # restart rather than park — but no shard may ever be lost.
            assert counters.get("failed_shards", 0) == 0, counters
            assert counters["repl_shipped"] >= 1
            # Journalled work survived the hand-offs: the promoted
            # standbys replayed their replica logs and/or the front door
            # resent what died in the pipe.
            assert counters.get("recovered", 0) + counters.get("resent", 0) >= 1, counters
        except AssertionError:
            if ARTIFACT_DIR:
                target = os.path.join(ARTIFACT_DIR, f"repl-soak-{os.getpid()}")
                shutil.copytree(str(wal_root), target, dirs_exist_ok=True)
            raise
    finally:
        service.close()

    # Post-mortem 1: the fencing proof.  For every promotion, bring the
    # dead ex-primary back on its old slot with its stale token: it must
    # report ("fenced", <current token>, 0) and publish nothing else —
    # not even "ready".
    assert promotions_observed, "soak ended without a single promotion"
    for shard_id, old_slot, _token in promotions_observed:
        current = read_fence_token(fence_path(str(wal_root), shard_id))
        assert current >= 1
        messages = _prove_zombie_is_fenced(str(wal_root), shard_id, old_slot)
        assert ("fenced", current, 0) in messages, messages
        assert all(m[0] == "fenced" for m in messages), messages

    # Post-mortem 2: every replica slot that exists is intact and owned
    # by nobody — each one opens (exclusively) as a real store.
    from repro.durable import CheckpointStore

    for shard_id in range(N_SHARDS):
        for slot in WAL_SLOTS:
            root = os.path.join(str(wal_root), wal_slot(shard_id, slot))
            if not os.path.isdir(root):
                continue
            store = CheckpointStore(root, exclusive=True)
            store.close()
