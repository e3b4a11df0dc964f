"""Cross-process soak: zero lost requests under random SIGKILLs.

The acceptance property from the issue: a multi-thousand-request soak
against the sharded front door while worker processes are SIGKILLed at
random points, and **every** request still resolves ``ok`` with a model
byte-identical to the unsharded oracle — killed shards' WALs are
replayed through ``recover()`` on restart and unacked work is resent.

Kill coverage is deterministic: just before each SIGKILL the killer
submits one heavy request (over a second of engine work) routed to the
victim, so every kill lands with that request in flight and the
restarted shard must replay or be resent it.  Heavy requests must come
back ``ok`` with their oracle model too.

``ShardDown`` is a *typed, expected* rejection while every candidate
shard is simultaneously down (a kill landing during another shard's
restart window); the documented client contract is to retry after the
hint, which the submitters here do.  Nothing is lost either way: a
rejected submission never entered the system.

Sizing: PR CI runs ``REPRO_SHARD_SOAK_REQUESTS`` (default 1000) with
three kills; nightly raises the request count and kill count via the
same knobs.  ``REPRO_SHARD_ARTIFACT_DIR`` preserves the WAL directory
for upload when the invariant fails.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import threading
import time

from repro.core.compiler import solve_program
from repro.serve import OK, QueryRequest, ShardDown, ShardedQueryService, route
from repro.storage.io import dumps_facts

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"v{i}", (37 * i) % 101) for i in range(10)]}

N_REQUESTS = int(os.environ.get("REPRO_SHARD_SOAK_REQUESTS", "1000"))
N_KILLS = int(os.environ.get("REPRO_SHARD_SOAK_KILLS", "3"))
N_SHARDS = int(os.environ.get("REPRO_SHARD_WORKERS", "2"))
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

#: When set (nightly CI), the shard WAL directory is copied here on
#: failure so the run's journals can be uploaded as a debugging artifact.
ARTIFACT_DIR = os.environ.get("REPRO_SHARD_ARTIFACT_DIR")


def _expected_models():
    return {
        seed: dumps_facts(
            solve_program(
                SORTING, {k: list(v) for k, v in SORT_FACTS.items()}, seed=seed
            )
        )
        for seed in range(N_SEEDS)
    }


def _heavy_request(shard_id: int) -> QueryRequest:
    return QueryRequest(SORTING, HEAVY_FACTS, seed=0, klass=HEAVY_CLASS[shard_id])


def test_sharded_soak_zero_lost_under_random_sigkills(tmp_path):
    expected = _expected_models()
    expected_heavy = dumps_facts(solve_program(SORTING, HEAVY_FACTS, seed=0))
    wal_root = tmp_path / "wal"
    service = ShardedQueryService(
        shards=N_SHARDS,
        # Admission control is exercised elsewhere (test_admission.py);
        # here every request must be *accepted* so that zero-loss means
        # "survived the kills", not "was politely shed".
        queue_capacity=N_REQUESTS + 100,
        durable_dir=str(wal_root),
        heartbeat_interval=0.03,
        restart_backoff=0.05,
        max_backoff=0.5,
        max_restarts=50,  # kills are exogenous, never a crash loop
        stable_after=0.2,
    )
    tickets = [None] * N_REQUESTS
    errors = []
    rng = random.Random(0xC0FFEE)
    kills = []
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
        # One confirmed SIGKILL per evenly spaced submission milestone —
        # mid-stream by construction.  Each kill targets a *live* up
        # shard with a heavy request of its own in flight, and waits for
        # the supervisor to respawn it (generation bump) before arming
        # the next one, so every entry in ``kills`` is a distinct
        # observed crash, never a shot at a corpse or an idle shard.
        try:
            for k in range(N_KILLS):
                mark = (k + 1) * N_REQUESTS // (N_KILLS + 1)
                while True:
                    with submitted_lock:
                        count = submitted[0]
                    if count >= mark:
                        break
                    time.sleep(0.005)
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    candidates = [
                        s
                        for s in service._shards
                        if s.state == "up" and s.pid and s.handle.alive()
                    ]
                    if not candidates:
                        time.sleep(0.01)
                        continue
                    victim = rng.choice(candidates)
                    generation = victim.handle.generation
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
                    kills.append(victim.handle.shard_id)
                    while (
                        time.monotonic() < deadline
                        and victim.handle.generation == generation
                    ):
                        time.sleep(0.01)
                    break
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
            assert len(kills) == N_KILLS, f"only {kills} landed"
            assert counters["crashes"] >= len(kills)
            assert counters["restarts"] >= len(kills)
            # Every kill left journalled work behind: the restarted shards
            # replayed their WALs (recovered) and/or the front door resent
            # what died in the pipe — both paths go through recover().
            assert counters.get("recovered", 0) + counters.get("resent", 0) >= 1, counters
        except AssertionError:
            if ARTIFACT_DIR:
                target = os.path.join(
                    ARTIFACT_DIR, f"sharded-soak-{os.getpid()}"
                )
                shutil.copytree(str(wal_root), target, dirs_exist_ok=True)
            raise
    finally:
        service.close()

    # Post-mortem: every shard's WAL is intact and owned by nobody.
    from repro.durable import CheckpointStore

    roots = CheckpointStore.shard_roots(str(wal_root))
    assert set(roots) == set(range(N_SHARDS))
