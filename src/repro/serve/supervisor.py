"""The sharded front door and its crash supervisor.

:class:`ShardedQueryService` is the process-level analogue of
:class:`~repro.serve.service.QueryService`: callers submit
:class:`~repro.serve.request.QueryRequest`\\ s and get
:class:`~repro.serve.service.Ticket`\\ s back, but the work runs in N
worker **processes** (:mod:`repro.serve.shard`), routed by program
fingerprint (:mod:`repro.serve.routing`) so each shard's plan cache and
failure history stay hot for the programs it owns.

The robustness core is the :class:`Supervisor` — one thread driving a
per-shard state machine::

    STARTING --(ready+recovered)--> UP
    UP  --(missed heartbeats)-----> SUSPECT --(more misses: kill)--> DOWN
    UP / SUSPECT --(process died)-> DOWN
    DOWN --(backoff elapsed)------> STARTING   (same WAL shard)
    DOWN --(restart budget spent)-> FAILED
    UP  --(close())---------------> STOPPED

Between ticks it blocks on every live primary and standby pipe at once
and handles each message the moment it arrives: ``response`` payloads
complete caller tickets, and ship, manifest, fetch and segment messages
are relayed on.  Every ``heartbeat_interval`` it ticks: it pings live
shards, declares a shard dead on a process exit or hung after
``miss_limit`` consecutive unanswered pings (hung workers are SIGKILLed
— a stuck interpreter cannot be reasoned with), and schedules restarts
under **bounded exponential backoff**
stretched by a per-shard :class:`~repro.robust.breaker.CircuitBreaker`
(crash = failure; surviving ``stable_after`` seconds = success), so a
crash-looping shard backs off instead of burning CPU on spawn loops.  A
shard that exhausts ``max_restarts`` consecutive restarts is FAILED: its
in-flight requests re-route to a live shard when ``failover`` is on,
else complete with a typed :class:`~repro.serve.errors.ShardDown`.
With ``replicas=1`` a warm standby is promoted at that transition
instead, and a standby that is *not yet* warm earns the primary
``promotion_grace`` further restarts (the standby syncs through the
primary, so only a restart can ever warm it) before FAILED truly lands.

Restart recovery is the zero-loss half (full argument in
:mod:`repro.serve.shard`): a restarted worker reopens the same WAL
directory, re-runs every journalled-not-done request from its newest
durable checkpoint, and reports the replayed rids; the supervisor then
*resends* any in-flight rid the shard did not recover — exactly the
requests that died unjournalled in the pipe or were retired as done
before their response crossed.

With ``replicas=1`` every logical shard is a **primary + hot standby**
pair (``docs/serving.md`` § Replicated shards).  The primary ships each
durable WAL record up its pipe as it fsyncs it; the supervisor relays
the stream to the standby, which replays it into the shard's *other*
WAL slot (:func:`~repro.serve.routing.wal_slot`).  A fresh standby
catches up by **anti-entropy**: it asks for the primary's segment
manifest, fetches only missing/mismatched segments (verified against
the manifest CRCs), and reports whether any local bytes had to be
discarded (``repl-diverged``).  When the crash-loop detector would park
a shard as FAILED, a *warm* standby is instead **promoted** under a
monotonic fencing token — published to the shard's fence file first,
then stamped durably into the promoted WAL before a single request is
served — and the retained-not-recovered requests are resent exactly as
after a restart; a syncing or diverged standby is never promoted.  The
zombie ex-primary is fenced twice over: its pipe is closed (its sends
fail) and any later publish attempt sees the newer fence token on disk
and refuses (:class:`~repro.errors.StoreFenced` semantics, reported as
``("fenced", ...)``).

Shard-lifecycle trace events (``shard-spawn``, ``shard-ready``,
``shard-recovered``, ``shard-suspect``, ``shard-crash``,
``shard-restart``, ``shard-failed``, ``shard-stable``, ``shard-stopped``,
and with replication ``standby-spawn``, ``standby-warm``,
``standby-promote``, ``repl-diverged``, ``shard-fenced``) are emitted
through the service's tracer when tracing is on; process topology
counters live under the ``shard/`` metrics namespace.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable.replication import (
    fence_path,
    read_fence_token,
    write_fence_token,
)
from repro.obs.tracer import Tracer
from repro.robust.breaker import CircuitBreaker
from repro.robust.faults import FaultPlan
from repro.serve.errors import ServiceClosed, ShardDown
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import (
    FAILED,
    SHED,
    QueryRequest,
    QueryResponse,
)
from repro.serve.routing import WAL_SLOTS, failover_order, wal_slot
from repro.serve.service import Ticket
from repro.serve.shard import ShardConfig, ShardHandle, Wakeup, decode_response

__all__ = [
    "ShardedQueryService",
    "Supervisor",
    "STARTING",
    "UP",
    "SUSPECT",
    "DOWN",
    "FAILED_STATE",
    "STOPPED",
]

STARTING = "starting"
UP = "up"
SUSPECT = "suspect"
DOWN = "down"
FAILED_STATE = "failed"
STOPPED = "stopped"


@dataclass
class _Pending:
    """One in-flight request the front door still owes an answer for."""

    ticket: Ticket
    shard_id: int
    payload: Dict[str, Any]
    resends: int = 0


@dataclass
class _ShardState:
    """Supervisor-side bookkeeping for one logical shard (the primary
    handle plus, under ``replicas=1``, its hot-standby handle)."""

    handle: ShardHandle
    breaker: CircuitBreaker
    state: str = STARTING
    pid: Optional[int] = None
    ping_seq: int = 0
    missed_pongs: int = 0
    restarts: int = 0
    lifetime_restarts: int = 0
    restart_due: float = 0.0
    became_up_at: float = 0.0
    stable: bool = False
    last_depth: int = 0
    last_inflight: int = 0
    #: Which WAL slot the *primary* currently serves from ("a"/"b");
    #: every promotion swaps it.
    slot: str = "a"
    #: The newest fencing token this shard has been promoted under.
    fence_token: int = 0
    standby: Optional[ShardHandle] = None
    #: "none" / "starting" / "syncing" / "warm" / "down"
    standby_state: str = "none"
    standby_pid: Optional[int] = None
    #: Ships are relayed only after the manifest reply crossed — the
    #: manifest's position in the primary's stream is the exact boundary
    #: between records it covers and records the standby must apply live.
    standby_attached: bool = False
    standby_ping_seq: int = 0
    standby_missed: int = 0
    standby_restart_due: float = 0.0
    standby_diverged: bool = False
    shipped_seq: int = 0
    standby_applied: int = 0


class _RemoteTicket(Ticket):
    """A ticket whose cancel() crosses the process boundary."""

    def __init__(self, service: "ShardedQueryService", *args: Any):
        super().__init__(*args)
        self._service = service

    def cancel(self, reason: str = "cancelled by caller") -> None:
        super().cancel(reason)
        self._service._forward_cancel(self.request_id)


class ShardedQueryService:
    """N worker processes behind one fingerprint-routing front door.

    Args:
        shards: worker-process count.
        workers_per_shard: worker threads inside each shard's inner
            :class:`~repro.serve.service.QueryService`.
        queue_capacity: each shard's inner admission bound.
        seed: base seed; shard *k* runs its inner service with
            ``seed + k`` so retry jitter never synchronizes across shards.
        durable_dir: root directory for the per-shard WAL stores
            (``<durable_dir>/shard-<k>``); ``None`` serves non-durably
            (restarts re-run in-flight work from the retained payloads
            instead of checkpoints).
        replicas: ``1`` gives every shard a hot standby in its other WAL
            slot, fed by live WAL shipping, promoted under a fencing
            token when the primary exhausts its restart budget (requires
            ``durable_dir``); ``0`` (default) is PR 8's single-worker
            shard.
        fsync / every_seconds: each shard store's fsync policy and
            checkpoint cadence.
        heartbeat_interval: supervisor tick, seconds: the cadence of
            pings and of crash, hang and restart handling.  Responses and
            relayed replication messages do not wait for it.
        miss_limit: consecutive unanswered pings before a shard is
            declared hung and killed (``miss_limit // 2`` marks SUSPECT).
        restart_backoff / max_backoff: exponential restart delay bounds.
        max_restarts: consecutive restarts (without a stable interval)
            before the shard is FAILED.
        promotion_grace: replicated shards only — extra consecutive
            restarts granted *past* ``max_restarts`` while the standby
            is not yet warm.  The primary is the standby's anti-entropy
            source, so parking the shard the instant its budget runs
            out would discard a replica that is seconds from
            promotable and can never warm without it; the supervisor
            restarts instead and promotes on a later crash.  Only when
            the grace is spent too is the shard FAILED.
        stable_after: seconds a restarted shard must stay up before its
            breaker records success and the restart counter resets.
        failover: route around dead shards (new submissions) and re-route
            a FAILED shard's in-flight work to live shards; off, callers
            get typed :class:`ShardDown` rejections instead.
        failure_threshold / reset_timeout: per-shard breaker tuning.
        default_budget_wall_clock: wall-clock budget for requests
            carrying none (applied inside the shards).
        trace: emit shard-lifecycle trace events.
        fault_plans / crash_after: fault injection installed inside every
            spawned worker (chaos tests; see
            :data:`repro.robust.faults.SHARD_SITES`).
        standby_fault_plans: when not ``None``, standbys install these
            plans instead of ``fault_plans`` — pass ``()`` to scope chaos
            to primaries (a ``wal.fsync`` exit plan would otherwise kill
            every standby at its first applied record too, and there
            would never be a warm standby to promote).
        start_timeout: how long the constructor blocks for the fleet to
            come up (:meth:`wait_ready`); ``0`` returns immediately.
    """

    def __init__(
        self,
        shards: int = 2,
        workers_per_shard: int = 1,
        queue_capacity: int = 64,
        seed: int = 0,
        durable_dir: Optional[str] = None,
        replicas: int = 0,
        fsync: str = "always",
        every_seconds: float = 0.05,
        heartbeat_interval: float = 0.05,
        miss_limit: int = 40,
        restart_backoff: float = 0.2,
        max_backoff: float = 5.0,
        max_restarts: int = 5,
        promotion_grace: int = 4,
        stable_after: float = 1.0,
        failover: bool = True,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        default_budget_wall_clock: Optional[float] = None,
        trace: bool = False,
        fault_plans: Tuple[FaultPlan, ...] = (),
        standby_fault_plans: Optional[Tuple[FaultPlan, ...]] = None,
        crash_after: Optional[int] = None,
        start_timeout: float = 30.0,
        clock: Any = time.monotonic,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas not in (0, 1):
            raise ValueError("replicas must be 0 or 1 (one hot standby)")
        if replicas and not durable_dir:
            raise ValueError(
                "replicas=1 needs durable_dir: the standby replays the "
                "primary's shipped WAL, and there is no WAL without one"
            )
        self.shards = shards
        self.replicas = replicas
        self.durable_dir = os.fspath(durable_dir) if durable_dir else None
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.restart_backoff = restart_backoff
        self.max_backoff = max_backoff
        self.max_restarts = max_restarts
        self.promotion_grace = promotion_grace
        self.stable_after = stable_after
        self.failover = failover
        self.standby_fault_plans = standby_fault_plans
        self.clock = clock
        self.metrics = ServiceMetrics(namespace="shard")
        self.tracer = Tracer(enabled=trace)
        self._ctx = multiprocessing.get_context("spawn")
        self._pending: Dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._closed = False
        self._closing = False
        self._next_id = self._seed_rid_counter()
        self._shards: List[_ShardState] = []
        for k in range(shards):
            slot, token = self._startup_slot(k)
            config = ShardConfig(
                workers=workers_per_shard,
                queue_capacity=queue_capacity,
                seed=seed + k,
                durable_root=self.durable_dir,
                fsync=fsync,
                every_seconds=every_seconds,
                default_budget_wall_clock=default_budget_wall_clock,
                fault_plans=tuple(fault_plans),
                crash_after=crash_after,
            )
            handle = ShardHandle(shard_id=k, config=config, ctx=self._ctx)
            breaker = CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
                clock=clock,
            )
            self._shards.append(
                _ShardState(
                    handle=handle, breaker=breaker, slot=slot, fence_token=token
                )
            )
        for state in self._shards:
            self._spawn(state)
            if self.replicas:
                self._spawn_standby(state)
        self.supervisor = Supervisor(self)
        self.supervisor.start()
        if start_timeout:
            self.wait_ready(start_timeout)

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every non-failed shard is UP (spawn + WAL replay
        take real time under the spawn start method); ``True`` when the
        fleet is fully live within *timeout*."""
        deadline = self.clock() + timeout
        while self.clock() < deadline:
            states = {s.state for s in self._shards}
            if states <= {UP, FAILED_STATE, STOPPED} and UP in states:
                return True
            time.sleep(0.01)
        return False

    # -- submission ------------------------------------------------------------

    def submit(self, request: QueryRequest) -> Ticket:
        """Route *request* to the owning shard (or a live failover) and
        return the caller's ticket.

        Raises:
            ServiceClosed: after :meth:`close`.
            ShardDown: the owning shard — and, with failover, every other
                shard — is not accepting work right now.
        """
        if self._closed or self._closing:
            raise ServiceClosed("sharded service is closed to new submissions")
        self.metrics.inc("submitted")
        klass = request.breaker_class()
        order = failover_order(klass, self.shards)
        target: Optional[_ShardState] = None
        for position, shard_id in enumerate(order):
            state = self._shards[shard_id]
            if state.state == UP:
                target = state
                if position > 0:
                    self.metrics.inc("failover")
                break
            if not self.failover:
                break
        if target is None:
            primary = self._shards[order[0]]
            hint = max(0.0, primary.restart_due - self.clock())
            self.metrics.inc("rejected")
            raise ShardDown(
                f"shard {order[0]} (owner of class {klass!r}) is "
                f"{primary.state} and no live shard can take the request",
                retry_after=hint or self.heartbeat_interval,
                shard_id=order[0],
            )
        now = self.clock()
        with self._pending_lock:
            rid = self._next_id
            self._next_id += 1
        ticket = _RemoteTicket(self, rid, request, now)
        if request.deadline is not None:
            ticket.deadline = now + request.deadline
        payload = request.to_payload()
        with self._pending_lock:
            self._pending[rid] = _Pending(
                ticket=ticket, shard_id=target.handle.shard_id, payload=payload
            )
        # A failed send is not an error: the supervisor will observe the
        # dead pipe and the retained payload is resent after restart.
        target.handle.send(("submit", rid, payload))
        self.metrics.inc("accepted")
        self.metrics.gauge("pending", len(self._pending))
        return ticket

    def evaluate(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and wait; re-raises the typed error of ``failed``/
        ``shed`` outcomes, mirroring
        :meth:`~repro.serve.service.QueryService.evaluate`."""
        response = self.submit(request).response(timeout)
        if response.status in (FAILED, SHED) and response.error is not None:
            raise response.error
        return response

    def _forward_cancel(self, rid: int) -> None:
        with self._pending_lock:
            entry = self._pending.get(rid)
        if entry is not None:
            self._shards[entry.shard_id].handle.send(("cancel", rid))

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Drain (optionally), stop every shard, and resolve every ticket.

        No caller is left blocked: tickets the shards never answered are
        completed with a typed shutdown response, exactly like the
        in-process service's close.
        """
        if self._closed:
            return
        self._closing = True
        deadline = self.clock() + timeout
        if wait:
            while self._pending and self.clock() < deadline:
                time.sleep(0.01)
        for state in self._shards:
            if state.handle.alive():
                state.handle.send(("close",))
            if state.standby is not None and state.standby.alive():
                state.standby.send(("close",))
        for state in self._shards:
            if state.handle.process is not None:
                state.handle.process.join(
                    max(0.1, min(5.0, deadline - self.clock()))
                )
        self.supervisor.stop()
        for state in self._shards:
            state.handle.kill()
            if state.standby is not None:
                state.standby.kill()
                state.standby_state = "none"
            state.state = STOPPED
        self._closed = True
        with self._pending_lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
        for rid, entry in leftovers:
            if entry.ticket.done:
                continue
            self.metrics.inc("shed")
            entry.ticket._complete(
                QueryResponse(
                    request_id=rid,
                    status=SHED,
                    error=ServiceClosed(
                        "sharded service closed before this request completed"
                    ),
                    latency_s=self.clock() - entry.ticket.submitted_at,
                )
            )

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        live = sum(1 for s in self._shards if s.state == UP)
        if self._closed:
            status = "closed"
        elif live == 0:
            status = "down"
        elif live < self.shards:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "shards": self.shards,
            "live": live,
            "pending": len(self._pending),
            "states": {s.handle.shard_id: s.state for s in self._shards},
        }

    def stats(self) -> Dict[str, Any]:
        """The ``shard/`` counters plus a per-shard topology snapshot
        (with ``replicas=1``: the serving slot, fencing token, standby
        state, and the replication lag in records)."""
        stats = self.metrics.stats()
        stats["shards"] = {
            s.handle.shard_id: {
                "state": s.state,
                "pid": s.pid,
                "generation": s.handle.generation,
                "restarts": s.lifetime_restarts,
                "breaker": s.breaker.state,
                "depth": s.last_depth,
                "inflight": s.last_inflight,
                "slot": s.slot,
                "fence_token": s.fence_token,
                "standby_state": s.standby_state,
                "replication_lag_records": max(
                    0, s.shipped_seq - s.standby_applied
                ),
            }
            for s in self._shards
        }
        stats["pending"] = len(self._pending)
        return stats

    # -- internals ---------------------------------------------------------------

    def _seed_rid_counter(self) -> int:
        """Start the global rid counter past every id any shard WAL has
        ever journalled — both replica slots of every shard, because a
        stale ex-primary slot can hold ids the promoted log does not."""
        if self.durable_dir is None:
            return 0
        from repro.durable.recovery import RecoveryManager

        ceiling = -1
        try:
            names = os.listdir(self.durable_dir)
        except FileNotFoundError:
            names = []
        for name in sorted(names):
            root = os.path.join(self.durable_dir, name)
            if not name.startswith("shard-") or not os.path.isdir(root):
                continue
            try:
                recovered = RecoveryManager(root).recover()
            except Exception:
                # A corrupt stale slot is anti-entropy's problem (it gets
                # rebuilt from the primary), not a reason to refuse to
                # start the front door.
                continue
            for rid in list(recovered.pending) + list(recovered.done):
                try:
                    ceiling = max(ceiling, int(rid))
                except ValueError:
                    continue
        return ceiling + 1

    def _startup_slot(self, shard_id: int) -> Tuple[str, int]:
        """Which WAL slot last served as shard *shard_id*'s primary, and
        under which fencing token: the slot holding the newest durable
        ``fence`` stamp wins (slot "a" on a fresh directory or a tie —
        an unreplicated PR 8 layout restarts unchanged)."""
        if self.durable_dir is None:
            return "a", 0
        from repro.durable.recovery import RecoveryManager

        slot, token = "a", 0
        for candidate in WAL_SLOTS:
            root = os.path.join(self.durable_dir, wal_slot(shard_id, candidate))
            if not os.path.isdir(root):
                continue
            try:
                stamped = RecoveryManager(root).recover().fence_token
            except Exception:
                continue  # a corrupt slot never gets to be the primary
            if stamped > token:
                slot, token = candidate, stamped
        token = max(token, read_fence_token(fence_path(self.durable_dir, shard_id)))
        return slot, token

    def _primary_config(self, state: _ShardState) -> ShardConfig:
        shard_id = state.handle.shard_id
        if self.durable_dir is None:
            return dataclasses.replace(state.handle.config, role="primary")
        return dataclasses.replace(
            state.handle.config,
            role="primary",
            wal_name=wal_slot(shard_id, state.slot),
            replicate=self.replicas > 0,
            fence_token=state.fence_token,
            fence_file=fence_path(self.durable_dir, shard_id),
        )

    def _spawn(self, state: _ShardState) -> None:
        # Refresh the spawn config every time: the serving slot and the
        # fence token move on promotion, and the worker must open the
        # right WAL under the right token.
        state.handle.config = self._primary_config(state)
        state.handle.spawn()
        state.state = STARTING
        state.pid = state.handle.process.pid
        state.missed_pongs = 0
        state.stable = False
        state.shipped_seq = 0
        state.standby_attached = False
        self.metrics.inc("spawns")
        self.tracer.event(
            "shard-spawn",
            shard=state.handle.shard_id,
            pid=state.pid,
            generation=state.handle.generation,
            slot=state.slot,
        )

    def _spawn_standby(self, state: _ShardState) -> None:
        """Start (or restart) the shard's standby in the *other* WAL
        slot; it catches up via anti-entropy before going warm."""
        shard_id = state.handle.shard_id
        other = WAL_SLOTS[1] if state.slot == WAL_SLOTS[0] else WAL_SLOTS[0]
        # ``replicate`` stays armed (from _primary_config): the standby
        # loop ignores it, but the in-process promotion flip reuses this
        # config — a promoted primary must ship to *its* fresh standby.
        config = dataclasses.replace(
            self._primary_config(state),
            role="standby",
            wal_name=wal_slot(shard_id, other),
        )
        if self.standby_fault_plans is not None:
            config = dataclasses.replace(
                config, fault_plans=tuple(self.standby_fault_plans)
            )
        if state.standby is None:
            state.standby = ShardHandle(
                shard_id=shard_id, config=config, ctx=self._ctx
            )
        else:
            state.standby.config = config
        state.standby.spawn()
        state.standby_state = "starting"
        state.standby_attached = False
        state.standby_applied = 0
        state.standby_missed = 0
        state.standby_diverged = False
        self.metrics.inc("standby_spawns")
        self.tracer.event(
            "standby-spawn",
            shard=shard_id,
            pid=state.standby.process.pid,
            slot=other,
        )


#: One shard-state step the supervisor runs: a drain or a tick.
_Drain = Callable[[_ShardState], None]


class Supervisor(threading.Thread):
    """The single thread that keeps the shard fleet honest: message
    delivery on arrival, heartbeats, crash detection, bounded restarts,
    failover."""

    def __init__(self, service: ShardedQueryService):
        super().__init__(name="repro-shard-supervisor", daemon=True)
        self.service = service
        # Not named _stop: threading.Thread has a private _stop() method
        # the interpreter itself calls on join.
        self._halt = threading.Event()
        self._wakeup = Wakeup()

    def stop(self, join_timeout: float = 5.0) -> None:
        self._halt.set()
        self._wakeup.set()
        if self.is_alive():
            self.join(join_timeout)
        if not self.is_alive():
            self._wakeup.close()

    def run(self) -> None:
        interval = self.service.heartbeat_interval
        next_tick = time.monotonic() + interval
        while not self._halt.is_set():
            timeout = next_tick - time.monotonic()
            if timeout <= 0:
                for state in self.service._shards:
                    self._guarded(self._tick, state)
                next_tick = time.monotonic() + interval
                continue
            readers = self._readers()
            try:
                ready = multiprocessing.connection.wait(
                    list(readers) + [self._wakeup], timeout
                )
            except (OSError, ValueError):
                continue  # a pipe closed under us: rebuild the wait set
            for conn in ready:
                if conn in readers:
                    drain, state = readers[conn]
                    self._guarded(drain, state)

    def _readers(self) -> Dict[Any, Tuple[_Drain, _ShardState]]:
        """Every pipe worth waiting on, mapped to its drain.  A pipe at
        EOF stays out — it would be readable forever and spin the loop —
        until the next tick sees the exit and reaps the worker."""
        readers: Dict[Any, Tuple[_Drain, _ShardState]] = {}
        for state in self.service._shards:
            for handle, drain in (
                (state.handle, self._drain),
                (state.standby, self._drain_standby),
            ):
                if handle is not None and handle.conn is not None and not handle.eof:
                    readers[handle.conn] = (drain, state)
        return readers

    @staticmethod
    def _guarded(step: _Drain, state: _ShardState) -> None:
        try:
            step(state)
        except Exception:  # pragma: no cover - the supervisor must
            # survive anything one shard's bookkeeping throws; a dead
            # supervisor means no restarts ever again.
            pass

    # -- one shard, one tick ----------------------------------------------------

    def _tick(self, state: _ShardState) -> None:
        self._tick_primary(state)
        if self.service.replicas:
            self._tick_standby(state)

    def _tick_primary(self, state: _ShardState) -> None:
        service = self.service
        now = service.clock()
        self._drain(state)
        if state.state in (STARTING, UP, SUSPECT) and not state.handle.alive():
            self._on_crash(state, f"exit code {state.handle.exitcode}")
            return
        if state.state in (UP, SUSPECT):
            state.ping_seq += 1
            state.missed_pongs += 1
            state.handle.send(("ping", state.ping_seq))
            if state.missed_pongs >= service.miss_limit:
                # A hung interpreter cannot be reasoned with.
                service.tracer.event(
                    "shard-hung",
                    shard=state.handle.shard_id,
                    missed=state.missed_pongs,
                )
                state.handle.kill()
                self._on_crash(state, f"hung ({state.missed_pongs} missed pings)")
                return
            if (
                state.state == UP
                and state.missed_pongs >= max(2, service.miss_limit // 2)
            ):
                state.state = SUSPECT
                service.tracer.event(
                    "shard-suspect",
                    shard=state.handle.shard_id,
                    missed=state.missed_pongs,
                )
        if state.state == UP and not state.stable:
            if now - state.became_up_at >= service.stable_after:
                state.stable = True
                state.restarts = 0
                state.breaker.record_success()
                service.tracer.event("shard-stable", shard=state.handle.shard_id)
        if (
            state.state == DOWN
            and not service._closing
            and now >= state.restart_due
        ):
            self._restart(state)

    def _drain(self, state: _ShardState) -> None:
        service = self.service
        while state.handle.poll():
            message = state.handle.recv()
            if message is None:
                return
            kind = message[0]
            if kind == "ready":
                state.pid = message[2]
                service.tracer.event(
                    "shard-ready", shard=state.handle.shard_id, pid=state.pid
                )
            elif kind == "recovered":
                self._reconcile(state, set(message[1]))
            elif kind == "pong":
                state.missed_pongs = 0
                if isinstance(message[3], int):  # a standby's last pong
                    state.last_depth = message[2]  # ends up here right
                    state.last_inflight = message[3]  # after promotion
                if state.state == SUSPECT:
                    state.state = UP
            elif kind == "response":
                self._complete(message[1], message[2])
            elif kind in ("ship", "ship-compact"):
                state.shipped_seq = message[1]
                service.metrics.inc("repl_shipped")
                if state.standby is not None and state.standby_attached:
                    state.standby.send(message)
            elif kind == "manifest":
                # The manifest's place in the primary's stream is the
                # exact covered/uncovered boundary: everything shipped
                # after it is the suffix the standby must apply live.
                if state.standby is not None:
                    state.standby.send(message)
                    state.standby_attached = True
            elif kind == "segment":
                if state.standby is not None:
                    state.standby.send(message)
            elif kind == "fenced":
                service.metrics.inc("fenced")
                service.tracer.event(
                    "shard-fenced",
                    shard=state.handle.shard_id,
                    token=message[1],
                    held=message[2],
                )
            elif kind == "bye":
                state.state = STOPPED
                service.tracer.event(
                    "shard-stopped", shard=state.handle.shard_id
                )

    # -- the standby ------------------------------------------------------------

    def _tick_standby(self, state: _ShardState) -> None:
        service = self.service
        if service._closing or state.state in (STOPPED, FAILED_STATE):
            return
        now = service.clock()
        if state.standby is None or state.standby.process is None:
            self.service._spawn_standby(state)
            return
        self._drain_standby(state)
        if not state.standby.alive():
            if state.standby_state != "down":
                state.standby_state = "down"
                state.standby_attached = False
                state.standby.kill()  # reap + retire the sender thread
                state.standby_restart_due = now + service.restart_backoff
                service.tracer.event(
                    "standby-down", shard=state.handle.shard_id
                )
            elif now >= state.standby_restart_due:
                service._spawn_standby(state)
            return
        if state.standby_state in ("syncing", "warm"):
            state.standby_ping_seq += 1
            state.standby_missed += 1
            state.standby.send(("ping", state.standby_ping_seq))
            if state.standby_missed >= service.miss_limit:
                # A hung standby is as useless as a hung primary.
                state.standby.kill()
                state.standby_state = "down"
                state.standby_attached = False
                state.standby_restart_due = now + service.restart_backoff
                service.tracer.event(
                    "standby-down",
                    shard=state.handle.shard_id,
                    reason="hung",
                )

    def _drain_standby(self, state: _ShardState) -> None:
        service = self.service
        standby = state.standby
        while standby.poll():
            message = standby.recv()
            if message is None:
                return
            kind = message[0]
            if kind == "ready":
                state.standby_pid = message[2]
            elif kind == "sync-request":
                state.standby_state = "syncing"
                state.handle.send(("manifest",))
            elif kind == "fetch":
                state.handle.send(message)
            elif kind == "standby-state":
                state.standby_state = message[1]
                state.standby_diverged = bool(message[2])
                if message[2]:
                    service.metrics.inc("repl_diverged")
                    service.tracer.event(
                        "repl-diverged", shard=state.handle.shard_id
                    )
                service.tracer.event(
                    "standby-warm",
                    shard=state.handle.shard_id,
                    diverged=bool(message[2]),
                )
            elif kind == "pong":
                state.standby_missed = 0
                state.standby_applied = message[2]
                if message[3] in ("syncing", "warm"):
                    state.standby_state = message[3]
                service.metrics.gauge(
                    f"replication_lag_records_{state.handle.shard_id}",
                    max(0, state.shipped_seq - state.standby_applied),
                )

    def _promote(self, state: _ShardState) -> bool:
        """Promote the shard's standby to primary under a fresh fencing
        token; ``False`` when there is nothing safe to promote (no
        standby, dead, or still syncing — a replica that has not proven
        itself byte-identical to the manifest is never promoted)."""
        service = self.service
        standby = state.standby
        if (
            not service.replicas
            or standby is None
            or not standby.alive()
            or state.standby_state != "warm"
        ):
            return False
        shard_id = state.handle.shard_id
        token = state.fence_token + 1
        # Fence first, promote second: the token is on disk before the
        # new primary serves, so the zombie's next publish check loses
        # even if it somehow outruns its closed pipe.
        write_fence_token(fence_path(service.durable_dir, shard_id), token)
        state.handle.kill()
        old_slot = state.slot
        state.slot = WAL_SLOTS[1] if old_slot == WAL_SLOTS[0] else WAL_SLOTS[0]
        state.fence_token = token
        standby.send(("promote", token))
        standby.config = service._primary_config(state)
        state.handle = standby
        state.pid = state.standby_pid
        state.standby = None
        state.standby_state = "none"
        state.standby_attached = False
        state.standby_pid = None
        state.shipped_seq = 0
        state.standby_applied = 0
        state.state = STARTING
        state.missed_pongs = 0
        state.restarts = 0
        state.stable = False
        service.metrics.inc("promotions")
        service.tracer.event(
            "standby-promote",
            shard=shard_id,
            token=token,
            slot=state.slot,
        )
        # A fresh standby rebuilds the dead primary's slot via
        # anti-entropy on the next tick (_tick_standby sees None).
        return True

    def _reconcile(self, state: _ShardState, recovered: set) -> None:
        """The restarted shard told us which rids its WAL replay is
        re-running; resend every other in-flight rid it owns — those died
        in the pipe (never journalled) or finished without their response
        crossing (journalled done)."""
        service = self.service
        shard_id = state.handle.shard_id
        if recovered:
            service.metrics.inc("recovered", len(recovered))
            service.tracer.event(
                "shard-recovered", shard=shard_id, runs=len(recovered)
            )
        with service._pending_lock:
            owned = [
                (rid, entry)
                for rid, entry in service._pending.items()
                if entry.shard_id == shard_id and rid not in recovered
            ]
        for rid, entry in owned:
            entry.resends += 1
            service.metrics.inc("resent")
            state.handle.send(("submit", rid, entry.payload))
        state.state = UP
        state.became_up_at = service.clock()
        state.missed_pongs = 0

    def _complete(self, rid: int, payload: Dict[str, Any]) -> None:
        service = self.service
        with service._pending_lock:
            entry = service._pending.pop(rid, None)
        if entry is None:
            return  # a duplicate ack after a resend race; first answer won
        response = decode_response(rid, payload)
        service.metrics.inc(response.status)
        service.metrics.inc("responses")
        service.metrics.observe("latency_s", response.latency_s)
        service.metrics.gauge("pending", len(service._pending))
        entry.ticket._complete(response)

    def _on_crash(self, state: _ShardState, reason: str) -> None:
        service = self.service
        state.state = DOWN
        state.stable = False
        state.restarts += 1
        state.lifetime_restarts += 1
        state.breaker.record_failure()
        service.metrics.inc("crashes")
        service.tracer.event(
            "shard-crash",
            shard=state.handle.shard_id,
            reason=reason,
            consecutive=state.restarts,
        )
        if state.handle._outbox is not None:
            state.handle._outbox.put(None)  # retire the generation's sender
            state.handle._outbox = None
        if state.handle.conn is not None:
            try:
                state.handle.conn.close()
            except OSError:
                pass
            state.handle.conn = None
        if state.restarts > service.max_restarts:
            # The crash-loop detector would park the shard — promotion
            # is exactly this transition done better: a warm standby
            # takes over the shard instead of the shard going dark.
            if self._promote(state):
                return
            if (
                not service.replicas
                or state.restarts
                > service.max_restarts + service.promotion_grace
            ):
                self._fail(state)
                return
            # The standby exists but is not warm (dead, starting, or
            # mid-sync) — and it syncs *through* the primary, so
            # failing the shard now would strand a replica that is
            # seconds from promotable.  Defer: restart the primary
            # (re-arming anti-entropy) and promote on a later crash.
            service.metrics.inc("promote_deferred")
            service.tracer.event(
                "promote-deferred",
                shard=state.handle.shard_id,
                standby=state.standby_state,
                restarts=state.restarts,
            )
        backoff = min(
            service.restart_backoff * (2 ** (state.restarts - 1)),
            service.max_backoff,
        )
        state.restart_due = service.clock() + max(
            backoff, state.breaker.retry_after()
        )

    def _restart(self, state: _ShardState) -> None:
        self.service.metrics.inc("restarts")
        self.service.tracer.event(
            "shard-restart",
            shard=state.handle.shard_id,
            attempt=state.restarts,
        )
        self.service._spawn(state)
        if self.service.replicas and state.standby is not None:
            # The restarted primary may recover fsynced records that were
            # never shipped; a stale standby would silently lag behind a
            # log it half-mirrors.  Rebuild it via anti-entropy instead.
            state.standby.kill()
            state.standby_state = "down"
            state.standby_attached = False
            state.standby_restart_due = self.service.clock()

    def _fail(self, state: _ShardState) -> None:
        """Restart budget exhausted: the shard stays dead.  Its in-flight
        work re-routes to a live shard (failover) or completes with a
        typed ShardDown."""
        service = self.service
        state.state = FAILED_STATE
        if state.standby is not None:
            state.standby.kill()
            state.standby_state = "none"
        service.metrics.inc("failed_shards")
        service.tracer.event(
            "shard-failed",
            shard=state.handle.shard_id,
            restarts=state.lifetime_restarts,
        )
        shard_id = state.handle.shard_id
        with service._pending_lock:
            owned = [
                (rid, entry)
                for rid, entry in service._pending.items()
                if entry.shard_id == shard_id
            ]
        alternates = [s for s in service._shards if s.state == UP]
        for rid, entry in owned:
            if service.failover and alternates:
                target = alternates[rid % len(alternates)]
                with service._pending_lock:
                    entry.shard_id = target.handle.shard_id
                entry.resends += 1
                service.metrics.inc("failover")
                target.handle.send(("submit", rid, entry.payload))
                continue
            with service._pending_lock:
                service._pending.pop(rid, None)
            service.metrics.inc(FAILED)
            entry.ticket._complete(
                QueryResponse(
                    request_id=rid,
                    status=FAILED,
                    error=ShardDown(
                        f"shard {shard_id} exceeded its restart budget "
                        f"({service.max_restarts}) and was taken out of service",
                        shard_id=shard_id,
                    ),
                    latency_s=service.clock() - entry.ticket.submitted_at,
                )
            )
