"""The shard worker process and its wire protocol.

A shard is one OS process owning a private
:class:`~repro.serve.service.QueryService` and (when serving durably) a
private :class:`~repro.durable.store.CheckpointStore` WAL directory
(``<durable_dir>/shard-<k>``, held under an exclusive ``flock`` so two
live workers can never interleave one log).  Processes — not threads —
because the engine is pure Python: N shards are N interpreters, so
CPU-bound programs scale with cores instead of serializing on one GIL.

Everything crosses the pipe as plain picklable data — payload dicts from
:meth:`QueryRequest.to_payload`, response dicts from
:func:`encode_response` — never live objects, so parent and child agree
on nothing but the protocol below.

Parent → child::

    ("submit", rid, payload)   route one request (rid is front-door-global)
    ("cancel", rid)            cooperative cancellation
    ("ping", seq)              heartbeat probe
    ("close",)                 drain and exit cleanly
    ("manifest",)              primary: build the WAL segment manifest
    ("fetch", index, length)   primary: read a pinned segment prefix
    ("ship", seq, index, payload)      standby: apply one live record
    ("ship-compact", seq, index, data) standby: mirror a compaction
    ("promote", token)         standby: become the primary under *token*

Child → parent::

    ("ready", shard_id, pid)   the worker is up, inner service running
    ("recovered", [rids])      journalled-not-done rids the shard is
                               re-running from its WAL (empty when fresh
                               or non-durable) — the supervisor resends
                               any in-flight rid *not* in this list,
                               because a request that died in the pipe
                               was never journalled anywhere
    ("pong", seq, depth, inflight)     (standby: seq, applied_seq, state)
    ("response", rid, payload) terminal outcome for rid
    ("bye",)                   clean-close acknowledgement
    ("sync-request",)          standby: start anti-entropy (wants the
                               primary's manifest)
    ("manifest", entries)      primary: the segment manifest
    ("segment", index, data)   primary: one pinned segment prefix
    ("ship", ...), ("ship-compact", ...)   primary: the live ship stream
                               (relayed by the supervisor to the standby)
    ("standby-state", state, diverged)     standby went warm; *diverged*
                               reports whether local bytes had to be
                               discarded (surfaced as ``repl-diverged``)
    ("fenced", token, held)    the worker found a newer fence token on
                               disk and is refusing to publish

Either direction may wrap consecutive messages as ``("batch", [msgs])``
— one pipe write (one syscall, one pickle) per worker-loop pass or
sender-thread drain instead of one per message; both ends unwrap
transparently.

Neither end polls.  The worker loop blocks on its pipe plus a
:class:`Wakeup` fd that finished tickets (:attr:`Ticket.on_complete`)
and the store's ship hooks signal, so a response or a shipped record
leaves the moment it exists; while idle it still wakes every 50 ms to
re-check the fence.  The supervisor on the other end blocks on every
live pipe at once (see :mod:`repro.serve.supervisor`).

Zero-loss argument, end to end: the front door keeps every submitted
``(rid, payload)`` until the owning shard's ``response`` arrives.  Inside
the shard, the inner service journals before running and marks done
before completing (PR 5's ordering).  If the process dies *before* the
run finishes, the restarted shard's ``recover()`` finds the rid pending
and re-runs it from its newest durable checkpoint (reported via
``recovered``).  If it dies *after* finishing but before the response
crossed the pipe — the ``shard.ack`` kill window — the rid is durably
done, so ``recovered`` omits it and the supervisor resends the retained
payload; the rerun is seeded, so the model is byte-identical.  Either
way the caller's ticket terminates with the right answer.

Fault sites (:data:`repro.robust.faults.SHARD_SITES`) visited by the
worker loop: ``shard.loop`` at the top of every iteration (a repeating
``delay`` plan is a hung worker), ``shard.ack`` immediately before each
response send (an ``exit`` plan is kill-before-ack).
"""

from __future__ import annotations

import multiprocessing.connection
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, StoreFenced
from repro.robust import faults
from repro.robust.faults import FaultInjector, FaultPlan, install
from repro.serve.errors import (
    CircuitOpen,
    ServiceRejection,
    ShardError,
)
from repro.serve.request import (
    FAILED,
    SHED,
    QueryRequest,
    QueryResponse,
)
from repro.storage.database import Database

__all__ = [
    "ShardConfig",
    "ShardHandle",
    "shard_worker_main",
    "encode_response",
    "decode_response",
]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a spawned worker needs, as picklable plain data.

    Attributes:
        workers: worker threads inside the shard's inner service.
        queue_capacity: the inner admission queue bound.
        seed: inner service seed (retry jitter reproducibility).
        durable_root: the front door's durable directory; the shard owns
            ``<durable_root>/shard-<k>`` under it.  ``None`` disables
            durability (and with it crash recovery).
        fsync: the shard store's fsync policy.
        every_seconds: durability cadence for the shard's runs.
        default_budget_wall_clock: optional wall-clock budget applied to
            requests that carry none.
        fault_plans: :class:`FaultPlan`\\ s installed process-wide in the
            child at startup (chaos tests; empty in production).
        crash_after: shared crash-point countdown, as in
            :func:`repro.robust.faults.inject`.
        role: ``"primary"`` serves requests; ``"standby"`` replays the
            primary's shipped WAL and serves nothing until promoted.
        wal_name: the WAL slot directory name under ``durable_root``
            (:func:`repro.serve.routing.wal_slot`); ``None`` keeps PR 8's
            ``shard-<k>`` default.
        replicate: primary only — install the ship hooks and stream
            every durable record up the pipe for relay to the standby.
        fence_token: the fencing token this worker serves under (``0``
            when the shard was never promoted); a promoted standby gets
            the new token here and stamps it durably before serving.
        fence_file: the shard's fence-file path
            (:func:`repro.durable.replication.fence_path`); a worker that
            finds a *newer* token there refuses to publish and reports
            ``("fenced", ...)`` instead — the zombie half of fencing.
    """

    workers: int = 1
    queue_capacity: int = 64
    seed: int = 0
    durable_root: Optional[str] = None
    fsync: str = "always"
    every_seconds: float = 0.05
    default_budget_wall_clock: Optional[float] = None
    fault_plans: Tuple[FaultPlan, ...] = ()
    crash_after: Optional[int] = None
    role: str = "primary"
    wal_name: Optional[str] = None
    replicate: bool = False
    fence_token: int = 0
    fence_file: Optional[str] = None


# -- the wire codec -------------------------------------------------------------


def _encode_database(db: Any) -> List[List[Any]]:
    from repro.robust.checkpoint import encode_value

    return [
        [name, arity, encode_value(list(db.facts(name, arity)))]
        for name, arity in sorted(db.predicates())
    ]


def _decode_database(rows: List[List[Any]]) -> Database:
    from repro.robust.checkpoint import decode_value

    db = Database()
    for name, _arity, encoded in rows:
        db.assert_all(name, map(tuple, decode_value(encoded)))
    return db


def _encode_error(exc: BaseException) -> Dict[str, Any]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "retry_after": getattr(exc, "retry_after", None),
        "klass": getattr(exc, "klass", None),
    }


def _error_types() -> Dict[str, type]:
    import repro.errors as core_errors
    import repro.serve.errors as serve_errors

    types: Dict[str, type] = {}
    for module in (core_errors, serve_errors):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                types[name] = obj
    return types


_ERROR_TYPES = _error_types()


def _decode_error(payload: Dict[str, Any]) -> BaseException:
    cls = _ERROR_TYPES.get(payload["type"])
    message = payload.get("message", "")
    if cls is None:
        return ShardError(f"{payload['type']}: {message}")
    try:
        if issubclass(cls, CircuitOpen):
            return cls(
                message,
                retry_after=payload.get("retry_after") or 0.0,
                klass=payload.get("klass") or "",
            )
        if issubclass(cls, ServiceRejection):
            return cls(message, retry_after=payload.get("retry_after") or 0.0)
        return cls(message)
    except Exception:
        return ShardError(f"{payload['type']}: {message}")


def encode_response(response: QueryResponse) -> Dict[str, Any]:
    """A :class:`QueryResponse` as plain data.  The ``partial`` result
    (live engine state) deliberately does not cross the pipe — degraded
    responses keep their database snapshot and resumable checkpoint,
    which is everything a remote caller can act on."""
    from repro.robust.checkpoint import _to_payload

    payload: Dict[str, Any] = {
        "status": response.status,
        "attempts": response.attempts,
        "retries": response.retries,
        "latency_s": response.latency_s,
        "queue_s": response.queue_s,
        "metrics": response.metrics,
    }
    if response.database is not None:
        payload["database"] = _encode_database(response.database)
    if response.checkpoint is not None:
        payload["checkpoint"] = _to_payload(response.checkpoint)
    if response.error is not None:
        payload["error"] = _encode_error(response.error)
    return payload


def decode_response(rid: int, payload: Dict[str, Any]) -> QueryResponse:
    """Rebuild the caller-facing :class:`QueryResponse` from the wire
    payload (inverse of :func:`encode_response`)."""
    from repro.robust.checkpoint import _from_payload

    return QueryResponse(
        request_id=rid,
        status=payload["status"],
        database=(
            _decode_database(payload["database"])
            if "database" in payload
            else None
        ),
        checkpoint=(
            _from_payload(payload["checkpoint"])
            if "checkpoint" in payload
            else None
        ),
        error=_decode_error(payload["error"]) if "error" in payload else None,
        attempts=payload.get("attempts", 0),
        retries=payload.get("retries", 0),
        latency_s=payload.get("latency_s", 0.0),
        queue_s=payload.get("queue_s", 0.0),
        metrics=payload.get("metrics", {}),
    )


#: Injectable clock for the worker's latency stamps — tests replace this
#: with a fake to make shard-side timings deterministic.
_now = time.monotonic


def _rejection_response(exc: BaseException, started: float) -> Dict[str, Any]:
    """The wire response for a request the inner service rejected at the
    door (overload, open breaker, closed) — shed, typed, never lost."""
    status = SHED if isinstance(exc, ServiceRejection) else FAILED
    return {
        "status": status,
        "error": _encode_error(exc),
        "attempts": 0,
        "retries": 0,
        "latency_s": _now() - started,
        "queue_s": 0.0,
        "metrics": {},
    }


# -- the worker process ---------------------------------------------------------


def _visit(site: str) -> None:
    hook = faults._SHARD_HOOK
    if hook is not None:
        hook(site)


class Wakeup:
    """A self-pipe an event loop can block on next to its connections
    (:func:`multiprocessing.connection.wait` accepts it): :meth:`set`
    makes it readable from any thread, :meth:`clear` drains it.

    :meth:`close` is ordered against :meth:`set` under a lock, so a
    late signal from a straggling thread is dropped rather than written
    to a closed — or, worse, reused — file descriptor.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        self._lock = threading.Lock()
        self._open = True

    def fileno(self) -> int:
        return self._read

    def set(self) -> None:
        with self._lock:
            if not self._open:
                return
            try:
                os.write(self._write, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: it is readable already

    def clear(self) -> None:
        try:
            while os.read(self._read, 4096):
                pass
        except BlockingIOError:
            pass

    def close(self) -> None:
        with self._lock:
            if self._open:
                self._open = False
                os.close(self._read)
                os.close(self._write)


#: How often an idle worker re-checks the fence file.  A worker with work
#: in flight re-checks before each publish instead.
_FENCE_RECHECK_S = 0.05


class _Outgoing:
    """The worker's per-pass send buffer: messages accumulate during one
    loop pass and leave as one pipe write — bare when there is one, as a
    ``("batch", [...])`` envelope when there are more."""

    def __init__(self, conn: Any):
        self.conn = conn
        self.buffer: List[Tuple[Any, ...]] = []

    def send(self, message: Tuple[Any, ...]) -> None:
        self.buffer.append(message)

    def flush(self) -> None:
        if not self.buffer:
            return
        if len(self.buffer) == 1:
            self.conn.send(self.buffer[0])
        else:
            self.conn.send(("batch", self.buffer))
        self.buffer = []


def _drain_inbox(conn: Any, timeout: float) -> List[Tuple[Any, ...]]:
    """Every message waiting on *conn* (waiting up to *timeout* for the
    first), with ``("batch", ...)`` envelopes unwrapped.  Raises
    ``EOFError`` once the parent's end is gone."""
    messages: List[Tuple[Any, ...]] = []
    while conn.poll(timeout if not messages else 0.0):
        message = conn.recv()
        if message and message[0] == "batch":
            messages.extend(message[1])
        else:
            messages.append(message)
    return messages


def shard_worker_main(shard_id: int, conn: Any, config: ShardConfig) -> None:
    """The child process entry point: run one shard until told to close
    (or until the parent disappears, or an injected fault kills us).

    A ``"standby"`` worker replays the ship stream until promoted; on
    promotion it reopens its replica log as the real store and falls into
    the primary loop — same process, same pipe, new role.
    """
    if config.fault_plans or config.crash_after is not None:
        injector = FaultInjector(list(config.fault_plans))
        injector.crash_after = config.crash_after
        install(injector)
    try:
        if config.role == "standby":
            token = _standby_main(shard_id, conn, config)
            if token is None:
                return
            import dataclasses

            config = dataclasses.replace(
                config, role="primary", fence_token=token
            )
        _primary_main(shard_id, conn, config)
    except StoreFenced:
        # Promoted away from under us: the ``("fenced", ...)`` report has
        # already crossed the pipe, and the typed error is this worker's
        # own stop signal — exiting without publishing IS the refusal.
        pass
    except (EOFError, BrokenPipeError, OSError):
        # The parent is gone; there is nobody to serve.  Durable state is
        # on disk — a future front door recovers it.
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _wal_root(shard_id: int, config: ShardConfig) -> str:
    return os.path.join(
        config.durable_root, config.wal_name or f"shard-{shard_id}"
    )


def _primary_main(shard_id: int, conn: Any, config: ShardConfig) -> None:
    from repro.durable import CheckpointStore, DurabilityPolicy
    from repro.durable.replication import (
        build_manifest,
        read_fence_token,
        read_segment,
    )
    from repro.robust.governor import Budget
    from repro.serve.service import QueryService, Ticket

    held = config.fence_token
    if config.fence_file is not None:
        disk = read_fence_token(config.fence_file)
        if disk > held:
            conn.send(("fenced", disk, held))
            raise StoreFenced(
                f"shard {shard_id} fenced before startup",
                token=disk,
                held=held,
            )

    # Signalled by every finished ticket and every shipped record: the
    # loop below sleeps until there is something to publish.
    wakeup = Wakeup()
    store = None
    durability = None
    ship_queue: Optional["queue.Queue[Tuple[Any, ...]]"] = None
    if config.durable_root is not None:
        store = CheckpointStore(
            _wal_root(shard_id, config), fsync=config.fsync, exclusive=True
        )
        durability = DurabilityPolicy(every_seconds=config.every_seconds)
        held = max(held, store.fence_token)
        if config.fence_token > store.fence_token:
            # A promoted standby stamps its token durably before serving
            # a single request — the promotion is not real until this is.
            store.write_fence(config.fence_token)
        if config.replicate:
            ship_queue = queue.Queue()
            seq_box = [0]

            # Both hooks fire under the store lock (post-fsync), so the
            # counter needs no lock of its own and the ship stream is
            # totally ordered with the log.
            def _on_append(index: int, payload: bytes) -> None:
                _visit("repl.ship")
                seq_box[0] += 1
                ship_queue.put(("ship", seq_box[0], index, payload))
                wakeup.set()

            def _on_compact(index: int, data: bytes) -> None:
                seq_box[0] += 1
                ship_queue.put(("ship-compact", seq_box[0], index, data))
                wakeup.set()

            store.on_append = _on_append
            store.on_compact = _on_compact
    default_budget = (
        Budget(wall_clock=config.default_budget_wall_clock)
        if config.default_budget_wall_clock is not None
        else None
    )
    service = QueryService(
        workers=config.workers,
        queue_capacity=config.queue_capacity,
        seed=config.seed,
        store=store,
        durability=durability,
        default_budget=default_budget,
    )

    pending: Dict[int, Ticket] = {}
    recovered: List[int] = []

    def _track(rid: int, ticket: Ticket) -> None:
        # A ticket that finished before its hook was set is caught by the
        # ``done`` scan that follows in the same loop pass.
        ticket.on_complete = wakeup.set
        pending[rid] = ticket

    if store is not None:
        for rid, ticket in service.recover(resubmit=True).items():
            if rid.isdigit():
                _track(int(rid), ticket)
                recovered.append(int(rid))
    out = _Outgoing(conn)
    conn.send(("ready", shard_id, os.getpid()))
    conn.send(("recovered", sorted(recovered)))

    def _drain_ships() -> None:
        if ship_queue is None:
            return
        while True:
            try:
                out.send(ship_queue.get_nowait())
            except queue.Empty:
                return

    def _fenced_now() -> int:
        """The newer token on disk, or 0 while we still own the shard."""
        if config.fence_file is None:
            return 0
        disk = read_fence_token(config.fence_file)
        return disk if disk > held else 0

    def _stop_if_fenced(where: str) -> None:
        """Fencing: with a newer token on disk, publish nothing but
        ``("fenced", ...)`` and stop."""
        newer = _fenced_now()
        if newer:
            service.close(wait=False, timeout=0.5)
            out.buffer = []  # publish nothing, not even pongs
            out.send(("fenced", newer, held))
            out.flush()
            raise StoreFenced(
                f"shard {shard_id} fenced {where}", token=newer, held=held
            )

    closing = False
    fence_checked = _now()
    try:
        while True:
            _visit("shard.loop")
            # Sleep until a message, a finished ticket or a shipped record
            # arrives; an idle worker also wakes for its fence re-check.
            idle_wait = (
                None
                if pending
                else max(0.0, fence_checked + _FENCE_RECHECK_S - _now())
            )
            multiprocessing.connection.wait([conn, wakeup], idle_wait)
            # Cleared before the scans below: a signal raised after this
            # line leaves the fd readable and wakes the next pass.
            wakeup.clear()
            for message in _drain_inbox(conn, 0.0):
                kind = message[0]
                if kind == "submit":
                    rid, payload = message[1], message[2]
                    started = _now()
                    request = QueryRequest.from_payload(payload)
                    try:
                        _track(rid, service.submit(request, request_id=rid))
                    except ReproError as exc:
                        out.send(
                            ("response", rid, _rejection_response(exc, started))
                        )
                elif kind == "cancel":
                    ticket = pending.get(message[1])
                    if ticket is not None:
                        ticket.cancel()
                elif kind == "ping":
                    out.send(
                        ("pong", message[1], service.queue.depth(), len(pending))
                    )
                elif kind == "manifest" and store is not None:
                    # Under the store lock nothing can append, so the
                    # manifest pins an exact prefix and every record
                    # shipped after this message is exactly the suffix.
                    with store._lock:
                        _drain_ships()
                        out.send(("manifest", build_manifest(store.root)))
                elif kind == "fetch" and store is not None:
                    index, length = message[1], message[2]
                    out.send(
                        ("segment", index, read_segment(store.root, index, length))
                    )
                elif kind == "close":
                    closing = True
                    break
            done_rids = [rid for rid in pending if pending[rid].done]
            if done_rids or _now() - fence_checked >= _FENCE_RECHECK_S:
                # Fencing: always re-checked before publishing a
                # response, and periodically while idle.
                fence_checked = _now()
                _stop_if_fenced("while serving")
            for rid in done_rids:
                response = pending[rid].response(0)
                _visit("shard.ack")
                out.send(("response", rid, encode_response(response)))
                del pending[rid]
            _drain_ships()
            out.flush()
            if closing:
                # Drain: in-flight requests finish, queued-but-unstarted
                # ones get the typed shutdown response from close().  The
                # fence is re-checked before their responses go out.
                service.close(wait=True)
                _stop_if_fenced("while closing")
                for rid, ticket in list(pending.items()):
                    if ticket.done:
                        out.send(
                            ("response", rid, encode_response(ticket.response(0)))
                        )
                _drain_ships()
                out.send(("bye",))
                out.flush()
                break
    finally:
        if not closing:
            service.close(wait=False, timeout=1.0)
        if store is not None:
            store.close()
        wakeup.close()


def _standby_main(shard_id: int, conn: Any, config: ShardConfig) -> Optional[int]:
    """The standby loop: anti-entropy sync, then continuous replay of
    the ship stream.  Returns the fencing token on promotion (the caller
    re-enters as a primary) or ``None`` on clean close."""
    from repro.durable.replication import ReplicaWal

    replica = ReplicaWal(_wal_root(shard_id, config), fsync=config.fsync)
    out = _Outgoing(conn)
    conn.send(("ready", shard_id, os.getpid()))
    conn.send(("sync-request",))

    state = "syncing"
    awaiting: Dict[int, Dict[str, Any]] = {}
    buffered: List[Tuple[Any, ...]] = []
    applied_seq = 0
    diverged = False
    seen_manifest = False

    def _apply(message: Tuple[Any, ...]) -> None:
        _visit("repl.ack")
        if message[0] == "ship":
            replica.append(message[2], message[3])
        else:
            replica.apply_compact(message[2], message[3])

    def _go_warm() -> None:
        nonlocal state, applied_seq, buffered
        state = "warm"
        for message in buffered:
            _apply(message)
            applied_seq = message[1]
        buffered = []
        out.send(("standby-state", "warm", diverged))

    try:
        while True:
            _visit("shard.loop")
            for message in _drain_inbox(conn, 0.02):
                kind = message[0]
                if kind == "manifest":
                    seen_manifest = True
                    plan = replica.plan_sync(message[1])
                    diverged = plan.diverged
                    for index in plan.delete:
                        replica.delete_segment(index)
                    for entry in plan.fetch:
                        awaiting[entry["index"]] = entry
                        out.send(("fetch", entry["index"], entry["length"]))
                    if not awaiting:
                        _go_warm()
                elif kind == "segment":
                    entry = awaiting.pop(message[1], None)
                    if entry is not None:
                        replica.write_segment(entry, message[2])
                    if seen_manifest and not awaiting and state == "syncing":
                        _go_warm()
                elif kind in ("ship", "ship-compact"):
                    if state == "syncing":
                        buffered.append(message)
                    else:
                        _apply(message)
                        applied_seq = message[1]
                elif kind == "ping":
                    out.send(("pong", message[1], applied_seq, state))
                elif kind == "promote":
                    _visit("repl.promote")
                    replica.sync()
                    replica.close()
                    out.flush()
                    return message[1]
                elif kind == "close":
                    out.send(("bye",))
                    out.flush()
                    return None
            out.flush()
    finally:
        replica.close()


# -- the parent-side handle -----------------------------------------------------


@dataclass
class ShardHandle:
    """The front door's grip on one worker process: its pipe end, its
    lifecycle bookkeeping, and a send path safe to use from the caller
    threads and the supervisor thread at once.

    Sends go through a dedicated per-generation **sender thread**, never
    directly from the caller.  This is load-bearing, not a convenience:
    a duplex pipe deadlocks when both ends block writing into full
    buffers at once — exactly what a bulk resend after a crash produces
    (the supervisor pushing hundreds of retained payloads while the
    worker pushes responses back, neither reading).  With the sender
    thread, the supervisor thread only ever *reads*, so the worker's
    sends always drain, so the worker keeps reading, so the sender
    thread's blocking writes always complete.  A message enqueued toward
    a dying worker is simply dropped when the sender thread exits — the
    restart protocol resends everything unacknowledged anyway.
    """

    shard_id: int
    config: ShardConfig
    ctx: Any
    process: Any = None
    conn: Any = None
    #: rids currently assigned to this shard (owned by the supervisor's
    #: pending registry; mirrored here for cheap reassignment).
    generation: int = 0
    #: A read hit the end of the pipe: the worker's end is closed.  An EOF
    #: pipe is always readable, so the supervisor leaves it out of its
    #: wait set until a tick reaps the process.
    eof: bool = False
    _outbox: Any = field(default=None, repr=False, compare=False)
    _inbox: List[Tuple[Any, ...]] = field(
        default_factory=list, repr=False, compare=False
    )

    def spawn(self) -> None:
        """Start (or restart) the worker process on a fresh pipe."""
        parent_end, child_end = self.ctx.Pipe(duplex=True)
        suffix = "-standby" if self.config.role == "standby" else ""
        self.process = self.ctx.Process(
            target=shard_worker_main,
            args=(self.shard_id, child_end, self.config),
            name=f"repro-shard-{self.shard_id}{suffix}",
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self.conn = parent_end
        self.generation += 1
        self.eof = False
        self._inbox = []
        # A fresh outbox per generation: the old sender thread stays
        # married to the old pipe and dies with it (its blocked write
        # raises once the dead worker's end closes).
        self._outbox = queue.Queue()
        threading.Thread(
            target=self._send_loop,
            args=(parent_end, self._outbox),
            name=f"repro-shard-{self.shard_id}{suffix}-send",
            daemon=True,
        ).start()

    @staticmethod
    def _send_loop(conn: Any, outbox: Any) -> None:
        exhausted = False
        while not exhausted:
            message = outbox.get()
            if message is None:
                return
            messages = [message]
            # Greedy drain: everything already enqueued (a bulk resend, a
            # burst of submits) leaves as one pipe write.
            while True:
                try:
                    extra = outbox.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    exhausted = True
                    break
                messages.append(extra)
            try:
                if len(messages) > 1:
                    conn.send(("batch", messages))
                else:
                    conn.send(messages[0])
            except (BrokenPipeError, ValueError, OSError):
                return
            except TypeError:
                # The supervisor closed the pipe between two partial
                # writes of a large message (the worker died or was
                # killed): the connection's handle is None now.
                if conn.closed:
                    return
                raise

    def send(self, message: Tuple[Any, ...]) -> bool:
        """Enqueue for the sender thread; ``False`` when the worker end
        is already gone (the supervisor turns that into a crash
        observation, not an error).  Never blocks on the pipe."""
        outbox = self._outbox
        if outbox is None or self.conn is None:
            return False
        outbox.put(message)
        return True

    def poll(self) -> bool:
        if self._inbox:
            return True
        if self.conn is None:
            return False
        try:
            return self.conn.poll(0.0)
        except (BrokenPipeError, OSError):
            self.eof = True
            return False

    def recv(self) -> Optional[Tuple[Any, ...]]:
        """The next message, or ``None`` at end of pipe (then :attr:`eof`
        is set)."""
        if self._inbox:
            return self._inbox.pop(0)
        try:
            message = self.conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            self.eof = True
            return None
        if message and message[0] == "batch":
            self._inbox = list(message[1])
            return self._inbox.pop(0) if self._inbox else None
        return message

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return None if self.process is None else self.process.exitcode

    def kill(self, join_timeout: float = 2.0) -> None:
        """SIGKILL the worker (used for hung shards and final cleanup)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(join_timeout)
        if self._outbox is not None:
            self._outbox.put(None)  # idle sender thread: exit cleanly
            self._outbox = None
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
