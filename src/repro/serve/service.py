"""The resilient query service: a concurrent evaluation front end.

:class:`QueryService` turns the one-shot pipeline (compile → engine →
database) into a long-lived service that survives overload and injected
faults.  The moving parts, in request order:

1. **Admission** — :meth:`QueryService.submit` consults the request's
   per-program-class :class:`~repro.robust.breaker.CircuitBreaker`
   (open ⇒ typed :class:`~repro.serve.errors.CircuitOpen`) and offers the
   ticket to the bounded :class:`~repro.serve.admission.AdmissionQueue`
   (full ⇒ typed :class:`~repro.serve.errors.Overloaded`, O(1), with a
   retry-after hint).  Nothing about a rejected request is retained.
2. **Execution** — a fixed pool of worker threads takes tickets in FIFO
   order (shedding any whose deadline lapsed while queued) and evaluates
   each under its own :class:`~repro.robust.governor.RunGovernor`,
   deadline-clipped budget, per-request tracer and private metrics
   registry.
3. **Retries** — attempts failed by a *transient* fault (by default an
   injected chaos fault) are re-run under the service's
   :class:`~repro.robust.retry.RetryPolicy` — exponential backoff, full
   jitter seeded per request, capped by the delay budget and the
   request's deadline.  A seeded request replays the same γ draws on
   retry, so the healed result equals the fault-free one.
4. **Graceful degradation** — budget exhaustion is not an error at the
   service boundary: the response carries status ``degraded`` with the
   :class:`~repro.robust.governor.PartialResult` and its resumable
   checkpoint; submitting a follow-up request with
   ``resume_from=<checkpoint>`` continues the run where it stopped.
5. **Accounting** — every outcome feeds the breaker, the admission EWMA
   and the ``serve/`` metrics namespace; :meth:`health` and :meth:`stats`
   expose queue depth, breaker states, shed/retry counts and latency
   percentiles.

The invariant the soak suite pins down: **no request is ever lost** —
every submission either raises a typed rejection at the door or
terminates in exactly one of the
:data:`~repro.serve.request.TERMINAL_STATUSES`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import BudgetExceeded, Cancelled, ReproError
from repro.obs.tracer import Tracer
from repro.robust.breaker import CLOSED, CircuitBreaker
from repro.robust.governor import Budget, CancelToken, RunGovernor
from repro.robust.retry import RetryPolicy, is_transient
from repro.serve.admission import AdmissionQueue
from repro.serve.errors import CircuitOpen, Overloaded, ServiceClosed
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import (
    CANCELLED,
    DEGRADED,
    FAILED,
    OK,
    SHED,
    QueryRequest,
    QueryResponse,
)

__all__ = ["QueryService", "Ticket"]


class _LiveEntry:
    """One live materialized view plus its coordination state: a lock
    serializing applies, and the batch ids already applied in this
    process (the durable journal extends the set across restarts)."""

    __slots__ = ("lock", "view", "applied")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.view: Any = None
        self.applied: set = set()


class Ticket:
    """The caller's handle on one submitted request.

    The service completes every admitted ticket exactly once; the caller
    blocks on :meth:`response` (or polls :attr:`done`) and may
    :meth:`cancel` cooperatively at any time — the running engine stops
    at its next governor tick and the ticket resolves with status
    ``cancelled`` and a resumable partial result.
    """

    def __init__(self, request_id: int, request: QueryRequest, submitted_at: float):
        self.request_id = request_id
        self.request = request
        self.submitted_at = submitted_at
        #: Absolute monotonic deadline, set by the service at admission.
        self.deadline: Optional[float] = None
        self.token = CancelToken()
        #: Called with no arguments, on the completing thread, right after
        #: the ticket resolves — lets an event loop block until some
        #: ticket finishes instead of polling :attr:`done`.
        self.on_complete: Optional[Callable[[], None]] = None
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation (observed at the running
        engine's next tick; a still-queued ticket resolves when a worker
        picks it up and sees the token)."""
        self.token.cancel(reason)

    def response(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the ticket resolves and return the response.

        Raises:
            TimeoutError: when *timeout* elapses first (the request keeps
                running; call again to keep waiting).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still running after {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _complete(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()
        # Read after the event is set: a hook installed after this read
        # finds ``done`` already true, so no completion goes unnoticed.
        hook = self.on_complete
        if hook is not None:
            hook()


class QueryService:
    """A worker pool evaluating (program, facts, engine, budget) requests.

    Args:
        workers: worker-thread count.
        queue_capacity: admission-queue bound; submissions beyond it shed.
        retry: transient-fault :class:`RetryPolicy` (``max_attempts=1``
            disables retrying).
        transient: exception classifier for retries; defaults to
            "injected chaos faults only".
        failure_threshold / reset_timeout: per-class circuit-breaker
            tuning (see :class:`~repro.robust.breaker.CircuitBreaker`).
        default_budget: budget applied to requests that carry none.
        trace: record per-request span trees (returned on each response).
        seed: service-level seed; the retry-jitter rng of request *n* is
            seeded ``(seed, n)`` so a soak run's backoff schedule is
            reproducible.
        clock: monotonic time source (injectable for tests).
        store: optional :class:`~repro.durable.store.CheckpointStore`.
            With one attached, every admitted request is journalled, its
            run streams crash-safe checkpoints at the durability cadence,
            and terminal requests are marked done — a restarted service
            opened on the same store reports the survivors via
            :meth:`recover`.  Request ids are seeded past every id the
            store has ever journalled, so restarts never collide.
        durability: the checkpoint cadence
            (:class:`~repro.durable.policy.DurabilityPolicy`); defaults
            to the policy's own default when a *store* is attached.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_capacity: int = 64,
        retry: RetryPolicy | None = None,
        transient: Callable[[BaseException], bool] = is_transient,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        default_budget: Budget | None = None,
        trace: bool = False,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        store: Any = None,
        durability: Any = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.durability = durability
        self.retry = retry if retry is not None else RetryPolicy()
        self.transient = transient
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.default_budget = default_budget
        self.trace = trace
        self.seed = seed
        self.clock = clock
        self.metrics = ServiceMetrics()
        self.queue = AdmissionQueue(queue_capacity, clock=clock)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        # Live materialized views, keyed (engine, program sha256, seed);
        # see QueryRequest.updates.
        self._views: Dict[Any, _LiveEntry] = {}
        self._views_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = store.next_numeric_rid() if store is not None else 0
        self._inflight = 0
        self._closed = False
        self._stop = threading.Event()
        self._workers: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ------------------------------------------------------------

    def submit(
        self, request: QueryRequest, request_id: Optional[int] = None
    ) -> Ticket:
        """Admit *request* or reject it in O(1).

        Args:
            request_id: assign this numeric id instead of the next fresh
                one.  Used by recovery (a resubmitted run keeps its
                journalled id, so its WAL records stay one chain) and by
                shard workers executing on behalf of a front door that
                already numbered the request.  The internal counter jumps
                past it, so fresh ids never collide.

        Raises:
            ServiceClosed: after :meth:`close`.
            CircuitOpen: the request's program class is tripped.
            Overloaded: the queue is full or the deadline is already dead.
        """
        if self._closed:
            raise ServiceClosed("query service is closed to new submissions")
        self.metrics.inc("submitted")
        breaker = self._breaker(request.breaker_class())
        if not breaker.allow():
            self.metrics.inc("circuit_open")
            raise CircuitOpen(
                f"circuit breaker for program class "
                f"{request.breaker_class()!r} is open",
                retry_after=breaker.retry_after(),
                klass=request.breaker_class(),
            )
        now = self.clock()
        with self._id_lock:
            if request_id is None:
                request_id = self._next_id
                self._next_id += 1
            else:
                self._next_id = max(self._next_id, request_id + 1)
        ticket = Ticket(request_id, request, submitted_at=now)
        if request.deadline is not None:
            ticket.deadline = now + request.deadline
        if self.store is not None:
            # Journal before offering: once the caller holds a ticket, the
            # request is recoverable even if this process dies immediately.
            self.store.journal_request(str(request_id), request.to_payload())
        try:
            self.queue.offer(ticket, deadline=ticket.deadline)
        except Overloaded:
            self.metrics.inc("rejected")
            # The breaker granted this request (possibly consuming a
            # half-open probe slot), but it never ran — hand the slot back.
            breaker.release_probe()
            if self.store is not None:
                # Rejected at the door: the caller was told, nothing ran,
                # nothing to recover.
                self.store.mark_done(str(request_id))
            raise
        self.metrics.inc("accepted")
        self.metrics.gauge("queue_depth", self.queue.depth())
        return ticket

    def evaluate(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and wait: returns the response for usable outcomes
        (``ok``/``degraded``/``cancelled``), re-raises the typed error for
        ``failed``/``shed`` ones.  Admission rejections raise from
        :meth:`submit` directly."""
        response = self.submit(request).response(timeout)
        if response.status in (FAILED, SHED) and response.error is not None:
            raise response.error
        return response

    # -- worker side -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            ticket = self.queue.take(timeout=0.05, on_shed=self._shed)
            if ticket is None:
                continue
            self.metrics.gauge("queue_depth", self.queue.depth())
            with self._id_lock:
                self._inflight += 1
            try:
                self._execute(ticket)
            except Exception as exc:  # pragma: no cover - backstop: a bug in
                # the service itself must not strand the ticket (the caller
                # would block forever) or kill the worker thread.
                if not ticket.done:
                    self.metrics.inc(FAILED)
                    ticket._complete(
                        QueryResponse(
                            request_id=ticket.request_id,
                            status=FAILED,
                            error=exc,
                            latency_s=self.clock() - ticket.submitted_at,
                        )
                    )
            finally:
                with self._id_lock:
                    self._inflight -= 1

    def _shed(self, ticket: Ticket) -> None:
        """Complete a ticket whose deadline expired while it queued."""
        self.metrics.inc("shed")
        self._breaker(ticket.request.breaker_class()).release_probe()
        now = self.clock()
        if self.store is not None:
            self.store.mark_done(str(ticket.request_id))
        ticket._complete(
            QueryResponse(
                request_id=ticket.request_id,
                status=SHED,
                error=Overloaded(
                    "deadline expired while the request was queued",
                    retry_after=self.queue.retry_after(len(self._workers)),
                ),
                latency_s=now - ticket.submitted_at,
                queue_s=now - ticket.submitted_at,
            )
        )

    def _execute(self, ticket: Ticket) -> None:
        request = ticket.request
        started = self.clock()
        queue_s = started - ticket.submitted_at
        breaker = self._breaker(request.breaker_class())
        jitter_rng = random.Random(f"{self.seed}:{ticket.request_id}")
        attempts = 0
        retries = 0
        tracer = Tracer(enabled=self.trace)

        def note_retry(attempt: int, exc: BaseException, delay: float) -> None:
            nonlocal retries
            retries += 1
            self.metrics.inc("retries")
            tracer.event(
                "retry", attempt=attempt, error=type(exc).__name__, delay_s=delay
            )

        def attempt() -> Any:
            nonlocal attempts
            attempts += 1
            return self._run_once(request, ticket, tracer)

        status = FAILED
        database = partial = checkpoint = None
        error: Optional[BaseException] = None
        try:
            database = self.retry.call(
                attempt,
                transient=self.transient,
                rng=jitter_rng,
                on_retry=note_retry,
                deadline=ticket.deadline,
                clock=self.clock,
            )
            status = OK
        except BudgetExceeded as exc:
            # Budget exhaustion is a *degraded response*, not a failure:
            # the caller gets everything the run computed plus the means
            # to continue it.
            status = DEGRADED
            partial = exc.partial
            checkpoint = getattr(exc.partial, "checkpoint", None)
            database = getattr(exc.partial, "database", None)
            error = exc
        except Cancelled as exc:
            status = CANCELLED
            partial = exc.partial
            checkpoint = getattr(exc.partial, "checkpoint", None)
            database = getattr(exc.partial, "database", None)
            error = exc
        except ReproError as exc:
            status = FAILED
            error = exc
        except Exception as exc:  # pragma: no cover - defensive: no request
            status = FAILED  # may take a worker down with it
            error = exc

        if status in (OK, DEGRADED):
            breaker.record_success()
        elif status == FAILED:
            breaker.record_failure()
        else:  # a cancellation says nothing about the program's health
            breaker.release_probe()

        now = self.clock()
        service_s = now - started
        self.queue.record_service_time(service_s)
        self.metrics.inc(status)
        self.metrics.observe("latency_s", now - ticket.submitted_at)
        self.metrics.observe("queue_s", queue_s)
        self.metrics.merge_request(tracer.registry)
        if self.store is not None:
            # The outcome (including a degraded/cancelled checkpoint) is
            # about to be delivered to the caller — nothing left to
            # recover.  Retire the id *before* completing the ticket so a
            # client that sees the response never finds its own request
            # still pending in the store.
            self.store.mark_done(str(ticket.request_id))
        ticket._complete(
            QueryResponse(
                request_id=ticket.request_id,
                status=status,
                database=database,
                partial=partial,
                checkpoint=checkpoint,
                error=error,
                attempts=attempts,
                retries=retries,
                latency_s=now - ticket.submitted_at,
                queue_s=queue_s,
                metrics=tracer.registry.snapshot(),
                trace=tracer.records if self.trace else None,
            )
        )

    def _run_once(self, request: QueryRequest, ticket: Ticket, tracer: Tracer) -> Any:
        """One evaluation attempt under a fresh governor (a governor is
        single-run state; every retry and every resume gets its own)."""
        from repro.core.compiler import _as_database, _make_engine, compile_program
        from repro.robust.checkpoint import restore

        budget = request.budget or self.default_budget or Budget()
        if ticket.deadline is not None:
            remaining = max(0.001, ticket.deadline - self.clock())
            wall = (
                remaining
                if budget.wall_clock is None
                else min(budget.wall_clock, remaining)
            )
            budget = Budget(
                wall_clock=wall,
                max_gamma_steps=budget.max_gamma_steps,
                max_rounds=budget.max_rounds,
                max_facts=budget.max_facts,
                max_memory_mb=budget.max_memory_mb,
            )
        if request.updates is not None:
            with tracer.span(
                "request",
                phase="serve",
                request_id=ticket.request_id,
                engine=request.engine,
                klass=request.breaker_class(),
                live=True,
            ):
                return self._apply_updates(request, ticket, tracer)
        writer = None
        if self.store is not None:
            from repro.durable.policy import DurableWriter

            writer = DurableWriter(
                self.store, str(ticket.request_id), self.durability
            )
        governor = RunGovernor(budget, token=ticket.token, durability=writer)
        with tracer.span(
            "request",
            phase="serve",
            request_id=ticket.request_id,
            engine=request.engine,
            klass=request.breaker_class(),
        ):
            if request.resume_from is not None:
                cp = request.resume_from
                compiled = compile_program(request.program, engine=cp.engine)
                engine, db = restore(
                    cp, compiled.program, governor=governor, tracer=tracer
                )
                for name, rows in request.facts.items():
                    db.assert_all(name, map(tuple, rows))
            else:
                compiled = compile_program(request.program, engine=request.engine)
                rng = (
                    random.Random(request.seed) if request.seed is not None else None
                )
                engine = _make_engine(
                    request.engine,
                    compiled.program,
                    rng,
                    tracer=tracer,
                    governor=governor,
                )
                db = _as_database({k: list(v) for k, v in request.facts.items()})
            return engine.run(db)

    def _apply_updates(self, request: QueryRequest, ticket: Ticket, tracer: Tracer) -> Any:
        """Serve a live-view request: apply its update batch to the
        ``(engine, program, seed)`` view — creating (or, on a durable
        store, recovering) the view on first touch — and return a copy
        of the maintained model.

        Applies are serialized per view; the batch id is derived from
        the request id, so in-service retries and crash-recovery
        resubmission are exactly-once.  A repair that dies mid-way
        rebuilds the view from its EDB (durable views reopen from the
        journal) before the error propagates, so the next request sees
        consistent state.
        """
        import hashlib

        from repro.incremental import LiveView, MaterializedView, UpdateBatch, UpdateOp

        digest = hashlib.sha256(request.program.encode("utf-8")).hexdigest()
        seed = request.seed if request.seed is not None else 0
        key = (request.engine, digest, seed)
        with self._views_lock:
            entry = self._views.get(key)
            if entry is None:
                entry = _LiveEntry()
                self._views[key] = entry
        with entry.lock:
            if entry.view is None:
                if self.store is not None:
                    entry.view = LiveView.open(
                        self.store,
                        f"view-{digest[:12]}-{request.engine}-{seed}",
                        source=request.program,
                        engine=request.engine,
                        seed=seed,
                    )
                    entry.applied |= entry.view._applied_ids
                else:
                    entry.view = MaterializedView(
                        request.program, engine=request.engine, seed=seed
                    )
            ops = [
                UpdateOp("+", name, tuple(row))
                for name, rows in sorted(request.facts.items())
                for row in rows
            ]
            ops.extend(UpdateOp.parse(str(text)) for text in request.updates)
            batch = UpdateBatch.of(ops, batch_id=f"req-{ticket.request_id}")
            result = None
            if ops and batch.batch_id not in entry.applied:
                try:
                    result = entry.view.apply(batch)
                except BaseException:
                    # LiveView reopens itself from the journal; the plain
                    # view rebuilds from its (already mutated) EDB.
                    rebuild = getattr(entry.view, "rebuild", None)
                    if rebuild is not None:
                        rebuild()
                    raise
                entry.applied.add(batch.batch_id)
            self.metrics.inc("live_batches")
            if result is not None:
                registry = tracer.registry
                registry.inc("incremental/batches")
                registry.inc("incremental/facts_invalidated", result.invalidated)
                registry.inc("incremental/facts_rederived", result.rederived)
                registry.inc("incremental/units_recomputed", result.units_recomputed)
                registry.inc("incremental/fast_path_resumes", result.fast_path_resumes)
                tracer.event(
                    "live-apply",
                    batch_id=batch.batch_id,
                    ops=len(batch),
                    invalidated=result.invalidated,
                    rederived=result.rederived,
                    fast_path=result.fast_path_resumes,
                )
            return entry.view.db.copy()

    # -- recovery ---------------------------------------------------------------

    def recover(self, resubmit: bool = True) -> Dict[str, Any]:
        """Report — and by default resubmit — the runs a previous process
        journalled but never finished.

        A run is recoverable when its request was journalled and no
        ``done`` record followed (the process died before delivering the
        outcome).  Resubmission rebuilds the request from the journal; a
        run that reached at least one durable checkpoint is resumed from
        its newest one (``resume_from``), so a seeded request completes
        to the byte-identical model the uninterrupted run would have
        produced.  A numeric journalled id is reused verbatim (the rerun
        journals and completes under the same id, so the WAL stays one
        chain per request); a non-numeric id gets a fresh one and the old
        id is retired — either way recovery is at-least-once, never
        silent loss.

        Returns ``{journalled_id: Ticket}`` when *resubmit* is true,
        ``{journalled_id: QueryRequest}`` otherwise (the store is then
        left untouched).  Without a store this is an empty dict.
        """
        if self.store is None:
            return {}
        recovered: Dict[str, Any] = {}
        for rid, run in sorted(self.store.pending().items()):
            if run.request is None:
                # Checkpoints without a journalled request (a bare-store
                # writer, e.g. the CLI) are not the service's to rerun.
                continue
            request = QueryRequest.from_payload(run.request)
            if run.checkpoint_payload is not None:
                request.resume_from = self.store.latest_checkpoint(rid)
            if not resubmit:
                recovered[rid] = request
                continue
            numeric = int(rid) if rid.isdigit() else None
            ticket = self.submit(request, request_id=numeric)
            self.metrics.inc("recovered")
            if numeric is None:
                # The rerun lives under a fresh id; retire the old one.
                self.store.mark_done(rid)
            recovered[rid] = ticket
        return recovered

    # -- breakers ---------------------------------------------------------------

    def _breaker(self, klass: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(klass)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    clock=self.clock,
                )
                self._breakers[klass] = breaker
            return breaker

    # -- introspection ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness + load in one cheap call (no engine work)."""
        depth = self.queue.depth()
        with self._breakers_lock:
            breakers = {k: b.state for k, b in self._breakers.items()}
        open_breakers = sum(1 for state in breakers.values() if state != CLOSED)
        self.metrics.gauge("breakers_open", open_breakers)
        if self._closed:
            status = "closed"
        elif depth >= self.queue.capacity:
            status = "saturated"
        else:
            status = "ok"
        return {
            "status": status,
            "workers": len(self._workers),
            "inflight": self._inflight,
            "queue_depth": depth,
            "queue_capacity": self.queue.capacity,
            "breakers": breakers,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``serve/`` counters, latency percentiles, queue counters
        and per-class breaker snapshots."""
        stats = self.metrics.stats()
        stats["queue"] = {
            "admitted": self.queue.admitted,
            "rejected": self.queue.rejected,
            "expired": self.queue.expired,
            "depth": self.queue.depth(),
        }
        with self._breakers_lock:
            stats["breakers"] = {
                k: b.snapshot() for k, b in self._breakers.items()
            }
        return stats

    # -- lifecycle ---------------------------------------------------------------

    def close(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work; optionally drain what was admitted.

        With ``wait`` the call blocks (up to *timeout*) until the queue
        empties and in-flight requests finish, so every admitted ticket
        resolves with its real outcome.  Without it — or when the wait
        times out — workers stop after their current request and every
        still-queued ticket is completed with a typed shutdown response
        (status ``shed``, :class:`~repro.serve.errors.ServiceClosed`), so
        a caller blocked in :meth:`Ticket.response` always wakes up.
        """
        self._closed = True
        if wait:
            deadline = self.clock() + timeout
            while (self.queue.depth() > 0 or self._inflight > 0) and (
                self.clock() < deadline
            ):
                time.sleep(0.005)
        self._stop.set()
        for thread in self._workers:
            thread.join(timeout=5.0)
        # Workers are gone; whatever is still queued (close(wait=False),
        # or the drain timed out) would otherwise strand its caller.
        for ticket in self.queue.drain():
            if ticket.done:
                continue
            self.metrics.inc("shed")
            self._breaker(ticket.request.breaker_class()).release_probe()
            if self.store is not None:
                # The caller is being told "not run" — nothing to recover.
                self.store.mark_done(str(ticket.request_id))
            ticket._complete(
                QueryResponse(
                    request_id=ticket.request_id,
                    status=SHED,
                    error=ServiceClosed(
                        "query service closed before this request ran"
                    ),
                    latency_s=self.clock() - ticket.submitted_at,
                    queue_s=self.clock() - ticket.submitted_at,
                )
            )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
