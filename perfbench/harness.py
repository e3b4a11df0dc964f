"""Shared plumbing for the benchmark workloads: paths, statistics, the
bench-side span recorder, set-up timing, provenance and process hygiene.

Nothing here imports :mod:`repro` at module level; :func:`import_repro`
puts the checkout's ``src/`` on the path first, so the benchmark always
measures the source tree it ships with.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: temp WAL directories and traces.
WORK = ROOT / ".perfbench"

#: Set-up is repeated this many times per untraced run; the median is
#: ``setup_s``, so one slow spawn or cold cache does not decide it.
SETUP_REPEATS = 5

#: The calibration kernel's median time on the machine the benchmark was
#: sized on (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11).
#: CPU-bound timings are reported at that machine speed; see
#: :class:`Calibration`.
REFERENCE_KERNEL_S = 0.0025


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_repro() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    import sys

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- statistics -----------------------------------------------------------------


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        raise BenchError("no samples to take a percentile of")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per(total: float, count: int) -> float:
    return total / count if count else 0.0


def gmean_of_medians(groups: Dict[Any, List[float]]) -> float:
    """The geometric mean, over groups, of each group's median.  A class
    metric built this way resists one group's outliers, has no boundary
    between two groups to jump across, and moves by the same share
    whichever group a change speeds up."""
    if not groups:
        raise BenchError("no groups to average")
    logs = [math.log(median(values)) for values in groups.values()]
    return math.exp(sum(logs) / len(logs))


# -- machine-speed calibration ------------------------------------------------------


def kernel() -> int:
    """A fixed pure-Python workload shaped like engine work (tuple keys,
    dict probes, a keyed sort); it calls nothing in :mod:`repro`, so no
    change to the program can speed it up."""
    table = {}
    for i in range(6000):
        table[(i % 97, i)] = i
    hits = 0
    for (a, b), v in table.items():
        if (a, b - 1) in table:
            hits += v
    return hits + len(sorted(table, key=lambda k: k[1] % 13)[:10])


class Calibration:
    """Machine speed, sampled between operations.

    On a shared host the speed of the same CPU-bound code drifts by tens of
    percent within seconds and between minutes, and every timing drifts
    with it.  The kernel drifts the same way, so a CPU-bound timing is
    reported at reference speed: ``raw * REFERENCE_KERNEL_S / k``, where
    ``k`` is the median of the ``NEIGHBOURS`` kernel samples taken closest
    in time to the operation.  Kernel runs happen between operations,
    outside every timing.
    """

    NEIGHBOURS = 9

    def __init__(self, interval: float = 0.05) -> None:
        self.samples: List[float] = []
        #: When each sample ended (``time.perf_counter``), ascending.
        self.stamps: List[float] = []
        self.interval = interval
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.stamps.append(self._last)

    def at(self, when: float) -> float:
        """The calibration factor for an operation that ended at *when*."""
        if not self.samples:
            raise BenchError("no calibration samples")
        i = bisect.bisect_left(self.stamps, when)
        lo = max(0, min(i - self.NEIGHBOURS // 2, len(self.samples) - self.NEIGHBOURS))
        return REFERENCE_KERNEL_S / median(self.samples[lo:lo + self.NEIGHBOURS])

    def maybe_sample(self) -> None:
        """Sample when ``interval`` seconds passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def burst(self, count: int = 15) -> "Calibration":
        for _ in range(count):
            self.sample()
        return self

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / median(self.samples)


# -- bench-side tracing -----------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    rid: Any


class Spans:
    """An in-memory span recorder for the calls the benchmark makes into
    each layer.  Disabled, :meth:`span` is a shared no-op; enabled, each
    span records name, start, end, parent and request id.  Parents are
    tracked per thread, so spans opened in a service worker thread nest
    under that thread's open span only.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def _recording(self, name: str, rid: Any) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append(Span(name, start, end, span_id, parent, rid))

    @contextmanager
    def _off(self) -> Iterator[None]:
        yield

    def span(self, name: str, rid: Any = None):
        if not self.enabled:
            return self._off()
        return self._recording(name, rid)

    def add(self, name: str, start: float, end: float, rid: Any = None,
            parent_id: Optional[int] = None) -> int:
        """Record a span whose ends were timed elsewhere (another thread
        saw one end); returns its id, for children to point at."""
        span_id = next(self._ids)
        self.records.append(Span(name, start, end, span_id, parent_id, rid))
        return span_id

    def wrap(self, owner: Any, attr: str, name: str, rid_of: Callable[..., Any]):
        """Replace ``owner.attr`` by a spanned wrapper whose request id is
        ``rid_of(*args)``; returns the undo."""
        original = getattr(owner, attr)
        spans = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with spans.span(name, rid_of(*args)):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.records if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it its direct children cover."""
        covered: Dict[int, float] = {}
        for s in self.records:
            if s.parent_id is not None:
                covered[s.parent_id] = covered.get(s.parent_id, 0.0) + (s.end - s.start)
        totals: Dict[str, float] = {}
        for s in self.records:
            own = max(0.0, (s.end - s.start) - covered.get(s.span_id, 0.0))
            totals[s.name] = totals.get(s.name, 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.records:
                handle.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "span_id": s.span_id,
                            "parent_id": s.parent_id,
                            "rid": s.rid,
                        }
                    )
                    + "\n"
                )


# -- results ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports back to :mod:`run`."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Extra ``name = value unit`` lines printed before the result.
    notes: List[Tuple[str, float, str]] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """One operation failed: it counts in ``failed`` and the run is
        not correct."""
        self.failed += 1
        self.invalidate(message)

    def invalidate(self, message: str) -> None:
        """The run as a whole cannot be trusted (no single operation
        failed)."""
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def timed_setups(build: Callable[[], Any], close: Callable[[Any], None],
                 outcome: Outcome) -> Any:
    """Run *build* ``SETUP_REPEATS`` times, closing all but the last
    result, which is returned.  Sets ``setup_s``: the median set-up time,
    each one calibrated by kernel bursts taken just before and after it."""
    raw: List[float] = []
    calibrated: List[float] = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None:
            close(result)
            result = None
        cal = Calibration().burst()
        start = time.perf_counter()
        result = build()
        raw.append(time.perf_counter() - start)
        calibrated.append(raw[-1] * cal.burst().factor)
    outcome.metrics["setup_s"] = median(calibrated)
    outcome.notes.append(("raw_setup_s", median(raw), "s"))
    return result


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for parent, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(parent, name))
            except OSError:
                pass
    return total


def reap_children(timeout: float = 5.0) -> List[str]:
    """Names of child processes still alive; each is killed and joined,
    so none outlives the workload that spawned it."""
    survivors = []
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    for child in multiprocessing.active_children():
        survivors.append(child.name)
        child.kill()
        child.join(timeout)
    return survivors


def stop_resource_tracker(timeout: float = 5.0) -> None:
    """Stop ``multiprocessing``'s resource tracker and wait for it.

    The spawn start method launches the tracker with the first worker.  It
    is no ``multiprocessing`` child, and left alone it exits only after it
    sees this process's end of its pipe close, a moment after the
    benchmark itself has exited.  Call this once every child is gone: they
    hold that pipe too."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


# -- provenance -------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def filesystem_of(path: str) -> str:
    """The filesystem type of the mount holding *path*."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(workload: str, seed: int, trace: bool, durable_dir: Optional[str],
               fsync: Optional[str]) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "durable_fs": filesystem_of(durable_dir) if durable_dir else None,
        "fsync": fsync,
    }
