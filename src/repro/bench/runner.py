"""Timing sweeps and asymptotic-shape estimation.

The paper's evaluation is complexity analysis, so the harness measures
*shape*: run an operation over a sweep of input sizes, fit the log–log
slope, and compare against the claimed exponent.  ``O(n log n)`` fits a
slope slightly above 1, ``O(e log e)`` likewise, ``O(e·n)`` near 2 —
the assertions in ``benchmarks/`` use generous brackets because constant
factors and small sizes bend the fit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Sequence, Tuple

__all__ = [
    "EmptySweepError",
    "SweepPoint",
    "SweepResult",
    "sweep",
    "paired_sweep",
    "fitted_exponent",
]


class EmptySweepError(ValueError):
    """A sweep produced zero samples (empty size list or every size
    skipped).  Raised instead of returning an empty result: an empty
    sweep silently passes every shape assertion and writes a vacuous
    baseline, so downstream harnesses must fail loudly (the regression
    CLI exits 2 on it)."""


@dataclass(frozen=True)
class SweepPoint:
    """One measurement: input size and best-of-``repeats`` wall time."""

    size: int
    seconds: float
    payload: Any = None


@dataclass
class SweepResult:
    """A full sweep with shape statistics."""

    label: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def sizes(self) -> List[int]:
        return [p.size for p in self.points]

    @property
    def times(self) -> List[float]:
        return [p.seconds for p in self.points]

    def exponent(self) -> float:
        """Least-squares slope of log(time) against log(size)."""
        return fitted_exponent(self.sizes, self.times)

    def scaled_by(self, normalizer: Callable[[int], float]) -> List[float]:
        """Times divided by ``normalizer(size)`` — flat means the
        normaliser matches the true complexity."""
        return [p.seconds / normalizer(p.size) for p in self.points]


def sweep(
    label: str,
    sizes: Sequence[int],
    make_input: Callable[[int], Any],
    operation: Callable[[Any], Any],
    repeats: int = 3,
) -> SweepResult:
    """Measure ``operation(make_input(size))`` for each size.

    Input construction is excluded from the timing; the best of *repeats*
    runs is recorded (least noise for shape fitting).

    Raises:
        EmptySweepError: when *sizes* is empty or *repeats* < 1 — a
            zero-sample sweep must never masquerade as a measurement.
    """
    if not sizes:
        raise EmptySweepError(f"sweep {label!r} produced zero samples: empty size list")
    if repeats < 1:
        raise EmptySweepError(
            f"sweep {label!r} produced zero samples: repeats={repeats}"
        )
    result = SweepResult(label)
    for size in sizes:
        payload = make_input(size)
        best = math.inf
        output = None
        for _ in range(repeats):
            start = time.perf_counter()
            output = operation(payload)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        result.points.append(SweepPoint(size, best, output))
    return result


def paired_sweep(
    labels: Tuple[str, str],
    sizes: Sequence[int],
    make_input: Callable[[int], Any],
    operations: Tuple[Callable[[Any], Any], Callable[[Any], Any]],
    repeats: int = 3,
) -> Tuple[SweepResult, SweepResult]:
    """:func:`sweep` for two operations on the same inputs, **interleaved**:
    every repeat times the first operation, then the second, so a change
    in machine speed during the sweep hits both sides alike instead of
    moving their ratio.  Each side runs once untimed per size before the
    timed repeats (a first call can pay one-off costs such as a lazy
    import or a cold cache) and records its best of *repeats*.

    Raises:
        EmptySweepError: as :func:`sweep`.
    """
    label = " / ".join(labels)
    if not sizes:
        raise EmptySweepError(f"sweep {label!r} produced zero samples: empty size list")
    if repeats < 1:
        raise EmptySweepError(
            f"sweep {label!r} produced zero samples: repeats={repeats}"
        )
    results = (SweepResult(labels[0]), SweepResult(labels[1]))
    for size in sizes:
        payload = make_input(size)
        for operation in operations:
            operation(payload)
        best = [math.inf, math.inf]
        outputs: List[Any] = [None, None]
        for _ in range(repeats):
            for side, operation in enumerate(operations):
                start = time.perf_counter()
                outputs[side] = operation(payload)
                best[side] = min(best[side], time.perf_counter() - start)
        for side, result in enumerate(results):
            result.points.append(SweepPoint(size, best[side], outputs[side]))
    return results


def fitted_exponent(sizes: Sequence[int], times: Sequence[float]) -> float:
    """Least-squares slope of ``log t`` vs ``log n``.

    Raises:
        ValueError: with fewer than two points or non-positive values.
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) pairs")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        raise ValueError("all sizes identical")
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denominator
