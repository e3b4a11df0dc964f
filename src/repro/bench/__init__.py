"""Benchmark harness utilities: timing sweeps, log–log slope fitting and
paper-style reporting.  The perf-regression harness lives in
:mod:`repro.bench.regression` (``python -m repro.bench.regression``) and
is not imported here, so importing this package does not load it."""

from repro.bench.runner import SweepPoint, SweepResult, fitted_exponent, sweep
from repro.bench.reporting import format_table

__all__ = [
    "SweepPoint",
    "SweepResult",
    "fitted_exponent",
    "format_table",
    "sweep",
]
