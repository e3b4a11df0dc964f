"""Tests for the bench gate: ``check_against_baseline`` over the committed
``BENCH_plans.json`` and over copies moved onto, and just past, each bound."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.regression import SWEEPS, check_against_baseline

ROOT = Path(__file__).resolve().parents[2]
BASELINE = json.loads((ROOT / "BENCH_plans.json").read_text())

#: (sweep, gated statistic, bound, step past the bound) for every absolute
#: gate, restated here so that moving a bound shows up as a test change.
ABSOLUTE_GATES = [
    ("governor_overhead", "min_overhead", 1.05, +0.001),
    ("service_overhead", "min_overhead", 1.10, +0.001),
    ("durable_overhead", "min_overhead", 1.05, +0.001),
    ("join_order", "mean_speedup", 1.0, -0.001),
    ("extrema_pushdown", "mean_speedup", 1.0, -0.001),
    ("incremental_maintenance", "mean_speedup", 1.0, -0.001),
    ("sharded_scaling", "speedup", 1.5, -0.001),
    ("replication_overhead", "overhead", 1.10, +0.001),
]

#: The committed report records the cross-process sweeps as skipped (the
#: box that wrote it has too few cores); these are measured blocks of the
#: same shape for the bound cases.
MEASURED = {
    "sharded_scaling": {
        "requests": 64,
        "shards": 4,
        "one_shard_s": 3.0,
        "sharded_s": 2.0,
        "speedup": 1.5,
    },
    "replication_overhead": {
        "requests": 32,
        "shards": 2,
        "plain_s": 1.0,
        "replicated_s": 1.1,
        "overhead": 1.1,
    },
}


def _with(report, sweep, **values):
    """A copy of *report* whose *sweep* block is measured and has *values*."""
    changed = copy.deepcopy(report)
    block = changed["sweeps"][sweep]
    if "skipped" in block:
        del block["skipped"]
        block.update(MEASURED[sweep])
    block.update(values)
    return changed


def _with_tc_speedups(report, speedups):
    changed = copy.deepcopy(report)
    rows = changed["sweeps"]["seminaive_tc"]["rows"]
    assert len(rows) == len(speedups)
    for row, speedup in zip(rows, speedups):
        row["speedup"] = speedup
    return changed


def test_committed_baseline_passes_against_itself():
    assert check_against_baseline(BASELINE, BASELINE) == []


@pytest.mark.parametrize(
    "sweep, stat, bound, step", ABSOLUTE_GATES, ids=[g[0] for g in ABSOLUTE_GATES]
)
def test_absolute_gate_holds_at_its_bound_and_fails_just_past_it(
    sweep, stat, bound, step
):
    at_bound = _with(BASELINE, sweep, **{stat: bound})
    assert check_against_baseline(at_bound, BASELINE) == []
    past = _with(BASELINE, sweep, **{stat: round(bound + step, 3)})
    # Every other sweep still passes, so the one failure is this sweep's.
    assert len(check_against_baseline(past, BASELINE)) == 1


def test_tc_floor_is_three_quarters_of_the_baseline_mean_speedup():
    baseline = _with_tc_speedups(BASELINE, [2.0, 4.0, 6.0, 8.0])  # mean 5.0
    at_floor = _with_tc_speedups(BASELINE, [3.75] * 4)
    assert check_against_baseline(at_floor, baseline) == []
    # The report's side is a mean too, not a minimum.
    assert check_against_baseline(
        _with_tc_speedups(BASELINE, [1.0, 2.0, 5.0, 7.0]), baseline
    ) == []
    past = _with_tc_speedups(BASELINE, [3.749] * 4)
    assert len(check_against_baseline(past, baseline)) == 1
    # The floor follows the baseline's mean, not its minimum or maximum.
    raised = _with_tc_speedups(BASELINE, [2.0, 4.0, 6.0, 8.004])  # mean 5.001
    assert len(check_against_baseline(at_floor, raised)) == 1


@pytest.mark.parametrize("sweep", [g[0] for g in ABSOLUTE_GATES])
def test_a_skipped_block_is_not_gated(sweep):
    report = copy.deepcopy(BASELINE)
    description = report["sweeps"][sweep]["description"]
    report["sweeps"][sweep] = {"description": description, "skipped": "no cores"}
    assert check_against_baseline(report, BASELINE) == []


def test_registry_matches_the_committed_report():
    assert [entry.name for entry in SWEEPS] == list(BASELINE["sweeps"])
    gated = {
        entry.name: (entry.stat, entry.gate, entry.bound)
        for entry in SWEEPS
        if entry.stat is not None
    }
    assert gated == {
        "seminaive_tc": ("mean_speedup", "baseline", 0.75),
        **{
            sweep: (stat, "ceiling" if step > 0 else "floor", bound)
            for sweep, stat, bound, step in ABSOLUTE_GATES
        },
    }
    for entry in SWEEPS:
        block = BASELINE["sweeps"][entry.name]
        if entry.stat is not None and "skipped" not in block:
            assert isinstance(entry.statistic(block), float), entry.name


@pytest.mark.parametrize(
    "entry", [entry for entry in SWEEPS if entry.stat], ids=lambda entry: entry.name
)
def test_a_measured_block_without_its_statistic_raises(entry):
    report = _with(BASELINE, entry.name)
    # The TC block keeps no summary key: its mean speedup is read from its rows.
    del report["sweeps"][entry.name]["rows" if entry.read else entry.stat]
    with pytest.raises(KeyError):
        check_against_baseline(report, BASELINE)


def test_the_cli_runs_once_under_python_dash_m():
    # Importing the package must not import the harness, or runpy warns
    # that ``repro.bench.regression`` is already in sys.modules and the
    # module runs twice.
    warnings_fail = [sys.executable, "-W", "error::RuntimeWarning"]
    child = subprocess.run(
        warnings_fail + ["-m", "repro.bench.regression", "--help"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
