"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import math

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import (
    EmptySweepError,
    SweepPoint,
    SweepResult,
    fitted_exponent,
    paired_sweep,
    sweep,
)


class TestFittedExponent:
    def test_linear_data_has_slope_one(self):
        sizes = [100, 200, 400, 800]
        times = [s * 1e-6 for s in sizes]
        assert fitted_exponent(sizes, times) == pytest.approx(1.0, abs=0.01)

    def test_quadratic_data_has_slope_two(self):
        sizes = [10, 20, 40, 80]
        times = [s * s * 1e-6 for s in sizes]
        assert fitted_exponent(sizes, times) == pytest.approx(2.0, abs=0.01)

    def test_nlogn_data_fits_between_one_and_two(self):
        sizes = [2 ** k for k in range(6, 14)]
        times = [s * math.log(s) * 1e-7 for s in sizes]
        slope = fitted_exponent(sizes, times)
        assert 1.0 < slope < 1.5

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            fitted_exponent([10], [0.1])

    def test_identical_sizes_raise(self):
        with pytest.raises(ValueError):
            fitted_exponent([5, 5], [0.1, 0.2])


class TestSweep:
    def test_sweep_runs_operation_per_size(self):
        calls = []
        result = sweep(
            "demo",
            sizes=[1, 2, 3],
            make_input=lambda n: n,
            operation=lambda n: calls.append(n),
            repeats=2,
        )
        assert result.sizes == [1, 2, 3]
        assert len(calls) == 6  # 3 sizes x 2 repeats
        assert all(p.seconds >= 0 for p in result.points)

    def test_scaled_by_normaliser(self):
        result = SweepResult("demo", [SweepPoint(10, 1.0), SweepPoint(20, 2.0)])
        scaled = result.scaled_by(lambda n: n)
        assert scaled == [0.1, 0.1]

    def test_exponent_accessor(self):
        result = SweepResult("demo", [SweepPoint(10, 0.1), SweepPoint(100, 1.0)])
        assert result.exponent() == pytest.approx(1.0, abs=0.01)

    def test_empty_size_list_fails_loudly(self):
        # A zero-sample sweep silently passes every shape assertion and
        # writes a vacuous baseline — it must raise, never return.
        with pytest.raises(EmptySweepError, match="zero samples"):
            sweep("demo", sizes=[], make_input=lambda n: n, operation=lambda n: n)

    def test_zero_repeats_fails_loudly(self):
        with pytest.raises(EmptySweepError, match="zero samples"):
            sweep(
                "demo",
                sizes=[1, 2],
                make_input=lambda n: n,
                operation=lambda n: n,
                repeats=0,
            )

    def test_empty_sweep_error_is_a_value_error(self):
        # Callers that caught ValueError from the old silent path (via
        # fitted_exponent) keep working.
        assert issubclass(EmptySweepError, ValueError)


class TestPairedSweep:
    def test_sides_alternate_on_every_repeat(self):
        calls = []
        before, after = paired_sweep(
            ("before", "after"),
            sizes=[1, 2],
            make_input=lambda n: n,
            operations=(
                lambda n: calls.append(("before", n)) or -n,
                lambda n: calls.append(("after", n)) or n,
            ),
            repeats=3,
        )
        # One untimed warm-up call per side per size, then the timed
        # repeats interleaved, not one block per side: a machine-speed
        # change mid-sweep hits both sides alike.
        assert calls == [("before", 1), ("after", 1)] * (1 + 3) + [
            ("before", 2),
            ("after", 2),
        ] * (1 + 3)
        assert (before.label, after.label) == ("before", "after")
        assert before.sizes == after.sizes == [1, 2]
        assert [p.payload for p in before.points] == [-1, -2]
        assert [p.payload for p in after.points] == [1, 2]

    def test_empty_sweeps_fail_loudly(self):
        with pytest.raises(EmptySweepError, match="zero samples"):
            paired_sweep(("a", "b"), [], lambda n: n, (abs, abs))
        with pytest.raises(EmptySweepError, match="zero samples"):
            paired_sweep(("a", "b"), [1], lambda n: n, (abs, abs), repeats=0)


class TestRegressionCLI:
    def test_empty_sweep_exits_2_with_one_line_diagnostic(self, monkeypatch, capsys):
        from repro.bench import regression

        def boom():
            raise EmptySweepError("sweep 'demo' produced zero samples: empty size list")

        monkeypatch.setattr(regression, "run_regression", boom)
        assert regression.main([]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "zero samples" in err


class TestFormatTable:
    def test_aligned_columns(self):
        table = format_table(["n", "time"], [[10, 0.5], [1000, 12.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("n")
        assert "----" in lines[1]

    def test_small_floats_in_scientific_notation(self):
        table = format_table(["x"], [[0.000123]])
        assert "e-" in table
