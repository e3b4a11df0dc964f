"""Benchmark entry point: run one workload and print every metric.

    python3 perfbench/run.py --workload solve_suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json`` with tracing off; ``--trace 1`` is the separate traced
run that reports the per-layer metrics (and writes its spans as JSONL
under ``.perfbench/``).  ``--workload all`` runs every workload in turn.
The last line of standard output is the JSON result of the (last)
workload; the exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT,
    WORK,
    BenchError,
    Spans,
    import_repro,
    reap_children,
    stop_resource_tracker,
)

WORKLOADS = ("solve_suite", "serve_sharded", "live_views")


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import importlib

    module = importlib.import_module(name)
    spans = Spans()
    started = time.perf_counter()
    outcome = module.run(seed, seconds, trace, spans)
    survivors = reap_children()
    if survivors:
        outcome.fail(f"child processes outlived the workload: {survivors}")
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise BenchError(f"{name}: metrics missing {missing}, undeclared {extra}")

    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"wall {time.perf_counter() - started:.1f} s")
    print("# provenance " + json.dumps(outcome.provenance, sort_keys=True))
    for metric in sorted(units):
        print(f"{metric:48s} {outcome.metrics[metric]:14.4f} {units[metric]}")
    for metric, value, unit in outcome.notes:
        print(f"  {metric:46s} {value:14.4f} {unit}")
    error_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_ratio':46s} {error_ratio:14.4f} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    if trace:
        self_times = spans.self_times()
        for span_name in sorted(self_times):
            print(f"  self.{span_name + '_s':41s} {self_times[span_name]:14.4f} s")
        path = WORK / f"trace-{name}-seed{seed}.jsonl"
        spans.dump(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    for message in outcome.errors:
        print(f"# error: {message}")
    return {
        "correct": outcome.correct and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": outcome.metrics[metric], "unit": units[metric]}
            for metric in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_repro()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        reap_children()
        stop_resource_tracker()
    print(json.dumps(results[-1]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
