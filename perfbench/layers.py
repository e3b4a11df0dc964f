"""Per-layer figures read from what the program already exports: a
request's or run's metrics-registry snapshot (``QueryResponse.metrics``,
``Tracer.registry.snapshot()``).

The engine-layer metrics are split by program class, because a γ change
shows on greedy programs and a saturation change on fixpoint ones.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from harness import ms, per

CLASSES = ("greedy", "fixpoint")

def _sum_matching(counters: Mapping[str, Any], prefix: str, suffix: str) -> float:
    return sum(
        v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix)
    )


def snapshot_figures(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """The raw per-run figures of one registry snapshot."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    clique = timers.get("phase/clique", 0.0)
    gamma = timers.get("phase/gamma", 0.0)
    saturate = timers.get("phase/saturate", 0.0)
    plan = timers.get("phase/plan", 0.0)
    return {
        "clique_s": clique,
        "self_s": max(0.0, clique - gamma - saturate - plan),
        "plan_s": plan,
        "gamma_s": gamma,
        "saturate_s": saturate,
        "plans_compiled": counters.get("engine/plans_compiled", 0),
        "plan_cache_hits": counters.get("engine/plan_cache_hits", 0),
        "gamma_firings": counters.get("engine/gamma_firings", 0),
        "gamma_candidates": counters.get("engine/gamma_candidates_examined", 0),
        "rql_useful": _sum_matching(counters, "rql/", "/retrieved")
        - _sum_matching(counters, "rql/", "/rejected_at_retrieval"),
        "rql_inserted": _sum_matching(counters, "rql/", "/inserted"),
        "saturation_facts": counters.get("engine/saturation_facts", 0)
        + counters.get("engine/facts_derived", 0),
        "facts_pruned_extrema": counters.get("engine/facts_pruned_extrema", 0),
        "lookups": counters.get("relation/lookups", 0),
        "index_builds": counters.get("relation/index_builds", 0),
        "governor_checks": counters.get("governor/checks", 0),
        "invalidated": counters.get("incremental/facts_invalidated", 0),
        "rederived": counters.get("incremental/facts_rederived", 0),
        "units_recomputed": counters.get("incremental/units_recomputed", 0),
        "fast_path_resumes": counters.get("incremental/fast_path_resumes", 0),
    }


def total(rows: Iterable[Mapping[str, float]], key: str) -> float:
    return sum(row.get(key, 0.0) for row in rows)


def engine_metrics(rows_by_class: Mapping[str, List[Dict[str, float]]]) -> Dict[str, float]:
    """Per-operation means of the engine layers, one set per class.

    Each row is one operation's :func:`snapshot_figures`, optionally with
    ``parse_s``/``compile_s``/``run_s`` measured by the benchmark itself
    (``run_s`` falls back to ``phase/clique`` where the run happened in
    another process or thread).
    """
    out: Dict[str, float] = {}
    for klass in CLASSES:
        rows = rows_by_class.get(klass, [])
        n = len(rows)
        hits, compiled = total(rows, "plan_cache_hits"), total(rows, "plans_compiled")
        firings = total(rows, "gamma_firings")
        figures = {
            "datalog.parser.parse_ms": ms(per(total(rows, "parse_s"), n)),
            "core.compiler.compile_ms": ms(per(total(rows, "compile_s"), n)),
            "core.engine.run_ms": ms(
                per(sum(r.get("run_s", r["clique_s"]) for r in rows), n)
            ),
            "core.engine.self_ms": ms(per(total(rows, "self_s"), n)),
            "datalog.plans.plan_ms": ms(per(total(rows, "plan_s"), n)),
            "datalog.plans.plans_compiled": per(compiled, n),
            "datalog.plans.cache_hit_ratio": per(hits, hits + compiled),
            "core.rql.gamma_ms": ms(per(total(rows, "gamma_s"), n)),
            "core.rql.gamma_firings": per(firings, n),
            "core.rql.candidates_per_firing": per(total(rows, "gamma_candidates"), firings),
            "core.rql.useful_ratio": per(total(rows, "rql_useful"), total(rows, "rql_inserted")),
            "core.clique_eval.saturate_ms": ms(per(total(rows, "saturate_s"), n)),
            "core.clique_eval.saturation_facts": per(total(rows, "saturation_facts"), n),
            "core.clique_eval.facts_pruned_extrema": per(total(rows, "facts_pruned_extrema"), n),
            "storage.relation.lookups": per(total(rows, "lookups"), n),
            "storage.relation.index_builds": per(total(rows, "index_builds"), n),
        }
        for name, value in figures.items():
            out[f"{name}.{klass}"] = value
    return out


#: Serving, durability and incremental metrics: per-request means, one
#: value each.  Workloads that do not exercise a layer report 0 for it.
SERVICE_METRICS = (
    "robust.governor.checks",
    "serve.admission.queue_ms",
    "serve.service.exec_ms",
    "serve.service.non_engine_ms",
    "serve.shard.frontdoor_ms",
    "serve.shard.codec_us",
    "durable.store.fsyncs_per_op",
    "durable.store.bytes_per_op",
    "durable.store.journal_ms",
    "durable.wal.bytes_per_request",
    "durable.replication.shipped_per_request",
    "durable.replication.lag_records_max",
    "incremental.view.apply_ms",
    "incremental.view.facts_invalidated",
    "incremental.view.facts_rederived",
    "incremental.view.units_recomputed",
    "incremental.view.fast_path_resumes",
)

def service_metrics(requests: Iterable[tuple]) -> Dict[str, float]:
    """Per-request means of the in-service split.  Each entry is a
    request's ``(latency_s, queue_s, phase/clique seconds)``: the time it
    queued for admission, the time it executed, and the part of that not
    spent in the engine (compile, governor, checkpoints, ``mark_done``)."""
    rows = list(requests)
    n = len(rows)
    return {
        "serve.admission.queue_ms": ms(per(sum(q for _, q, _ in rows), n)),
        "serve.service.exec_ms": ms(per(sum(lat - q for lat, q, _ in rows), n)),
        "serve.service.non_engine_ms": ms(per(sum(lat - q - c for lat, q, c in rows), n)),
    }


def zero_service_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in SERVICE_METRICS}


def trace_metrics(untraced_p50_ms: float, traced_p50_ms: float, spans: Any) -> Dict[str, float]:
    """The traced run's own figures: the workload's ``p50_ms`` operation
    with tracing off and on, the difference (the tracing overhead), and
    the number of spans recorded."""
    return {
        "bench.client.traced_p50_ms": traced_p50_ms,
        "bench.client.untraced_p50_ms": untraced_p50_ms,
        "bench.trace.overhead_ms": traced_p50_ms - untraced_p50_ms,
        "bench.trace.spans": float(len(spans.records)),
    }
