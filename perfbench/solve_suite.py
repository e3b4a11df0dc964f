"""solve_suite — a closed loop with one client and no service.

Each job parses, compiles and runs one program over seeded inputs, the
way a library user calls ``parse_program`` → ``compile_program`` →
``CompiledProgram.run``.  Jobs follow a fixed cycle that gives every
program the same number of runs.  Seven programs are greedy (the
rql/choice engines: γ draws over the (R, Q, L) queue) and four are
fixpoints (seminaive: saturation with extrema pushdown), so a γ change
and a saturation change each move their own metric.  Eleven programs is
an odd count, so the median job falls inside one program's times.

The engine layers (parser, compiler, plans, γ/RQL, saturation, storage)
do all the work here; serving, the WAL and the pipe do none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from harness import (
    Calibration,
    Outcome,
    Spans,
    gmean_of_medians,
    median,
    ms,
    peak_rss_mb,
    per,
    percentile,
    provenance,
    timed_setups,
)
from layers import engine_metrics, snapshot_figures, trace_metrics, zero_service_metrics

#: Input instances per program; the cycle walks through them in turn.
#: Odd, so a program's median falls inside one instance's times.
INSTANCES = 3

#: Input sizes, chosen so every job costs tens of milliseconds.
SIZES = {
    "sorting_items": 1500,
    "prim_nodes": 200,
    "prim_chords": 600,
    "matching_side": 100,
    "matching_arcs_per_left": 6,
    "dijkstra_nodes": 200,
    "dijkstra_chords": 400,
    "huffman_letters": 16,
    "kruskal_nodes": 14,
    "kruskal_chords": 14,
    "assignment_students": 40,
    "assignment_courses": 40,
    "assignment_per_student": 4,
    "closure_nodes": 85,
    "closure_chords_per_node": 1,
    "shortest_path_nodes": 300,
    "shortest_path_chords": 600,
    "bottleneck_nodes": 200,
    "bottleneck_chords": 400,
    "join_rows": 2500,
}

CLOSURE = """
path(X, Y) <- edge(X, Y).
path(X, Y) <- path(X, Z), edge(Z, Y).
"""

#: A wide multi-join rule set, shaped like the plan-cache sweep's JOIN.
JOIN = """
jq1(A, E) <- r1(A, B), r2(B, C), r3(C, D), sel(D, E).
jq2(A, F) <- r1(A, B), r2(B, C), r3(C, D), r4(D, E), tiny(E, F), F <= A.
jq3(A, C) <- r2(B, C), r1(A, B), r3(C, 7).
"""


@dataclass
class Job:
    name: str
    klass: str
    text: str
    engine: str
    facts: Dict[str, List[tuple]]
    seed: int
    #: Reads the checked figure out of the model ...
    extract: Callable[[Any], Any]
    #: ... which must equal this, computed by a procedural baseline.
    expected: Any


# -- oracles' extractors ------------------------------------------------------


def _tree_cost(pred: str) -> Callable[[Any], Any]:
    return lambda db: sum(f[2] for f in db.facts(pred, 4) if f[0] != "nil")


def _sorted_costs(db: Any) -> List[Any]:
    rows = sorted((f for f in db.facts("sp", 3) if f[0] != "nil"), key=lambda f: f[2])
    return [f[1] for f in rows]


def _matching_cost(db: Any) -> Any:
    return sum(f[2] for f in db.facts("matching", 4) if f[0] != "nil")


def _huffman_wpl(db: Any) -> Any:
    return sum(f[1] for f in db.facts("h", 3) if f[2] > 0)


def _distances(pred: str, arity: int) -> Callable[[Any], Dict[Any, Any]]:
    return lambda db: {f[0]: f[1] for f in db.facts(pred, arity)}


def _kruskal_cost(db: Any) -> Any:
    return sum(f[2] for f in db.facts("kruskal", 4) if f[3] > 0)


def _closure_size(db: Any) -> int:
    return len(db.facts("path", 2))


def _join_model(db: Any) -> Dict[str, frozenset]:
    return {p: frozenset(db.facts(p, 2)) for p in ("jq1", "jq2", "jq3")}


def _assignment_valid(takes: List[tuple]) -> Callable[[Any], bool]:
    """A choice model of Example 1: a subset of ``takes`` that is a
    matching (one course per student, one student per course) and
    maximal (no enrolment has both ends free)."""

    def check(db: Any) -> bool:
        chosen = set(db.facts("a_st", 2))
        students = [s for s, _ in chosen]
        courses = [c for _, c in chosen]
        if not chosen <= set(takes):
            return False
        if len(set(students)) != len(students) or len(set(courses)) != len(courses):
            return False
        free_s, free_c = set(students), set(courses)
        return all(s in free_s or c in free_c for s, c in takes)

    return check


# -- procedural oracles the baselines package does not have ---------------------


def _closure_oracle(edges: List[tuple]) -> int:
    succ: Dict[Any, List[Any]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    size = 0
    for start in succ:
        seen, stack = set(), list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        size += len(seen)
    return size


def _bottleneck_oracle(edges: List[tuple], source: Any) -> Dict[Any, Any]:
    """Minimax path costs by a Dijkstra variant (label = max edge)."""
    import heapq

    adj: Dict[Any, List[tuple]] = {}
    for u, v, c in edges:
        adj.setdefault(u, []).append((v, c))
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        b, u = heapq.heappop(heap)
        if b > best.get(u, b):
            continue
        for v, c in adj.get(u, ()):
            nb = max(b, c)
            if nb < best.get(v, float("inf")):
                best[v] = nb
                heapq.heappush(heap, (nb, v))
    return best


def _join_oracle(r: Dict[str, List[tuple]]) -> Dict[str, frozenset]:
    def index(rows: List[tuple]) -> Dict[Any, List[Any]]:
        out: Dict[Any, List[Any]] = {}
        for a, b in rows:
            out.setdefault(a, []).append(b)
        return out

    r2, r3, r4 = index(r["r2"]), index(r["r3"]), index(r["r4"])
    sel, tiny = index(r["sel"]), index(r["tiny"])
    jq1, jq2, jq3 = set(), set(), set()
    for a, b in r["r1"]:
        for c in r2.get(b, ()):
            for d in r3.get(c, ()):
                for e in sel.get(d, ()):
                    jq1.add((a, e))
                for e in r4.get(d, ()):
                    for f in tiny.get(e, ()):
                        if f <= a:
                            jq2.add((a, f))
                if d == 7:
                    jq3.add((a, c))
    return {"jq1": frozenset(jq1), "jq2": frozenset(jq2), "jq3": frozenset(jq3)}


# -- inputs ----------------------------------------------------------------------


def make_jobs(seed: int) -> List[List[Job]]:
    """``INSTANCES`` inputs for each of the eleven programs, as a list of
    per-program instance lists, all derived from *seed*."""
    from repro.baselines import (
        dijkstra_distances,
        greedy_matching,
        heapsort,
        huffman_tree,
        kruskal_mst,
        prim_mst,
    )
    from repro.programs import texts
    from repro.programs._run import symmetric_edges
    from repro.workloads import (
        random_bipartite_arcs,
        random_connected_graph,
        random_costed_relation,
        random_frequency_table,
        random_takes,
    )

    s = SIZES
    programs: List[List[Job]] = []
    for i in range(INSTANCES):
        k = seed * 1000 + i
        rng = random.Random(k)
        jobs: List[Job] = []

        items = random_costed_relation(s["sorting_items"], seed=k)
        jobs.append(Job("SORTING", "greedy", texts.SORTING, "rql", {"p": items}, k,
                        _sorted_costs, heapsort(c for _, c in items)))

        _, edges = random_connected_graph(s["prim_nodes"], s["prim_chords"], seed=k)
        jobs.append(Job("PRIM", "greedy", texts.PRIM, "rql",
                        {"g": symmetric_edges(edges), "source": [("v0",)]}, k,
                        _tree_cost("prm"), prim_mst(edges, "v0")[1]))

        arcs = random_bipartite_arcs(s["matching_side"], s["matching_side"],
                                     s["matching_arcs_per_left"], seed=k)
        jobs.append(Job("MATCHING", "greedy", texts.MATCHING, "rql", {"g": arcs}, k,
                        _matching_cost, greedy_matching(arcs)[1]))

        _, edges = random_connected_graph(s["dijkstra_nodes"], s["dijkstra_chords"], seed=k)
        jobs.append(Job("DIJKSTRA", "greedy", texts.DIJKSTRA, "rql",
                        {"g": symmetric_edges(edges), "source": [("v0",)]}, k,
                        _distances("dist", 3), dijkstra_distances(edges, "v0")))

        letters = random_frequency_table(s["huffman_letters"], seed=k)
        jobs.append(Job("HUFFMAN", "greedy", texts.HUFFMAN, "rql", {"letter": letters}, k,
                        _huffman_wpl, huffman_tree(dict(letters))[1]))

        nodes, edges = random_connected_graph(s["kruskal_nodes"], s["kruskal_chords"], seed=k)
        jobs.append(Job("KRUSKAL", "greedy", texts.KRUSKAL, "rql",
                        {"g": symmetric_edges(edges), "node": [(n,) for n in nodes]}, k,
                        _kruskal_cost, kruskal_mst(edges)[1]))

        takes = sorted({(st, crs) for st, crs, _ in random_takes(
            s["assignment_students"], s["assignment_courses"],
            s["assignment_per_student"], seed=k)})
        jobs.append(Job("EXAMPLE1_ASSIGNMENT", "greedy", texts.EXAMPLE1_ASSIGNMENT,
                        "choice", {"takes": takes}, k, _assignment_valid(takes), True))

        # A ring plus random chords: strongly connected, so the closure
        # always has n * n facts and its cost varies little with the seed.
        n = s["closure_nodes"]
        arcs2 = sorted({(f"n{u}", f"n{(u + 1) % n}") for u in range(n)}
                       | {(f"n{u}", f"n{rng.randrange(n)}")
                          for u in range(n) for _ in range(s["closure_chords_per_node"])})
        jobs.append(Job("CLOSURE", "fixpoint", CLOSURE, "seminaive", {"edge": arcs2}, k,
                        _closure_size, _closure_oracle(arcs2)))

        _, edges = random_connected_graph(s["shortest_path_nodes"],
                                          s["shortest_path_chords"], seed=k)
        jobs.append(Job("SHORTEST_PATH", "fixpoint", texts.SHORTEST_PATH, "seminaive",
                        {"g": symmetric_edges(edges), "source": [("v0",)]}, k,
                        _distances("dist", 2), dijkstra_distances(edges, "v0")))

        _, edges = random_connected_graph(s["bottleneck_nodes"], s["bottleneck_chords"], seed=k)
        sym = symmetric_edges(edges)
        jobs.append(Job("BOTTLENECK_PATH", "fixpoint", texts.BOTTLENECK_PATH, "seminaive",
                        {"g": sym, "source": [("v0",)]}, k,
                        _distances("btl", 2), _bottleneck_oracle(sym, "v0")))

        m = s["join_rows"]
        rel = {
            "r1": [(a, rng.randrange(m)) for a in range(m)],
            "r2": sorted({(b, rng.randrange(m)) for b in range(m) for _ in range(4)}),
            "r3": [(c, rng.randrange(m)) for c in range(m)],
            "r4": [(d, rng.randrange(m)) for d in range(m)],
            "sel": [(i, i) for i in range(3)],
            "tiny": [(0, 0), (1, 1)],
        }
        jobs.append(Job("JOIN", "fixpoint", JOIN, "seminaive", rel, k,
                        _join_model, _join_oracle(rel)))

        if i == 0:
            programs = [[job] for job in jobs]
        else:
            for slot, job in zip(programs, jobs):
                slot.append(job)
    return programs


# -- one job ------------------------------------------------------------------------


def run_job(job: Job, spans: Spans, rid: int, tracer: Any = None):
    """Parse, compile and run *job*; returns ``(seconds, db, figures)``."""
    from repro.core.compiler import compile_program
    from repro.datalog.parser import parse_program

    t0 = time.perf_counter()
    with spans.span("job", rid):
        with spans.span("parse", rid):
            program = parse_program(job.text)
        t1 = time.perf_counter()
        with spans.span("compile", rid):
            compiled = compile_program(program, engine=job.engine)
        t2 = time.perf_counter()
        with spans.span("run", rid):
            db = compiled.run(job.facts, seed=job.seed, tracer=tracer)
    t3 = time.perf_counter()
    figures = None
    if tracer is not None:
        figures = snapshot_figures(tracer.registry.snapshot())
        figures.update(parse_s=t1 - t0, compile_s=t2 - t1, run_s=t3 - t2)
    return t3 - t0, db, figures


def check(job: Job, db: Any, outcome: Outcome) -> None:
    got = job.extract(db)
    if got != job.expected:
        outcome.fail(f"{job.name} (seed {job.seed}): model disagrees with the baseline")


def cycle(programs: List[List[Job]]):
    """The fixed job order: every program once per round, instances in
    turn."""
    round_ = 0
    while True:
        for instances in programs:
            yield instances[round_ % len(instances)]
        round_ += 1


@dataclass
class Sample:
    #: ``<program>#<input seed>``: one input instance of one program.
    instance: str
    klass: str
    #: When the job ended (``time.perf_counter``), for calibration.
    end: float
    raw: float
    #: The job time at reference machine speed.
    seconds: float = 0.0


def measure(programs: List[List[Job]], seconds: float, outcome: Outcome,
            spans: Spans, cal: Calibration, traced: bool):
    """Run jobs for *seconds*; oracle checks and calibration samples run
    between jobs, outside their timings.  Returns the calibrated samples
    and, for traced runs, each job's layer figures by class."""
    from repro.obs.tracer import Tracer

    samples: List[Sample] = []
    rows: Dict[str, List[Dict[str, float]]] = {"greedy": [], "fixpoint": []}
    jobs = cycle(programs)
    deadline = time.perf_counter() + seconds
    rid = 0
    # Whole rounds only, so every program gets the same number of jobs.
    while True:
        for _ in range(len(programs)):
            job = next(jobs)
            tracer = Tracer(enabled=True) if traced else None
            elapsed, db, figures = run_job(job, spans, rid, tracer)
            samples.append(Sample(f"{job.name}#{job.seed}", job.klass, time.perf_counter(),
                                  elapsed))
            rid += 1
            outcome.attempted += 1
            with spans.span("oracle", rid):
                check(job, db, outcome)
            cal.maybe_sample()
            if figures is not None:
                rows[job.klass].append(figures)
        if time.perf_counter() >= deadline:
            break
    for sample in samples:
        sample.seconds = sample.raw * cal.at(sample.end)
    return samples, rows


def class_ms(samples: List[Sample], klass: str) -> float:
    """Geometric mean of the class's per-instance medians: work varies by
    tens of percent between seeded inputs of one program (extrema
    pruning follows the cost draw), so the instances are averaged, not
    pooled into one median that would follow the middle one."""
    groups: Dict[str, List[float]] = {}
    for s in samples:
        if s.klass == klass:
            groups.setdefault(s.instance, []).append(s.seconds)
    return ms(gmean_of_medians(groups))


def class_per_s(samples: List[Sample], klass: str) -> float:
    mine = [s.seconds for s in samples if s.klass == klass]
    return per(len(mine), sum(mine))


def run(seed: int, seconds: float, trace: bool, spans: Spans) -> Outcome:
    outcome = Outcome(provenance=provenance("solve_suite", seed, trace, None, None))

    def build() -> List[List[Job]]:
        programs = make_jobs(seed)
        for rid, instances in enumerate(programs):
            for job in instances:
                _, db, _ = run_job(job, Spans(), rid)
                check(job, db, outcome)
        return programs

    if not trace:
        programs = timed_setups(build, lambda _p: None, outcome)
        cal = Calibration()
        samples, _ = measure(programs, seconds, outcome, spans, cal, traced=False)
        times = [s.seconds for s in samples]
        outcome.metrics.update({
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": per(len(times), sum(times)),
            "p50_ms": ms(median(times)),
            "p95_ms": ms(percentile(times, 95)),
            "greedy_ms": class_ms(samples, "greedy"),
            "fixpoint_ms": class_ms(samples, "fixpoint"),
        })
        outcome.notes += [
            ("jobs", len(times), "count"),
            ("machine_speed_factor", cal.factor, "ratio"),
            ("raw_p50_ms", ms(median([s.raw for s in samples])), "ms"),
            ("solve_p50_ms", outcome.metrics["p50_ms"], "ms"),
            ("greedy_jobs_per_s", class_per_s(samples, "greedy"), "1/s"),
            ("fixpoint_jobs_per_s", class_per_s(samples, "fixpoint"), "1/s"),
        ]
        return outcome

    programs = build()
    base_cal, traced_cal = Calibration(), Calibration()
    untraced, _ = measure(programs, seconds / 2, outcome, Spans(), base_cal, traced=False)
    spans.enabled = True
    traced, rows = measure(programs, seconds / 2, outcome, spans, traced_cal, traced=True)
    spans.enabled = False
    metrics = engine_metrics(rows)
    metrics.update(zero_service_metrics())
    metrics.update(trace_metrics(ms(median([s.seconds for s in untraced])),
                                 ms(median([s.seconds for s in traced])), spans))
    outcome.metrics = metrics
    return outcome
