"""Naive bottom-up fixpoint evaluation for stratified programs.

This is the reference (slow) evaluator: at every iteration every rule is
re-evaluated in full until nothing new is derived.  It exists both as a
correctness oracle for the seminaive engine and as the baseline for the
seminaive ablation benchmark (experiment E7 of DESIGN.md).

Rule bodies are compiled once per engine through a
:class:`~repro.datalog.plans.PlanCache` — iteration re-*runs* plans, it
never re-plans them.
"""

from __future__ import annotations

import time
from typing import Any, List

from repro.datalog.atoms import LeastGoal, MostGoal
from repro.datalog.dependency import Clique, DependencyGraph
from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER, PlanCache
from repro.datalog.program import Program
from repro.errors import (
    BudgetExceeded,
    Cancelled,
    EvaluationError,
    StratificationError,
)
from repro.obs.metrics import RegistryBackedStats
from repro.obs.tracer import Tracer
from repro.robust.governor import NULL_GOVERNOR
from repro.storage.database import Database

#: Goal classes dropped from plans of extrema rules (the engine applies
#: the extremum itself, per its ``extrema`` policy).
_EXTREMA_DROP = (LeastGoal, MostGoal)

__all__ = ["NaiveEngine", "EngineStats"]


class EngineStats(RegistryBackedStats):
    """Counters exposed by the fixpoint engines (for tests and benches),
    backed by the run's :class:`~repro.obs.metrics.MetricsRegistry` under
    the ``engine/`` namespace.

    Attributes:
        iterations: fixpoint passes (naive) / rounds (seminaive).
        rule_firings: rule (or delta-variant) evaluations.
        facts_derived: facts that were actually new.
        plans_compiled: rule bodies compiled into execution plans.  On a
            meta-goal-free program this stays constant while
            ``rule_firings`` grows: at most one compilation per
            ``(rule, delta occurrence)`` per engine run.
        plan_cache_hits: plan requests served from the cache.
        plans_reordered: compiled plans whose greedy join order differs
            from the written-order baseline (0 under ``order="written"``).
        phase_seconds: wall time per phase — ``"plan"`` (body compilation)
            and ``"eval"`` (fixpoint evaluation), plus a ``"round"``
            entry accumulated per fixpoint pass.
    """

    _COUNTERS = (
        "iterations",
        "rule_firings",
        "facts_derived",
        "plans_compiled",
        "plan_cache_hits",
        "plans_reordered",
        "facts_pruned_extrema",
    )


class NaiveEngine:
    """Evaluate a meta-goal-free stratified program by naive iteration.

    Usage::

        engine = NaiveEngine(program)
        db = engine.run(db)           # db is mutated and returned
        engine.stats.iterations       # how many full passes were needed

    Args:
        program: the program to evaluate.
        check_safety: verify rule safety up front (default).
        order: join-order policy (``"greedy"`` default, ``"written"``
            legacy) — see :mod:`repro.datalog.plans`.
    """

    engine_name = "naive"

    def __init__(
        self,
        program: Program,
        check_safety: bool = True,
        tracer: Tracer | None = None,
        governor: Any = None,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
    ):
        for rule in program.proper_rules():
            if rule.choice_goals or rule.next_goals:
                raise EvaluationError(
                    f"NaiveEngine cannot evaluate meta-goals; offending rule: {rule}"
                )
        if check_safety:
            program.check_safety()
        self.program = program
        self.graph = DependencyGraph(program)
        self.tracer = tracer if tracer is not None else Tracer()
        self.stats = EngineStats(registry=self.tracer.registry)
        self.plans = PlanCache(
            stats=self.stats, order=order, extrema=extrema, tracer=self.tracer
        )
        self.governor = governor if governor is not None else NULL_GOVERNOR

    def run(self, db: Database | None = None) -> Database:
        """Compute the perfect model of the program over *db*.

        Facts embedded in the program text are loaded first.  Evaluation
        proceeds stratum by stratum; within a stratum all rules iterate to
        fixpoint together.  All rule plans are compiled — and their
        binding patterns registered as indices — before the first pass.

        Returns the (mutated) database.
        """
        if db is None:
            db = Database()
        if self.tracer.enabled:
            db.bind_metrics(self.tracer.registry)
        for name, facts in self.program.ground_facts().items():
            db.assert_all(name, facts)
        for rule in self.program.proper_rules():
            drop = _EXTREMA_DROP if rule.extrema_goals else ()
            self.plans.plan(rule, drop=drop, db=db)
        self.plans.register_indices(db)
        self.governor.start(
            db, registry=self.tracer.registry, tracer=self.tracer, engine=self
        )
        start = time.perf_counter()
        try:
            for group in self.graph.evaluation_order():
                if any(rule.extrema_goals for clique in group for rule in clique.rules):
                    # Extrema need clique-granular evaluation (the policy
                    # applies per recursive clique); cliques of a stratum
                    # come callees-first, so per-clique passes reach the
                    # same fixpoint the whole-stratum loop would.
                    for clique in group:
                        preds = sorted(key[0] for key in clique.predicates)
                        with self.tracer.span(
                            "clique", phase="clique", kind="plain", predicates=preds
                        ):
                            if any(rule.extrema_goals for rule in clique.rules):
                                self._saturate_extrema(clique, db)
                            else:
                                self._saturate(list(clique.rules), db)
                    continue
                rules = [rule for clique in group for rule in clique.rules]
                preds = sorted({rule.head.pred for rule in rules})
                with self.tracer.span(
                    "clique", phase="clique", kind="plain", predicates=preds
                ):
                    self._saturate(rules, db)
        except (BudgetExceeded, Cancelled) as exc:
            if exc.partial is None:
                exc.partial = self._partial_result(db)
            raise
        self.stats.add_phase_time("eval", time.perf_counter() - start)
        return db

    def _partial_result(self, db: Database) -> Any:
        """The resumable payload attached to a budget/cancellation error.
        Plain engines are monotone and rng-free, so the checkpoint carries
        facts only: resuming re-runs over the snapshot and converges to
        the identical fixpoint."""
        from repro.robust.checkpoint import capture
        from repro.robust.governor import PartialResult

        try:
            checkpoint = capture(self, db)
        except Exception:  # pragma: no cover - capture must never mask the stop
            checkpoint = None
        return PartialResult(
            database=db,
            engine=self.engine_name,
            clique_index=0,
            chosen=[],
            stage=0,
            metrics=self.tracer.registry.snapshot(),
            checkpoint=checkpoint,
        )

    def _saturate_extrema(self, clique: Clique, db: Database) -> None:
        """Evaluate a clique whose rules carry ``least``/``most`` goals.

        A non-recursive clique applies the extremum per firing (the
        classic post-hoc group-by filter, as every engine does through
        :func:`~repro.core.clique_eval.evaluate_rule_once`).  A recursive
        clique must be premappable
        (:func:`repro.core.rewriting.premappable_extrema`); the engine's
        ``extrema`` policy then decides whether dominated facts are pruned
        on insert (``"pushdown"``) or retracted after saturation
        (``"post"``).  The loop stays fully naive — every rule
        re-fires in full each round — so this path remains an independent
        oracle for the differential engines.
        """
        from repro.core.clique_eval import evaluate_rule_once
        from repro.core.extrema_lattice import BestTable, dominated_facts
        from repro.core.rewriting import premappable_extrema
        from repro.core.stage_analysis import clique_label

        if not clique.is_recursive:
            self.stats.iterations += 1
            self.stats.rule_firings += len(clique.rules)
            for rule in clique.rules:
                self.stats.facts_derived += len(
                    evaluate_rule_once(rule, db, cache=self.plans, tracer=self.tracer)
                )
            return

        specs = premappable_extrema(clique.rules, clique.predicates)
        if specs is None:
            offender = next(r for r in clique.rules if r.extrema_goals)
            raise StratificationError(
                f"extrema through recursion is not premappable: {offender}"
            )
        policy = self.plans.extrema
        push = policy == "pushdown"
        best = BestTable(specs) if push else None
        pruned = 0
        if best is not None:
            # Facts already present seed the best table; dominated ones
            # are retracted so table and database agree up front.
            for key in clique.predicates:
                relation = db.relation(key[0], key[1])
                for fact in list(relation):
                    accepted, displaced = best.observe(key, fact)
                    if not accepted:
                        relation.discard(fact)
                        pruned += 1
                    for old in displaced:
                        if relation.discard(old):
                            pruned += 1
        changed = True
        while changed:
            self.governor.tick_round()
            changed = False
            self.stats.iterations += 1
            self.stats.rule_firings += len(clique.rules)
            derived = 0
            for rule in clique.rules:
                plan = self.plans.plan(rule, drop=_EXTREMA_DROP, db=db)
                relation = db.relation(rule.head.pred, rule.head.arity)
                for fact in plan.consequences(db):
                    if best is not None:
                        accepted, displaced = best.observe(rule.head.key, fact)
                        if not accepted:
                            pruned += 1
                            continue
                        for old in displaced:
                            if relation.discard(old):
                                pruned += 1
                    if relation.add(fact):
                        derived += 1
                        changed = True
            self.stats.facts_derived += derived
        if not push:
            for key, spec in specs.items():
                relation = db.relation(key[0], key[1])
                for fact in dominated_facts(relation, spec):
                    relation.discard(fact)
                    pruned += 1
        self.stats.facts_pruned_extrema += pruned
        if self.tracer.enabled:
            self.tracer.event(
                "extrema-pushdown",
                clique=clique_label(clique),
                policy=policy,
                predicates=sorted(f"{n}/{a}" for n, a in specs),
                pruned=pruned,
            )

    def _saturate(self, rules: List, db: Database) -> None:
        tracer = self.tracer
        changed = True
        while changed:
            self.governor.tick_round()
            changed = False
            self.stats.iterations += 1
            self.stats.rule_firings += len(rules)
            with tracer.span("saturation-round", phase="saturate") as round_span:
                derived = 0
                for rule in rules:
                    new_facts = self.plans.consequences(rule, db)
                    relation = db.relation(rule.head.pred, rule.head.arity)
                    for fact in new_facts:
                        if relation.add(fact):
                            derived += 1
                            changed = True
                round_span.note(rule_firings=len(rules), new_facts=derived)
            self.stats.facts_derived += derived
