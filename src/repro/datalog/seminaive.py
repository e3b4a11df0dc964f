"""Seminaive bottom-up evaluation with delta relations.

The paper's complexity results (Section 6) presuppose "seminaive
refinements": a recursive rule must only re-fire on the *new* facts of the
previous iteration, not re-derive everything.  This engine walks the
cliques (SCCs) in dependency order, stratum by stratum, and hands each one
to the shared seminaive kernel,
:func:`repro.core.clique_eval.evaluate_plain_clique`:

* a non-recursive clique is evaluated in a single pass;
* a recursive clique keeps, for every predicate ``p`` in it, a delta
  relation ``Δp``; each recursive rule is instantiated once per occurrence
  of a clique predicate in its body, with that occurrence reading ``Δp``;
* premappable ``least``/``most`` recursion runs the same loop with the
  extremum applied under the engine's ``extrema`` policy.

Every plan the kernel will run is compiled once, before evaluation,
through a :class:`~repro.datalog.plans.PlanCache`: one generic plan per
rule for the seeding round plus one *delta-specialized* plan per
clique-predicate occurrence.  The delta-specialized plan places the delta
literal first and orders the remaining goals against its bindings, so
each differential round starts from the new facts instead of potentially
scanning a full relation that the generic bound-first heuristic happened
to order earlier.

Negation and negated conjunctions may only refer to lower strata (checked
by :class:`~repro.datalog.dependency.DependencyGraph`), so they read the
stable database.
"""

from __future__ import annotations

import time
from typing import Any

from repro.datalog.dependency import DependencyGraph
from repro.datalog.naive import EngineStats
from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER, PlanCache
from repro.datalog.program import Program
from repro.errors import BudgetExceeded, Cancelled, EvaluationError
from repro.obs.tracer import Tracer
from repro.robust.governor import NULL_GOVERNOR
from repro.storage.database import Database

__all__ = ["SeminaiveEngine"]


class SeminaiveEngine:
    """Evaluate a meta-goal-free stratified program with delta relations.

    The public interface matches :class:`~repro.datalog.naive.NaiveEngine`
    (and the two are cross-checked in the test suite)::

        db = SeminaiveEngine(program).run(db)

    Args:
        program: the program to evaluate.
        check_safety: verify rule safety up front (default).
        cache_plans: compile each rule body — and each delta variant —
            once and reuse the plans (default).  ``False`` re-plans on
            every firing: the per-call-planning baseline the plan-cache
            benchmark measures against.
        order: join-order policy (``"greedy"`` default, ``"written"``
            legacy).  Delta plans keep the delta literal pinned first
            under both policies.
    """

    engine_name = "seminaive"

    def __init__(
        self,
        program: Program,
        check_safety: bool = True,
        cache_plans: bool = True,
        tracer: Tracer | None = None,
        governor: Any = None,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
    ):
        for rule in program.proper_rules():
            if rule.choice_goals or rule.next_goals:
                raise EvaluationError(
                    f"SeminaiveEngine cannot evaluate meta-goals; offending rule: {rule}"
                )
        if check_safety:
            program.check_safety()
        self.program = program
        self.graph = DependencyGraph(program)
        self.tracer = tracer if tracer is not None else Tracer()
        self.stats = EngineStats(registry=self.tracer.registry)
        self.plans = PlanCache(
            stats=self.stats,
            enabled=cache_plans,
            order=order,
            extrema=extrema,
            tracer=self.tracer,
        )
        self.governor = governor if governor is not None else NULL_GOVERNOR

    def run(self, db: Database | None = None) -> Database:
        """Compute the perfect model of the program over *db* (mutated).

        All plans — generic and delta-specialized — are compiled before
        evaluation starts, and their binding patterns are registered as
        indices on the database up front.
        """
        from repro.core.clique_eval import compile_clique, evaluate_plain_clique

        if db is None:
            db = Database()
        if self.tracer.enabled:
            db.bind_metrics(self.tracer.registry)
        for name, facts in self.program.ground_facts().items():
            db.assert_all(name, facts)
        order = self.graph.evaluation_order()
        cliques = [clique for group in order for clique in group]
        for clique in cliques:
            compile_clique(clique, self.plans, db)
        self.plans.register_indices(db)
        self.governor.start(
            db, registry=self.tracer.registry, tracer=self.tracer, engine=self
        )
        start = time.perf_counter()
        try:
            for clique in cliques:
                preds = sorted(key[0] for key in clique.predicates)
                kind = "recursive" if clique.is_recursive else "flat"
                with self.tracer.span(
                    "clique", phase="clique", kind=kind, predicates=preds
                ):
                    derived, pruned = evaluate_plain_clique(
                        clique,
                        db,
                        self.plans,
                        tracer=self.tracer,
                        governor=self.governor,
                        stats=self.stats,
                        program=self.program,
                    )
                if clique.rules:
                    self.stats.facts_derived += derived
                if pruned is not None:
                    self.stats.facts_pruned_extrema += pruned
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
