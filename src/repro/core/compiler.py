"""Front door: compile a program (text or AST) and run it.

``compile_program`` parses, safety-checks and stage-analyses a program and
selects an engine; ``CompiledProgram.run`` executes it over a database.
This is the API the examples and the :mod:`repro.programs` library use::

    compiled = compile_program('''
        sp(nil, 0, 0).
        sp(X, C, I) <- next(I), p(X, C), least(C, I).
    ''')
    db = compiled.run(facts={"p": [("a", 3), ("b", 1)]}, seed=0)
    sorted(db.facts("sp", 3))

Engine names:

* ``"rql"`` (default) — :class:`~repro.core.greedy_engine.GreedyStageEngine`,
  the Section 6 implementation; cliques that do not fit the canonical
  shape fall back to basic evaluation automatically;
* ``"basic"`` — :class:`~repro.core.stage_engine.BasicStageEngine`,
  candidate recomputation per stage (the E6 ablation baseline);
* ``"choice"`` — :class:`~repro.core.choice_fixpoint.ChoiceFixpointEngine`,
  for programs without ``next``;
* ``"naive"`` / ``"seminaive"`` — the plain Datalog engines, for programs
  without any meta-construct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.core.choice_fixpoint import ChoiceFixpointEngine
from repro.core.greedy_engine import GreedyStageEngine
from repro.core.stage_analysis import StageAnalysis, analyze_stages
from repro.core.stage_engine import BasicStageEngine
from repro.datalog.naive import NaiveEngine
from repro.datalog.parser import parse_program
from repro.datalog.plans import (
    DEFAULT_EXTREMA,
    DEFAULT_ORDER,
    EXTREMA_POLICIES,
    ORDER_POLICIES,
)
from repro.datalog.program import Program
from repro.datalog.seminaive import SeminaiveEngine
from repro.errors import EvaluationError
from repro.obs.tracer import Tracer
from repro.storage.database import Database

__all__ = ["CompiledProgram", "compile_program", "solve_program", "query", "ENGINES"]

Fact = Tuple[Any, ...]
FactsInput = Union[Database, Mapping[str, Iterable[Fact]], None]

ENGINES = ("rql", "basic", "choice", "naive", "seminaive")


@dataclass
class CompiledProgram:
    """A parsed, analysed program bound to an engine choice."""

    program: Program
    analysis: StageAnalysis
    engine: str = "rql"
    #: Join-order policy compiled plans use (``"greedy"`` / ``"written"``).
    order: str = DEFAULT_ORDER
    #: Extrema policy for premappable recursion (``"pushdown"`` / ``"post"``).
    extrema: str = DEFAULT_EXTREMA
    #: The engine instance used by the most recent :meth:`run` (exposes
    #: stats, RQL structures, fallbacks...).
    last_engine: Any = field(default=None, repr=False)

    @property
    def is_stage_stratified(self) -> bool:
        """Whether the whole program passed the Section 4 check."""
        return self.analysis.is_stage_stratified_program

    def run(
        self,
        facts: FactsInput = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        engine: str | None = None,
        tracer: Tracer | None = None,
        governor: Any = None,
        order: str | None = None,
        extrema: str | None = None,
    ) -> Database:
        """Evaluate the program and return the resulting database.

        Args:
            facts: extensional input — a :class:`Database` (mutated in
                place) or a mapping ``{predicate: [tuples]}``.
            seed: convenience for ``rng=random.Random(seed)``.
            rng: source of the non-deterministic γ draws.
            engine: override the engine chosen at compile time.
            order: override the join-order policy chosen at compile time
                (``"greedy"`` default, ``"written"`` legacy).
            extrema: override the extrema policy chosen at compile time
                (``"pushdown"`` default, ``"post"`` legacy).
            tracer: optional :class:`~repro.obs.tracer.Tracer` the run
                emits spans/events and metrics into (pass one with
                ``enabled=True`` to record a structured trace).
            governor: optional :class:`~repro.robust.governor.RunGovernor`
                enforcing per-run budgets and cooperative cancellation;
                on exhaustion the run raises
                :class:`~repro.errors.BudgetExceeded` /
                :class:`~repro.errors.Cancelled` carrying a resumable
                :class:`~repro.robust.governor.PartialResult`.
        """
        db = _as_database(facts)
        if rng is None and seed is not None:
            rng = random.Random(seed)
        name = engine or self.engine
        engine_instance = _make_engine(
            name,
            self.program,
            rng,
            tracer=tracer,
            governor=governor,
            order=order or self.order,
            extrema=extrema or self.extrema,
        )
        self.last_engine = engine_instance
        return engine_instance.run(db)


def query(db: Database, atom_text: str) -> List[Dict[str, Any]]:
    """Match a query atom against a database.

    Returns one binding dict per matching fact, e.g.::

        query(db, "prm(X, Y, C, I)")  ->  [{"X": "a", "Y": "c", ...}, ...]

    Constants in the atom filter; wildcards (``_``) match anything.
    """
    from repro.datalog.parser import parse_query
    from repro.datalog.unify import match_args

    atom = parse_query(atom_text)
    results: List[Dict[str, Any]] = []
    for fact in db.facts(atom.pred, atom.arity):
        subst = match_args(atom.args, fact, {})
        if subst is not None:
            results.append(subst)
    return results


def _as_database(facts: FactsInput) -> Database:
    if facts is None:
        return Database()
    if isinstance(facts, Database):
        return facts
    db = Database()
    for name, tuples in facts.items():
        db.assert_all(name, map(tuple, tuples))
    return db


def _make_engine(
    name: str,
    program: Program,
    rng: random.Random | None,
    tracer: Tracer | None = None,
    governor: Any = None,
    order: str = DEFAULT_ORDER,
    extrema: str = DEFAULT_EXTREMA,
):
    if name == "rql":
        return GreedyStageEngine(
            program,
            rng=rng,
            check_safety=False,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
    if name == "basic":
        return BasicStageEngine(
            program,
            rng=rng,
            check_safety=False,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
    if name == "choice":
        return ChoiceFixpointEngine(
            program,
            rng=rng,
            check_safety=False,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
    if name == "naive":
        return NaiveEngine(
            program,
            check_safety=False,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
    if name == "seminaive":
        return SeminaiveEngine(
            program,
            check_safety=False,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
    raise EvaluationError(f"unknown engine {name!r}; expected one of {ENGINES}")


def compile_program(
    source: Union[str, Program],
    engine: str = "rql",
    order: str = DEFAULT_ORDER,
    extrema: str = DEFAULT_EXTREMA,
) -> CompiledProgram:
    """Parse (if needed), safety-check and stage-analyse *source*.

    Raises:
        ParseError: on bad syntax.
        SafetyError: on unsafe rules.
        EvaluationError: on an unknown engine name or join-order policy.
    """
    if engine not in ENGINES:
        raise EvaluationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if order not in ORDER_POLICIES:
        raise EvaluationError(
            f"unknown join-order policy {order!r}; expected one of {ORDER_POLICIES}"
        )
    if extrema not in EXTREMA_POLICIES:
        raise EvaluationError(
            f"unknown extrema policy {extrema!r}; expected one of {EXTREMA_POLICIES}"
        )
    program = parse_program(source) if isinstance(source, str) else source
    program.check_safety()
    analysis = analyze_stages(program)
    return CompiledProgram(program, analysis, engine, order, extrema)


def solve_program(
    source: Union[str, Program],
    facts: FactsInput = None,
    seed: int | None = None,
    rng: random.Random | None = None,
    engine: str = "rql",
    governor: Any = None,
    order: str = DEFAULT_ORDER,
    extrema: str = DEFAULT_EXTREMA,
) -> Database:
    """One-shot convenience: compile and run in a single call."""
    return compile_program(source, engine=engine, order=order, extrema=extrema).run(
        facts, seed=seed, rng=rng, governor=governor
    )
