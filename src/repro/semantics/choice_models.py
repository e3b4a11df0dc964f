"""Exhaustive enumeration of choice models.

Lemma 1 / Theorem 2 state that the (stage-)choice fixpoint procedures are
*non-deterministically complete*: every stable model is produced by some
instantiation of the one-consequence operator γ.  This module mechanises
that statement for small instances by branching the fixpoint over every
eligible γ candidate (depth-first, with the database and the memoized
choice state cloned at each branch) and collecting the distinct final
models.

Intended for testing and for exploring the model space of a program —
the search is exponential in the number of γ steps, so keep instances
small.

Example::

    models = enumerate_choice_models(
        "a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).",
        facts={"takes": [("andy", "engl"), ("mark", "engl"),
                         ("ann", "math"), ("mark", "math")]},
    )
    len(models)   # 3 — the paper's M1, M2, M3
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple, Union

from repro.core.compiler import FactsInput, _as_database
from repro.core.stage_analysis import CliqueReport
from repro.core.stage_engine import BasicStageEngine, StageCliqueState
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.unify import ground_term
from repro.errors import EvaluationError
from repro.storage.database import Database

__all__ = ["enumerate_choice_models"]

ModelKey = FrozenSet


def enumerate_choice_models(
    source: Union[str, Program],
    facts: FactsInput = None,
    limit: int | None = None,
    max_steps: int = 100_000,
) -> List[Database]:
    """All choice models (stable models) of *source* over *facts*.

    Args:
        source: program text or a parsed :class:`Program`.
        facts: extensional database (mapping or :class:`Database`).
        limit: stop after this many distinct models (``None`` = all).
        max_steps: safety valve on the total number of γ branches explored.

    Raises:
        EvaluationError: if *max_steps* is exhausted before the search
            completes (the result would be incomplete).
    """
    program = parse_program(source) if isinstance(source, str) else source
    program.check_safety()
    enumerator = _Enumerator(program, limit, max_steps)
    enumerator.search(_as_database(facts))
    return enumerator.models


class _Enumerator:
    """DFS over γ choices, clique by clique."""

    def __init__(self, program: Program, limit: int | None, max_steps: int):
        # The engine instance supplies analysis, candidate enumeration and
        # the quiesce machinery; its rng is never exercised because the
        # DFS enumerates candidates instead of drawing them.
        self.engine = BasicStageEngine(program, check_safety=False)
        self.limit = limit
        self.max_steps = max_steps
        self.steps = 0
        self.models: List[Database] = []
        self._seen: set = set()

    # -- driver ------------------------------------------------------------------

    def search(self, db: Database) -> None:
        for name, facts in self.engine.program.ground_facts().items():
            db.assert_all(name, facts)
        self._run_cliques(0, db)

    def _done(self) -> bool:
        return self.limit is not None and len(self.models) >= self.limit

    def _record(self, db: Database) -> None:
        key = frozenset(
            (pred, frozenset(facts)) for pred, facts in db.as_dict().items()
        )
        if key not in self._seen:
            self._seen.add(key)
            self.models.append(db)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise EvaluationError(
                f"enumerate_choice_models exceeded max_steps={self.max_steps}; "
                "the model space is too large to enumerate exhaustively"
            )

    def _run_cliques(self, index: int, db: Database) -> None:
        if self._done():
            return
        reports = self.engine.analysis.reports
        while index < len(reports) and reports[index].kind == "plain":
            self.engine._run_plain_clique(reports[index], db)
            index += 1
        if index == len(reports):
            self._record(db)
            return
        report = reports[index]
        if report.kind == "choice":
            self._branch_choice_clique(report, index, db)
        else:
            state = self.engine._prepare(report, db)
            state.absorb(self.engine._quiesce(state, db, seeds=None))
            self._branch_stage_clique(index, state, db)

    # -- choice cliques --------------------------------------------------------------

    def _branch_choice_clique(self, report: CliqueReport, index: int, db: Database) -> None:
        """DFS over the γ candidates of a stage-less choice clique.

        The clique is executed through a synthetic
        :class:`StageCliqueState` with every choice rule treated as an
        exit rule, which gives us cloning and absorb for free.
        """
        from repro.core.engine_base import ChoiceMemo

        clique = report.clique
        choice_rules = [r for r in clique.rules if r.choice_goals]
        flat_rules = [r for r in clique.rules if not r.choice_goals]
        state = StageCliqueState(
            report,
            next_rules=[],
            flat_rules=[r for r in flat_rules if not r.extrema_goals],
            param_rules=[],
            exit_choice_rules=choice_rules,
            memos={id(r): ChoiceMemo(r) for r in choice_rules},
            w_memos={},
        )
        from repro.core.clique_eval import evaluate_rule_once, saturate

        saturate(state.flat_rules, clique.predicates, db)
        for rule in flat_rules:
            if rule.extrema_goals:
                evaluate_rule_once(rule, db)
        for rule in choice_rules:
            memo = state.memos[id(rule)]
            for fact in db.facts(*rule.head.key):
                memo.absorb_head_fact(fact)
        self._branch_stage_clique(index, state, db)

    # -- stage cliques ------------------------------------------------------------------

    def _branch_stage_clique(
        self, index: int, state: StageCliqueState, db: Database
    ) -> None:
        if self._done():
            return
        self._tick()
        branches: List[Tuple[object, object]] = []
        for rule in state.exit_choice_rules:
            memo = state.memos[id(rule)]
            for subst in self.engine._eligible_choice_candidates(rule, memo, db):
                branches.append((rule, subst))
        for rule in state.next_rules:
            for subst in self.engine._next_candidates(rule, state, db):
                branches.append((rule, subst))
        if not branches:
            self._run_cliques(index + 1, db)
            return
        for rule, subst in branches:
            if self._done():
                return
            child_db = db.copy()
            child_state = state.clone()
            self._fire(rule, subst, child_state, child_db)
            self._branch_stage_clique(index, child_state, child_db)

    def _fire(self, rule, subst, state: StageCliqueState, db: Database) -> None:
        memo = state.memos[id(rule)]
        memo.commit(subst)
        fact = tuple(ground_term(arg, subst) for arg in rule.head.args)
        db.relation(rule.head.pred, rule.head.arity).add(fact)
        if rule in state.next_rules:
            state.w_memos[id(rule)].add(
                self.engine._w_tuple(rule, fact, state)
            )
            state.stage += 1
        else:
            pos = state.report.stage_positions.get(rule.head.key)
            if pos is not None and isinstance(fact[pos], int):
                state.stage = max(state.stage, fact[pos])
        state.absorb({rule.head.key: [fact]}, source=rule)
        produced = self.engine._quiesce(state, db, seeds={rule.head.key: [fact]})
        state.absorb(produced)
