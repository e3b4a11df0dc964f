"""The Alternating Stage-Choice Fixpoint (Section 4, Theorem 3).

::

    begin  S' := ∅;
           repeat  S := S';  S' := Q(γ(S));  until S' = S
    end.

For stage cliques the computation alternates between firing one instance
of a ``next`` rule (γ — the greedy step, with ``least`` applied to the
current candidate set and ``choice`` checked against the memoized
``chosen`` state) and saturating the flat rules (Q).  This *basic* engine
recomputes the candidate set of every ``next`` rule at every stage by
re-evaluating its body — correct for any stage-stratified program (and
for the paper's extended class with non-strict flat negation, e.g.
Kruskal), but quadratic.  The (R, Q, L)-backed engine in
:mod:`repro.core.greedy_engine` removes the recomputation; their ablation
is experiment E6.

Flat rules whose head stage variable is only *constrained* by the body
(e.g. Kruskal's ``last_comp(X, K, I) <- comp(X, K, I1), I1 <= I,
most(I1, (X, I))``) are *stage-parameterized views*: they are evaluated
once per stage with the head stage variable bound to the stage counter,
realising the paper's stratum-by-stratum saturation of locally stratified
programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.clique_eval import (
    body_solutions,
    evaluate_rule_once,
    extrema_filter,
    saturate,
)
from repro.core.engine_base import BaseEngine, ChoiceMemo
from repro.core.stage_analysis import CliqueReport, clique_label
from repro.datalog.builtins import order_key
from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER
from repro.datalog.rules import Rule
from repro.datalog.terms import Var
from repro.datalog.unify import Subst, ground_term
from repro.errors import EvaluationError, StageAnalysisError
from repro.obs.tracer import Tracer
from repro.storage.database import Database
from repro.storage.relation import projection

__all__ = ["BasicStageEngine", "StageCliqueState"]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]
Projection = Callable[[Fact], Tuple[Any, ...]]


def _is_stage_parameterized(rule: Rule, stage_positions: Dict[PredicateKey, int]) -> Optional[str]:
    """If *rule* is a stage-parameterized view, return the name of its head
    stage variable; otherwise ``None``.

    A flat rule is parameterized when its head stage variable is not bound
    by the positive body goals or ``=`` assignment chains — it is only
    constrained (``I1 <= I``), so the engine must supply the stage value.
    """
    pos = stage_positions.get(rule.head.key)
    if pos is None:
        return None
    head_arg = rule.head.args[pos]
    if not isinstance(head_arg, Var):
        return None
    bound: Set[str] = set()
    for atom in rule.positive:
        bound.update(v.name for v in atom.variables() if not v.name.startswith("_"))
    changed = True
    while changed:
        changed = False
        for comp in rule.comparisons:
            if comp.op != "=":
                continue
            left_vars = {v.name for v in comp.left.variables()}
            right_vars = {v.name for v in comp.right.variables()}
            if right_vars <= bound and not left_vars <= bound:
                bound |= left_vars
                changed = True
            elif left_vars <= bound and not right_vars <= bound:
                bound |= right_vars
                changed = True
    return None if head_arg.name in bound else head_arg.name


@dataclass
class StageCliqueState:
    """Execution state of one stage clique."""

    report: CliqueReport
    next_rules: List[Rule]
    flat_rules: List[Rule]
    param_rules: List[Tuple[Rule, str]]
    exit_choice_rules: List[Rule]
    memos: Dict[int, ChoiceMemo]
    w_memos: Dict[int, Set[Tuple[Any, ...]]]
    stage: int = 0

    def __post_init__(self) -> None:
        # Which memos absorb the facts of each head predicate, decided
        # once: the FD memos of the choice rules with that head, and the
        # W-memos of the next rules with that head.
        self._fd_sinks: Dict[PredicateKey, List[Tuple[Rule, ChoiceMemo]]] = {}
        for rule in self.next_rules + self.exit_choice_rules:
            memo = self.memos[id(rule)]
            if memo.goals:
                self._fd_sinks.setdefault(rule.head.key, []).append((rule, memo))
        #: Per ``next`` rule, the ``W`` of its head facts: the head values
        #: minus the stage argument, whose implicit FD ``W -> I``
        #: guarantees each tuple is selected at most once.
        self.w_keys: Dict[int, Projection] = {}
        self._w_sinks: Dict[PredicateKey, List[Tuple[Rule, Set[Fact], Projection]]] = {}
        for rule in self.next_rules:
            pos = self.report.stage_positions[rule.head.key]
            project = self.w_keys[id(rule)] = projection(
                [i for i in range(rule.head.arity) if i != pos]
            )
            self._w_sinks.setdefault(rule.head.key, []).append(
                (rule, self.w_memos[id(rule)], project)
            )

    def clone(self) -> "StageCliqueState":
        """An independent copy of the mutable choice state (rules are
        shared; memos are cloned).  Used by the model enumerator."""
        return StageCliqueState(
            self.report,
            self.next_rules,
            self.flat_rules,
            self.param_rules,
            self.exit_choice_rules,
            {key: memo.clone() for key, memo in self.memos.items()},
            {key: set(w) for key, w in self.w_memos.items()},
            self.stage,
        )

    def absorb(
        self, produced: Dict[PredicateKey, List[Fact]], source: Optional[Rule] = None
    ) -> None:
        """Feed facts of a choice rule's head predicate into its memo, so
        the functional dependencies hold over the whole predicate (exit
        facts block re-entry, sibling rules see each other's choices).
        A next rule's implicit ``W -> I`` dependency likewise covers every
        fact of its head predicate, whichever rule produced it.

        *source* is the rule whose γ firing produced the facts, if any:
        its own memo and W-memo recorded the firing already, so only the
        sibling rules that share its head absorb them."""
        for key, facts in produced.items():
            for rule, memo in self._fd_sinks.get(key, ()):
                if rule is not source:
                    for fact in facts:
                        memo.absorb_head_fact(fact)
            for rule, w_memo, project in self._w_sinks.get(key, ()):
                if rule is not source:
                    w_memo.update(map(project, facts))


class BasicStageEngine(BaseEngine):
    """Evaluate stage-stratified programs by the alternating fixpoint,
    recomputing the candidate set at every stage.

    Accepts the paper's extended class as well (flat negation that is not
    strictly stratified, like Kruskal): set ``allow_extended=True``
    (default) to run cliques whose stage-stratification check failed but
    that still form a stage clique; set it to ``False`` to insist on the
    syntactic class of Theorem 1.
    """

    engine_name = "basic"

    def __init__(
        self,
        program,
        rng: random.Random | None = None,
        check_safety: bool = True,
        allow_extended: bool = True,
        record_trace: bool = False,
        max_stages: int | None = None,
        tracer: Tracer | None = None,
        governor: Any = None,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
    ):
        super().__init__(
            program,
            rng=rng,
            check_safety=check_safety,
            record_trace=record_trace,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
        self.allow_extended = allow_extended
        #: Safety valve: abort if any stage clique exceeds this many
        #: stages.  Stage-stratified Datalog programs always terminate
        #: (Theorem 2), but programs with function symbols — or programs
        #: outside the class run with ``allow_extended`` — may not.
        self.max_stages = max_stages

    # -- stage cliques -----------------------------------------------------------

    def _run_stage_clique(self, report: CliqueReport, db: Database) -> None:
        state = self._prepare(report, db)
        self._alternating_fixpoint(state, db)

    def _prepare(self, report: CliqueReport, db: Database) -> StageCliqueState:
        if not report.is_stage_clique:
            raise StageAnalysisError(
                f"{clique_label(report.clique)} is not a stage clique: "
                + "; ".join(report.violations)
            )
        if not report.is_stage_stratified and not self.allow_extended:
            raise StageAnalysisError(
                f"{clique_label(report.clique)} is not stage-stratified: "
                + "; ".join(report.violations)
            )
        next_rules = list(report.next_rules)
        exit_choice = list(report.exit_choice_rules)
        param_rules: List[Tuple[Rule, str]] = []
        flat_rules: List[Rule] = []
        for rule in report.flat_rules:
            stage_var = _is_stage_parameterized(rule, report.stage_positions)
            if stage_var is not None:
                param_rules.append((rule, stage_var))
            elif rule.extrema_goals:
                # Extrema with a body-bound stage: evaluated per stage too,
                # keyed by the head stage variable.
                pos = report.stage_positions[rule.head.key]
                arg = rule.head.args[pos]
                if isinstance(arg, Var):
                    param_rules.append((rule, arg.name))
                else:
                    flat_rules.append(rule)
            else:
                flat_rules.append(rule)
        memos = {id(rule): ChoiceMemo(rule) for rule in next_rules + exit_choice}
        w_memos: Dict[int, Set[Tuple[Any, ...]]] = {id(rule): set() for rule in next_rules}
        state = StageCliqueState(
            report, next_rules, flat_rules, param_rules, exit_choice, memos, w_memos
        )
        state.stage = self._initial_stage(report, db)
        state.absorb(
            {
                rule.head.key: list(db.facts(*rule.head.key))
                for rule in next_rules + exit_choice
            }
        )
        if self._restore_memos or self._restore_w or self._restore_stage is not None:
            # Resuming the interrupted clique: the checkpointed state is a
            # superset of what absorbing the database rebuilt, so it wins.
            index_of = self._rule_indices()
            for rule in next_rules + exit_choice:
                restored = self._restore_memos.get(index_of[id(rule)])
                if restored is not None:
                    memos[id(rule)].load_state(restored)
            for rule in next_rules:
                restored_w = self._restore_w.get(index_of[id(rule)])
                if restored_w is not None:
                    w_memos[id(rule)].update(tuple(w) for w in restored_w)
            if self._restore_stage is not None:
                state.stage = max(state.stage, self._restore_stage)
        self._active_stage = state
        return state

    @staticmethod
    def _initial_stage(report: CliqueReport, db: Database) -> int:
        stage = 0
        for key, pos in report.stage_positions.items():
            for fact in db.facts(*key):
                value = fact[pos]
                if isinstance(value, int):
                    stage = max(stage, value)
        return stage

    # -- the alternation ------------------------------------------------------------

    def _alternating_fixpoint(self, state: StageCliqueState, db: Database) -> None:
        state.absorb(self._quiesce(state, db, seeds=None))
        while True:
            # The tick precedes the rng draws of the γ step, so a stop here
            # checkpoints the exact rng state of the uninterrupted run at
            # this boundary — resumed runs replay the same choice sequence.
            self.governor.tick_gamma()
            fired = self._fire_exit_choice(state, db) or self._fire_next(state, db)
            if fired is None:
                break
            source, fact = fired
            key = source.head.key
            state.absorb({key: [fact]}, source=source)
            state.absorb(self._quiesce(state, db, seeds={key: [fact]}))

    def _quiesce(
        self,
        state: StageCliqueState,
        db: Database,
        seeds: Dict[PredicateKey, List[Fact]] | None,
        extra_predicates: frozenset = frozenset(),
    ) -> Dict[PredicateKey, List[Fact]]:
        """Saturate the flat rules (Q∞) and the stage-parameterized views
        until neither produces anything new.  ``seeds=None`` evaluates the
        flat rules in full (the initial round); otherwise the given facts
        drive the differential round.

        Returns every fact derived, keyed by predicate (the greedy engine
        feeds the candidate predicate's share into its (R, Q, L) store).
        """
        clique_preds = state.report.clique.predicates | extra_predicates
        all_produced: Dict[PredicateKey, List[Fact]] = {}
        while True:
            self.governor.tick_round()
            produced = saturate(
                state.flat_rules,
                clique_preds,
                db,
                seed_deltas=seeds,
                cache=self.plans,
                tracer=self.tracer,
                governor=self.governor,
            )
            self.stats.saturation_facts += sum(len(v) for v in produced.values())
            for key, facts in produced.items():
                all_produced.setdefault(key, []).extend(facts)
            param_new = self._evaluate_param_rules(state, db)
            for key, facts in param_new.items():
                all_produced.setdefault(key, []).extend(facts)
            if not param_new:
                break
            seeds = param_new
        return all_produced

    def _evaluate_param_rules(
        self, state: StageCliqueState, db: Database
    ) -> Dict[PredicateKey, List[Fact]]:
        produced: Dict[PredicateKey, List[Fact]] = {}
        for rule, stage_var in state.param_rules:
            new = evaluate_rule_once(
                rule,
                db,
                initial={stage_var: state.stage},
                cache=self.plans,
                tracer=self.tracer,
            )
            self.stats.saturation_facts += len(new)
            if new:
                produced.setdefault(rule.head.key, []).extend(new)
        return produced

    # -- γ steps -----------------------------------------------------------------------

    def _fire_exit_choice(
        self, state: StageCliqueState, db: Database
    ) -> Optional[Tuple[Rule, Fact]]:
        """Fire one stage-less choice rule of the clique (e.g. the TSP
        chain's exit rule selecting the globally cheapest arc); returns
        ``(fired rule, head fact)`` or ``None``."""
        if not state.exit_choice_rules:
            return None
        if self._fault_hook is not None:
            self._fault_hook("engine.gamma")
        with self.tracer.span("gamma-step", phase="gamma", kind="exit-choice") as step:
            for rule in state.exit_choice_rules:
                memo = state.memos[id(rule)]
                eligible = self._eligible_choice_candidates(rule, memo, db)
                if not eligible:
                    continue
                subst = self.rng.choice(eligible)
                memo.commit(subst)
                fact = tuple(ground_term(arg, subst) for arg in rule.head.args)
                db.relation(rule.head.pred, rule.head.arity).add(fact)
                self.stats.gamma_firings += 1
                step.note(
                    predicate=f"{rule.head.pred}/{rule.head.arity}",
                    eligible=len(eligible),
                )
                self._note("choose", rule.head.key, fact)
                # Keep the stage counter consistent with constant head stages.
                pos = state.report.stage_positions.get(rule.head.key)
                if pos is not None and isinstance(fact[pos], int):
                    state.stage = max(state.stage, fact[pos])
                return rule, fact
        return None

    def _fire_next(
        self, state: StageCliqueState, db: Database
    ) -> Optional[Tuple[Rule, Fact]]:
        """Fire one instance of a ``next`` rule at stage ``state.stage+1``:
        evaluate the body with the stage variable pre-bound, filter by the
        memoized choice state, apply ``least``/``most`` to the survivors,
        and draw one of the minimal candidates.  Returns ``(fired rule,
        head fact)`` or ``None``."""
        if self._fault_hook is not None:
            self._fault_hook("engine.gamma")
        if self.max_stages is not None and state.stage >= self.max_stages:
            raise EvaluationError(
                f"stage clique exceeded max_stages={self.max_stages}; "
                "the program may not be terminating (function symbols in a "
                "stage clique, or an extended-class program gone wrong)"
            )
        rules = list(state.next_rules)
        self.rng.shuffle(rules)
        with self.tracer.span("gamma-step", phase="gamma", kind="next") as step:
            for rule in rules:
                eligible = self._next_candidates(rule, state, db)
                if not eligible:
                    continue
                subst = self.rng.choice(eligible)
                memo = state.memos[id(rule)]
                memo.commit(subst)
                fact = tuple(ground_term(arg, subst) for arg in rule.head.args)
                state.w_memos[id(rule)].add(self._w_tuple(rule, fact, state))
                db.relation(rule.head.pred, rule.head.arity).add(fact)
                self.stats.gamma_firings += 1
                state.stage += 1
                self.stats.stages += 1
                step.note(
                    predicate=f"{rule.head.pred}/{rule.head.arity}",
                    stage=state.stage,
                    eligible=len(eligible),
                )
                self._note("choose", rule.head.key, fact, state.stage)
                return rule, fact
        return None

    def _next_candidates(
        self, rule: Rule, state: StageCliqueState, db: Database
    ) -> List[Subst]:
        """The eligible γ candidates of a ``next`` rule at the next stage:
        body solutions with the stage variable pre-bound, filtered by the
        W-memo and the choice FDs, with the extremum applied, sorted by a
        deterministic key."""
        stage_var = rule.next_goals[0].var.name
        initial = {stage_var: state.stage + 1}
        solutions = body_solutions(rule, db, initial=initial, cache=self.plans)
        self.stats.gamma_candidates_examined += len(solutions)
        memo = state.memos[id(rule)]
        w_memo = state.w_memos[id(rule)]
        eligible = []
        for s in solutions:
            fact = tuple(ground_term(arg, s) for arg in rule.head.args)
            if self._w_tuple(rule, fact, state) in w_memo:
                continue
            if not memo.admits(s, check_new=False):
                continue
            eligible.append(s)
        if rule.extrema_goals:
            eligible = extrema_filter(eligible, rule.extrema_goals)
        eligible.sort(
            key=lambda s: order_key(
                tuple(ground_term(arg, s) for arg in rule.head.args)
            )
        )
        return eligible

    def _w_tuple(self, rule: Rule, fact: Fact, state: StageCliqueState) -> Tuple[Any, ...]:
        """The ``W`` of a ``next`` rule's head fact (see
        :attr:`StageCliqueState.w_keys`)."""
        return state.w_keys[id(rule)](fact)
