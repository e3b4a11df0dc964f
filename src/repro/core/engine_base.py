"""Shared orchestration for the whole-program engines.

An engine walks the recursive cliques of the program in dependency
(callees-first) order and dispatches each to a kind-specific runner:

* ``plain`` cliques — ordinary (semi)naive evaluation; extrema allowed in
  non-recursive rules only;
* ``choice`` cliques — the γ / Q∞ alternation of the Choice Fixpoint;
* ``stage`` cliques — subclass-specific (the Choice Fixpoint engine
  rejects them; the stage engines run the alternating fixpoint).

All engines take an optional ``rng`` (:class:`random.Random`) driving the
non-deterministic one-consequence operator γ; omitted, a fresh unseeded
generator is used, so different runs may produce different choice models —
which is the intended semantics.  Candidate lists are sorted by a
deterministic key before the draw, so a seeded rng makes a run fully
reproducible.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.clique_eval import (
    body_solutions,
    evaluate_plain_clique,
    evaluate_rule_once,
    extrema_filter,
    saturate,
)
from repro.core.stage_analysis import (
    CliqueReport,
    StageAnalysis,
    analyze_stages,
    clique_label,
    rule_label,
)
from repro.datalog.atoms import Atom, ChoiceGoal
from repro.datalog.builtins import order_key
from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER, PlanCache
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Var
from repro.datalog.unify import Grounder, Subst, compile_ground, compile_match, ground_term
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

__all__ = ["BaseEngine", "ChoiceMemo", "EngineRunStats", "TraceEvent"]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]


class EngineRunStats(RegistryBackedStats):
    """Counters shared by the core engines, backed by the run's
    :class:`~repro.obs.metrics.MetricsRegistry` (each attribute reads and
    writes the ``engine/<name>`` counter, so the trace exporters and the
    stats facade always agree).

    ``plans_compiled`` / ``plan_cache_hits`` and the ``plan`` entry of
    ``phase_seconds`` are maintained by the engine's
    :class:`~repro.datalog.plans.PlanCache`: each (rule, specialization)
    pair is compiled at most once per engine run, however many γ steps
    and saturation rounds re-run it.
    """

    _COUNTERS = (
        "gamma_firings",
        "gamma_candidates_examined",
        "saturation_facts",
        "stages",
        "plans_compiled",
        "plan_cache_hits",
        "plans_reordered",
        "facts_pruned_extrema",
    )


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine decision (``record_trace=True``).

    Attributes:
        kind: ``"choose"`` — a γ firing asserted *fact*; ``"retire"`` — a
            popped (R, Q, L) candidate failed admissibility and moved to R.
        predicate: the ``(name, arity)`` the event concerns.
        fact: the asserted head fact, or the retired candidate fact.
        stage: the stage counter after the event (-1 for stage-less
            choice cliques).
    """

    kind: str
    predicate: PredicateKey
    fact: Fact
    stage: int = -1


class ChoiceMemo:
    """Memoized ``chosen`` state for one rule with choice goals.

    Keeps, per functional dependency, the mapping ``left -> right``
    established by earlier γ firings, plus the set of control tuples
    already chosen.  This is the "memorization of the chosen predicates"
    the paper prescribes; ``diffChoice`` is implicitly checked by
    :meth:`admits`, i.e. generated on the fly.

    Everything read from the rule's terms is compiled once, here: each FD
    side's reader, the control variables' getter and the head matcher.
    The readers are pure functions of a substitution; the FD maps are
    read through ``self`` on every call, because :meth:`load_state`
    replaces them.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.goals: Tuple[ChoiceGoal, ...] = rule.choice_goals
        self._maps: List[Dict[Tuple[Any, ...], Tuple[Any, ...]]] = [
            {} for _ in self.goals
        ]
        self._chosen: Set[Tuple[Any, ...]] = set()
        #: ``(left reader, right reader)`` per FD, in goal order.
        self._fds: Tuple[Tuple[Grounder, Grounder], ...] = tuple(
            (compile_ground(goal.left), compile_ground(goal.right))
            for goal in self.goals
        )
        # The variables the goals govern, in first-occurrence order.
        names = dict.fromkeys(
            var.name
            for goal in self.goals
            for term in goal.left + goal.right
            for var in term.variables()
            if not var.name.startswith("_")
        )
        self._control = compile_ground([Var(name) for name in names])
        self._control_set = frozenset(names)
        self._match_head = compile_match(rule.head.args)

    def control_tuple(self, subst: Subst) -> Tuple[Any, ...]:
        """The ground values of every variable governed by the goals."""
        return self._control(subst)

    def admits(self, subst: Subst, check_new: bool = True) -> bool:
        """Whether the candidate *subst* is FD-consistent — and, with
        ``check_new`` (the γ criterion for stage-less choice rules), not
        already chosen.  ``next`` rules pass ``check_new=False`` because
        their newness is governed by the implicit ``W -> I`` dependency
        (the engines' W-memo)."""
        if check_new and self._control(subst) in self._chosen:
            return False
        for (left, right), mapping in zip(self._fds, self._maps):
            established = mapping.get(left(subst))
            if established is not None and established != right(subst):
                return False
        return True

    def commit(self, subst: Subst) -> None:
        """Record the FDs established by firing the candidate *subst*."""
        self._chosen.add(self._control(subst))
        for (left, right), mapping in zip(self._fds, self._maps):
            mapping[left(subst)] = right(subst)

    def absorb_head_fact(self, fact: Fact) -> bool:
        """Ingest a fact of the rule's head predicate that was produced by
        *another* rule (an exit fact, or a sibling rule's firing).

        The paper reads ``choice(X, Y)`` as "the FD ``X -> Y`` must hold
        in the model" for the head predicate as a whole — so Prim's exit
        fact ``prm(nil, a, 0, 0)`` must block the root ``a`` from being
        re-entered by the recursive rule.  When the fact matches the head
        pattern and binds every choice variable, its FDs are committed.

        Returns ``True`` if the fact was absorbed.
        """
        subst = self._match_head(fact)
        if subst is None or not subst.keys() >= self._control_set:
            return False
        self.commit(subst)
        return True

    def clone(self) -> "ChoiceMemo":
        """An independent copy (used by the model enumerator's DFS); it
        shares the compiled readers."""
        twin = copy.copy(self)
        twin._maps = [dict(m) for m in self._maps]
        twin._chosen = set(self._chosen)
        return twin

    def snapshot_state(self) -> Dict[str, Any]:
        """Unsorted copies of the FD maps and the chosen set
        (checkpointing; see :mod:`repro.robust.checkpoint`)."""
        return {
            "maps": [dict(mapping) for mapping in self._maps],
            "chosen": set(self._chosen),
        }

    @staticmethod
    def freeze_state(state: Dict[str, Any]) -> Dict[str, Any]:
        """The serializable form of a :meth:`snapshot_state`: maps and
        chosen set sorted by ``order_key``."""
        return {
            "maps": [sorted(mapping.items(), key=order_key) for mapping in state["maps"]],
            "chosen": sorted(state["chosen"], key=order_key),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Overwrite with a :meth:`freeze_state` snapshot of a memo for
        the same rule.  The restored state is a superset of whatever
        :meth:`absorb_head_fact` rebuilt from the database, so overwrite
        (not merge) is correct."""
        self._maps = [
            {tuple(left): tuple(right) for left, right in pairs}
            for pairs in state["maps"]
        ]
        self._chosen = {tuple(control) for control in state["chosen"]}

    @property
    def chosen_count(self) -> int:
        return len(self._chosen)


class BaseEngine:
    """Clique-walking skeleton shared by the core engines."""

    #: Engine name used in checkpoints and partial results; overridden by
    #: each concrete engine to its :data:`~repro.core.compiler.ENGINES` key.
    engine_name = "base"

    # Class-level fault-injection slot, patched by repro.robust.faults.inject
    # for chaos runs; None (one is-None check per γ attempt) otherwise.
    _fault_hook: Any = None

    def __init__(
        self,
        program: Program,
        rng: random.Random | None = None,
        check_safety: bool = True,
        record_trace: bool = False,
        tracer: Tracer | None = None,
        governor: Any = None,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
    ):
        if check_safety:
            program.check_safety()
        self.program = program
        self.rng = rng if rng is not None else random.Random()
        self.analysis: StageAnalysis = analyze_stages(program)
        #: Structured span/event recorder; disabled by default.  Pass an
        #: enabled :class:`~repro.obs.tracer.Tracer` to capture the full
        #: clique → γ-step → saturation-round → rule-firing hierarchy.
        self.tracer = tracer if tracer is not None else Tracer()
        #: Counters backed by the tracer's metrics registry.
        self.stats = EngineRunStats(registry=self.tracer.registry)
        #: Per-run compiled-plan cache shared by every clique evaluation;
        #: ``order`` selects the join-order policy for every compile and
        #: ``extrema`` the evaluation policy for premappable recursion.
        self.plans = PlanCache(
            stats=self.stats, order=order, extrema=extrema, tracer=self.tracer
        )
        self.record_trace = record_trace
        #: γ decisions in order, populated when ``record_trace`` is set.
        self.trace: List[TraceEvent] = []
        #: Budget/cancellation enforcement; the shared no-op governor by
        #: default, so ungoverned runs pay one no-op call per hot-loop tick.
        self.governor = governor if governor is not None else NULL_GOVERNOR
        #: Every γ firing as ``(predicate, fact, stage)`` — always on (one
        #: list append per firing); carried by partial results and
        #: checkpoints.
        self.choice_log: List[Tuple[PredicateKey, Fact, int]] = []
        #: First clique index to execute; cliques before it were completed
        #: by the run a checkpoint was captured from.
        self.resume_clique_index = 0
        self._clique_index = 0
        # Live state of the clique currently executing (for checkpoint
        # capture at a budget/cancellation boundary).
        self._active_choice: Optional[Dict[int, ChoiceMemo]] = None
        self._active_stage: Any = None
        # State to re-apply when the resumed clique re-enters (keyed by
        # proper-rule index / head predicate; see repro.robust.checkpoint).
        self._restore_memos: Dict[int, Any] = {}
        self._restore_w: Dict[int, Any] = {}
        self._restore_stage: Optional[int] = None
        self._restore_rql: Dict[PredicateKey, Any] = {}

    def _note(self, kind: str, predicate: PredicateKey, fact: Fact, stage: int = -1) -> None:
        if kind == "choose":
            self.choice_log.append((predicate, fact, stage))
        if self.record_trace:
            self.trace.append(TraceEvent(kind, predicate, fact, stage))
        if self.tracer.enabled:
            self.tracer.event(
                kind, predicate=f"{predicate[0]}/{predicate[1]}", fact=fact, stage=stage
            )

    # -- public API -------------------------------------------------------------

    def run(self, db: Database | None = None) -> Database:
        """Evaluate the program over *db* (created empty when omitted).

        Program facts are loaded first; cliques run callees-first.  The
        database is mutated and returned: on completion it holds one
        choice model (stable model) of the program.
        """
        if db is None:
            db = Database()
        if self.tracer.enabled:
            # Storage-layer counters (index builds/lookups) are collected
            # only while a trace is on, keeping the default path free of
            # per-lookup bookkeeping.
            db.bind_metrics(self.tracer.registry)
        for name, facts in self.program.ground_facts().items():
            db.assert_all(name, facts)
        self.governor.start(
            db, registry=self.tracer.registry, tracer=self.tracer, engine=self
        )
        try:
            for index, report in enumerate(self.analysis.reports):
                if index < self.resume_clique_index:
                    # Completed before the checkpoint was taken: skipping
                    # keeps the restored rng aligned (no extra shuffles).
                    continue
                self._clique_index = index
                preds = ",".join(
                    f"{n}/{a}" for n, a in sorted(report.clique.predicates)
                )
                with self.tracer.span(
                    "clique", phase="clique", kind=report.kind, predicates=preds
                ):
                    self._run_clique(report, db)
                # Restored state applies only to the clique that was
                # interrupted; later cliques start fresh.
                self._restore_memos = {}
                self._restore_w = {}
                self._restore_stage = None
                self._restore_rql = {}
        except (BudgetExceeded, Cancelled) as exc:
            if exc.partial is None:
                exc.partial = self._partial_result(db)
            raise
        return db

    def _rule_indices(self) -> Dict[int, int]:
        """``{id(rule): index}`` over the program's proper rules — the
        stable keying checkpoints use for memo state (clique rules are the
        same objects as the program's)."""
        return {id(rule): index for index, rule in enumerate(self.program.proper_rules())}

    def _partial_result(self, db: Database) -> Any:
        """Build the :class:`~repro.robust.governor.PartialResult` attached
        to a budget/cancellation error, including an eagerly captured
        checkpoint (the database keeps mutating if the caller continues)."""
        from repro.robust.checkpoint import capture
        from repro.robust.governor import PartialResult

        try:
            checkpoint = capture(self, db)
        except Exception:  # pragma: no cover - capture must never mask the stop
            checkpoint = None
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint",
                clique_index=self._clique_index,
                facts=db.total_facts(),
                choices=len(self.choice_log),
            )
        return PartialResult(
            database=db,
            engine=self.engine_name,
            clique_index=self._clique_index,
            chosen=list(self.choice_log),
            stage=int(self.stats.stages),
            metrics=self.tracer.registry.snapshot(),
            checkpoint=checkpoint,
        )

    # -- clique dispatch -----------------------------------------------------------

    def _run_clique(self, report: CliqueReport, db: Database) -> None:
        self._active_choice = None
        self._active_stage = None
        if report.kind == "plain":
            self._run_plain_clique(report, db)
        elif report.kind == "choice":
            self._run_choice_clique(report, db)
        elif report.kind == "stage":
            self._run_stage_clique(report, db)
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unknown clique kind {report.kind!r}")

    def _run_stage_clique(self, report: CliqueReport, db: Database) -> None:
        raise NotImplementedError

    # -- plain cliques ----------------------------------------------------------------

    def _run_plain_clique(self, report: CliqueReport, db: Database) -> None:
        derived, pruned = evaluate_plain_clique(
            report.clique,
            db,
            self.plans,
            tracer=self.tracer,
            governor=self.governor,
            program=self.program,
        )
        # Extensional cliques publish no counter: registry snapshots ride
        # in checkpoints and responses.
        if report.clique.rules:
            self.stats.saturation_facts += derived
        if pruned is not None:
            self.stats.facts_pruned_extrema += pruned

    # -- choice cliques (γ / Q∞) ---------------------------------------------------------

    def _run_choice_clique(self, report: CliqueReport, db: Database) -> None:
        """The Choice Fixpoint restricted to one clique:
        ``repeat S := Q∞(γ(S)) until fixpoint``."""
        clique = report.clique
        choice_rules = [r for r in clique.rules if r.choice_goals]
        flat_rules = [r for r in clique.rules if not r.choice_goals]
        for rule in flat_rules:
            if rule.extrema_goals and _references(rule, clique.predicates):
                raise StratificationError(
                    f"extrema through recursion in a choice "
                    f"{clique_label(clique)}: {rule_label(self.program, rule)}"
                )
        memos = {id(rule): ChoiceMemo(rule) for rule in choice_rules}
        self._active_choice = memos

        produced = saturate(
            [r for r in flat_rules if not r.extrema_goals],
            clique.predicates,
            db,
            cache=self.plans,
            tracer=self.tracer,
            governor=self.governor,
        )
        self.stats.saturation_facts += sum(len(v) for v in produced.values())
        for rule in flat_rules:
            if rule.extrema_goals:
                self.stats.saturation_facts += len(
                    evaluate_rule_once(rule, db, cache=self.plans, tracer=self.tracer)
                )
        # The FDs must hold over the whole head predicate, so pre-existing
        # facts (exit facts, lower-clique derivations) seed the memos.
        for rule in choice_rules:
            memo = memos[id(rule)]
            for fact in db.facts(*rule.head.key):
                memo.absorb_head_fact(fact)
        if self._restore_memos:
            # Resuming the interrupted clique: the checkpointed memo state
            # (a superset of what absorbing the database rebuilt) wins.
            index_of = self._rule_indices()
            for rule in choice_rules:
                restored = self._restore_memos.get(index_of[id(rule)])
                if restored is not None:
                    memos[id(rule)].load_state(restored)

        while True:
            # The tick precedes the rng draws of the γ step, so a stop here
            # checkpoints the exact rng state the uninterrupted run had at
            # this boundary — resumed runs replay the same choice sequence.
            self.governor.tick_gamma()
            fired = self._gamma_step(choice_rules, memos, db)
            if fired is None:
                break
            source, fact = fired
            key = source.head.key
            # The firing rule's memo committed the firing already; only
            # the sibling rules that share its head absorb the fact.
            for rule in choice_rules:
                if rule is not source and rule.head.key == key:
                    memos[id(rule)].absorb_head_fact(fact)
            produced = saturate(
                [r for r in flat_rules if not r.extrema_goals],
                clique.predicates,
                db,
                seed_deltas={key: [fact]},
                cache=self.plans,
                tracer=self.tracer,
                governor=self.governor,
            )
            self.stats.saturation_facts += sum(len(v) for v in produced.values())
            for rule in choice_rules:
                for new_fact in produced.get(rule.head.key, ()):
                    memos[id(rule)].absorb_head_fact(new_fact)

    def _eligible_choice_candidates(
        self, rule: Rule, memo: ChoiceMemo, db: Database
    ) -> List[Subst]:
        """The eligible γ candidates of one choice rule: body solutions
        that are FD-consistent and new, with ``least``/``most`` applied,
        sorted by a deterministic key.

        The extremum ranks candidates against every FD-consistent
        *witness*, including the already-chosen ones: in the rewriting the
        negated cheaper-instantiation copy only requires ¬diffChoice, and
        a chosen tuple satisfies its own FDs.  This is what gives the
        paper's ``bi_st_c`` example exactly two one-fact stable models —
        once the bottom pair is chosen, every remaining candidate loses
        the ``least`` comparison against it and γ goes empty."""
        solutions = body_solutions(rule, db, cache=self.plans)
        self.stats.gamma_candidates_examined += len(solutions)
        if rule.extrema_goals:
            witnesses = [s for s in solutions if memo.admits(s, check_new=False)]
            minimal = extrema_filter(witnesses, rule.extrema_goals)
            eligible = [s for s in minimal if memo.admits(s)]
        else:
            eligible = [s for s in solutions if memo.admits(s)]
        eligible.sort(key=lambda s: order_key(memo.control_tuple(s)))
        return eligible

    def _gamma_step(
        self,
        choice_rules: Sequence[Rule],
        memos: Dict[int, ChoiceMemo],
        db: Database,
    ) -> Optional[Tuple[Rule, Fact]]:
        """One application of the one-consequence operator γ: compute the
        eligible candidates of every choice rule, pick one arbitrarily
        (via the engine rng), fire it, and memoize its FDs.

        Returns ``(fired rule, head fact)`` or ``None`` when γ is empty.
        """
        if self._fault_hook is not None:
            self._fault_hook("engine.gamma")
        rules = list(choice_rules)
        self.rng.shuffle(rules)
        with self.tracer.span("gamma-step", phase="gamma") as step:
            for rule in rules:
                memo = memos[id(rule)]
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
                return rule, fact
        return None


def _references(rule: Rule, predicates: Set[PredicateKey]) -> bool:
    return any(
        isinstance(literal, Atom) and literal.key in predicates for literal in rule.body
    )
