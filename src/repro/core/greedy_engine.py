"""The greedy engine: the alternating fixpoint backed by (R, Q, L).

This is the paper's headline implementation (Section 6): for a stage
clique whose ``next`` rule has the canonical shape ::

    head(..., I) <- next(I), p(X̄, J), [stage comparisons],
                    [least(C, I)], [choice goals], [check goals]

candidate facts of ``p`` are kept in an :class:`~repro.core.rql.RQLStructure`
instead of being recomputed every stage.  Each γ step pops the extremal
candidate in ``O(log |Q|)``, re-checks admissibility (the choice FDs
against the memoized ``chosen`` state, plus any residual body goals such
as Kruskal's component test), and either fires it or retires it to
``R_r``.  Flat rules run seminaively after every firing, and any new
candidate facts they derive are inserted into the queue.

The pop test is compiled once per plan (:class:`RQLPlan`): the candidate
binder, the residual body plan and the head grounder, with the FD readers
compiled once per :class:`~repro.core.engine_base.ChoiceMemo` and the
``W`` projection once per clique state; the pop loop only runs them.
A firing computes its ``W`` tuple once and commits its FDs once.  Feed
order is canonical: every batch of candidates (the database's at seeding,
a saturation round's, an :meth:`GreedyStageEngine.extend` batch's) enters
the queue in ``repr`` order, so equal costs, which pop in insertion
order, break the same way under every string-hash seed.

Soundness note: retiring an inadmissible popped fact permanently assumes
*monotone rejection* — once a candidate fails the admissibility test it
fails forever.  This holds for every program in the paper (choice FDs
only accumulate; Kruskal components only merge).  A clique whose ``next``
rule does not fit the canonical shape silently falls back to the fully
general :class:`~repro.core.stage_engine.BasicStageEngine` evaluation;
``engine.fallbacks`` records which cliques fell back and why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.rql import CongruenceSpec, RQLStructure
from repro.core.stage_analysis import CliqueReport
from repro.core.stage_engine import BasicStageEngine, StageCliqueState
from repro.datalog.atoms import Atom, ChoiceGoal, Comparison, LeastGoal, MostGoal, NextGoal
from repro.datalog.builtins import order_key
from repro.datalog.plans import (
    DEFAULT_EXTREMA,
    DEFAULT_ORDER,
    CompiledPlan,
    compile_plan,
    run_plan,
)
from repro.datalog.rules import Rule
from repro.datalog.terms import Const, Var
from repro.datalog.unify import (
    Grounder,
    Matcher,
    binds_only,
    compile_ground,
    compile_match,
)
from repro.errors import EvaluationError
from repro.obs.tracer import Tracer
from repro.storage.database import Database

__all__ = ["GreedyStageEngine", "RQLPlan"]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]

#: Inserts a batch of candidate-predicate facts into a plan's queue.
Feed = Callable[[Iterable[Fact]], None]


@dataclass(frozen=True)
class RQLPlan:
    """Compiled (R, Q, L) execution plan for one ``next`` rule.

    Everything a γ pop reads from the rule's terms is decided here, once:

    * ``rest_plan`` is the residual body compiled against the bindings a
      popped candidate supplies (the candidate atom's variables plus the
      stage variable) — admissibility checks re-run it, they never
      re-plan;
    * ``bind`` matches a candidate fact against the candidate atom
      (:func:`~repro.datalog.unify.compile_match`); ``filters`` says
      whether it can reject a fact of the candidate predicate at all;
    * ``head`` grounds the head from a solution.

    The ``W`` projection of the head facts is the clique state's
    (:attr:`~repro.core.stage_engine.StageCliqueState.w_keys`).
    """

    rule: Rule
    stage_var: str
    candidate_index: int
    candidate_atom: Atom
    spec: CongruenceSpec
    rest: Tuple[Tuple[Any, int], ...]
    rest_plan: CompiledPlan
    bind: Matcher
    filters: bool
    head: Grounder


class GreedyStageEngine(BasicStageEngine):
    """Stage-clique evaluation with the Section 6 storage structures.

    Public attributes populated by :meth:`run`:

    * ``rql_structures`` — ``{head predicate: RQLStructure}`` for every
      clique executed in RQL mode (operation counters for the complexity
      experiments live in ``structure.stats``);
    * ``fallbacks`` — ``{head predicate: reason}`` for cliques that fell
      back to basic evaluation.
    """

    engine_name = "rql"

    def __init__(
        self,
        program,
        rng: random.Random | None = None,
        check_safety: bool = True,
        allow_extended: bool = True,
        record_trace: bool = False,
        use_congruence: bool = True,
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
            allow_extended=allow_extended,
            record_trace=record_trace,
            max_stages=max_stages,
            tracer=tracer,
            governor=governor,
            order=order,
            extrema=extrema,
        )
        #: With ``use_congruence=False`` the r-congruence deduplication is
        #: disabled (every candidate fact gets its own queue entry) — the
        #: ablation baseline for the Section 6 design choice.  Results are
        #: unchanged; only queue sizes and pop/reject counts differ.
        self.use_congruence = use_congruence
        self.rql_structures: Dict[PredicateKey, RQLStructure] = {}
        self.fallbacks: Dict[PredicateKey, str] = {}
        self._resumable: List[
            Tuple[RQLPlan, StageCliqueState, RQLStructure, Feed]
        ] = []
        self._db: Database | None = None

    def run(self, db: Database | None = None) -> Database:
        db = super().run(db)
        self._db = db
        return db

    def extend(self, facts: Dict[str, List[Fact]]) -> Database:
        """Online evaluation: assert new extensional facts into the last
        :meth:`run`'s database and *continue* the greedy runs from their
        current state (memoized choices, stage counters and (R, Q, L)
        queues are kept).

        The result is the **online greedy**: earlier selections are never
        revisited, so the final database generally differs from a fresh
        run over the extended input (and need not be a stable model of
        the extended program).  This is the natural semantics for feeds —
        e.g. new edges arriving while a spanning tree is maintained.

        Only available when every stage clique ran in RQL mode.

        Returns the (mutated) database.
        """
        if self._db is None:
            raise EvaluationError("extend() requires a prior run()")
        if self.fallbacks:
            raise EvaluationError(
                "extend() is only supported when all stage cliques ran in "
                f"RQL mode; fallbacks: {self.fallbacks}"
            )
        db = self._db
        seeds: Dict[PredicateKey, List[Fact]] = {}
        for name, rows in facts.items():
            for row in rows:
                fact = tuple(row)
                if db.assert_fact(name, fact):
                    seeds.setdefault((name, len(fact)), []).append(fact)
        for plan, state, structure, feed in self._resumable:
            clique_seeds = {key: list(rows) for key, rows in seeds.items()}
            produced = self._quiesce(
                state, db, seeds=clique_seeds, extra_predicates=frozenset(seeds)
            )
            state.absorb(produced)
            feed(produced.get(plan.candidate_atom.key, ()))
            feed(seeds.get(plan.candidate_atom.key, ()))
            self._drain(plan, state, structure, db, feed)
        return db

    # -- plan derivation -----------------------------------------------------------

    def _rql_plan(self, report: CliqueReport, db: Database | None = None) -> RQLPlan | str:
        """Derive the (R, Q, L) plan for the clique's ``next`` rule, or a
        string explaining why the clique must fall back."""
        if len(report.next_rules) != 1:
            return f"{len(report.next_rules)} next rules (need exactly 1)"
        rule = report.next_rules[0]
        stage_var = rule.next_goals[0].var.name
        extrema = rule.extrema_goals
        if len(extrema) > 1:
            return "multiple extrema goals in the next rule"
        cost_var: Optional[str] = None
        maximize = False
        if extrema:
            goal = extrema[0]
            if not isinstance(goal.cost, Var):
                return "extremum cost is not a plain variable"
            for term in goal.group:
                if isinstance(term, Const):
                    continue
                if isinstance(term, Var) and term.name == stage_var:
                    continue
                return f"extremum group term {term} is not the stage variable"
            cost_var = goal.cost.name
            maximize = isinstance(goal, MostGoal)

        positives = [
            (index, literal)
            for index, literal in enumerate(rule.body)
            if isinstance(literal, Atom)
        ]
        if not positives:
            return "next rule has no positive body goal"
        if cost_var is None:
            if len(positives) != 1:
                return "no extremum and more than one positive goal"
            candidate_index, candidate_atom = positives[0]
        else:
            carriers = [
                (index, atom)
                for index, atom in positives
                if any(
                    isinstance(arg, Var) and arg.name == cost_var for arg in atom.args
                )
            ]
            if len(carriers) != 1:
                return f"{len(carriers)} body goals carry the cost variable"
            candidate_index, candidate_atom = carriers[0]

        # The (R, Q, L) discipline fires each candidate fact at most once
        # (the used/seen sets retire its congruence class).  That is only
        # sound when the head is a function of the candidate fact and the
        # stage: a head variable bound by some *other* body goal (e.g. a
        # running total, as in coin change) lets one fact legitimately
        # fire at many stages — such rules must use the basic engine.
        candidate_names = {
            v.name for v in candidate_atom.variables() if not v.name.startswith("_")
        }
        for head_var in rule.head.variables():
            if head_var.name.startswith("_"):
                continue
            if head_var.name == stage_var or head_var.name in candidate_names:
                continue
            return (
                f"head variable {head_var.name} is not supplied by the "
                "candidate goal or the stage (one-fact-one-firing would be "
                "unsound)"
            )

        candidate_key = candidate_atom.key
        stage_positions = self.analysis.stage_positions.get(candidate_key, set())
        cost_position: Optional[int] = None
        if cost_var is not None:
            for position, arg in enumerate(candidate_atom.args):
                if isinstance(arg, Var) and arg.name == cost_var:
                    cost_position = position
                    break

        determined = self._determined_vars(rule)
        # A determined variable may only leave the signature when nothing
        # but the candidate atom, the choice goals and the head mention it:
        # if it occurs in a residual body goal, pop-time admissibility
        # depends on it and congruent facts are not interchangeable.
        rest_names: Set[str] = set()
        for index, literal in enumerate(rule.body):
            if index == candidate_index or isinstance(
                literal, (ChoiceGoal, LeastGoal, MostGoal, NextGoal)
            ):
                continue
            rest_names.update(
                v.name for v in literal.variables() if not v.name.startswith("_")
            )
        signature_positions: List[int] = []
        for position, arg in enumerate(candidate_atom.args):
            if position == cost_position:
                continue
            if position in stage_positions and self._stage_arg_droppable(
                rule, arg, stage_var, candidate_index
            ):
                continue
            if (
                isinstance(arg, Var)
                and arg.name in determined
                and arg.name not in rest_names
            ):
                continue
            signature_positions.append(position)

        # Cost-based collapse (keep the cheaper of two congruent facts) is
        # only sound when firing one class member blocks the whole class:
        # some choice FD's left side must lie inside the signature (Prim's
        # choice(Y, X) with signature {Y}).  Without such an FD — sorting
        # has none — the costlier congruent fact can legitimately fire at
        # a later stage, so the cost argument joins the signature and
        # every fact keeps its own queue entry.
        if cost_position is not None:
            signature_names: Set[str] = set()
            for position in signature_positions:
                signature_names.update(
                    v.name
                    for v in candidate_atom.args[position].variables()
                    if not v.name.startswith("_")
                )
            collapse_licensed = False
            for goal in rule.choice_goals:
                left_names = {
                    v.name
                    for term in goal.left
                    for v in term.variables()
                    if not v.name.startswith("_")
                }
                if left_names and left_names <= signature_names:
                    collapse_licensed = True
                    break
            if not collapse_licensed:
                signature_positions.append(cost_position)
                signature_positions.sort()
        if not self.use_congruence:
            # Ablation mode: the signature is the whole fact, so no two
            # distinct facts ever collapse or retire each other.
            signature_positions = list(range(candidate_atom.arity))
        spec = CongruenceSpec(
            arity=candidate_atom.arity,
            signature_positions=tuple(signature_positions),
            cost_position=cost_position,
            maximize=maximize,
        )
        rest = tuple(
            (literal, index)
            for index, literal in enumerate(rule.body)
            if index != candidate_index
            and not isinstance(literal, (LeastGoal, MostGoal, ChoiceGoal, NextGoal))
        )
        # A popped candidate binds the candidate atom's named variables;
        # the engine adds the stage variable.  Compile the residual body
        # once against exactly those bindings.
        base_bound = frozenset(
            {
                v.name
                for v in candidate_atom.variables()
                if not v.name.startswith("_")
            }
            | {stage_var}
        )
        rest_plan = compile_plan(
            rest, initially_bound=base_bound, order=self.plans.order, db=db
        )
        return RQLPlan(
            rule,
            stage_var,
            candidate_index,
            candidate_atom,
            spec,
            rest,
            rest_plan,
            bind=compile_match(candidate_atom.args),
            filters=not binds_only(candidate_atom.args),
            head=compile_ground(rule.head.args),
        )

    @staticmethod
    def _stage_arg_droppable(
        rule: Rule, arg, stage_var: str, candidate_index: int
    ) -> bool:
        """Whether the candidate's stage argument may be left out of the
        congruence signature.

        Congruence replacement keeps one (cheapest) fact per signature, so
        facts differing only in dropped positions must be interchangeable
        at pop time.  A stage argument ``J`` is interchangeable only when
        its sole use outside the candidate atom is a ``J < I`` / ``J <= I``
        guard — satisfied by *every* queued fact.  Any other use (Prim has
        none; the TSP chain's ``I = J + 1`` selects exactly the previous
        stage) keeps the position in the signature."""
        if not isinstance(arg, Var):
            return False
        name = arg.name
        for index, literal in enumerate(rule.body):
            if index == candidate_index:
                continue
            if not any(v.name == name for v in literal.variables()):
                continue
            if not isinstance(literal, Comparison):
                return False
            low, high = None, None
            if literal.op in ("<", "<="):
                low, high = literal.left, literal.right
            elif literal.op in (">", ">="):
                low, high = literal.right, literal.left
            if (
                not isinstance(low, Var)
                or not isinstance(high, Var)
                or low.name != name
                or high.name != stage_var
            ):
                return False
        if any(v.name == name for v in rule.head.variables()):
            return False
        return True

    @staticmethod
    def _determined_vars(rule: Rule) -> Set[str]:
        """Variables functionally determined by the rule's choice goals:
        they appear on some right side and never on a left side."""
        lefts: Set[str] = set()
        rights: Set[str] = set()
        for goal in rule.choice_goals:
            for term in goal.left:
                lefts.update(v.name for v in term.variables())
            for term in goal.right:
                rights.update(v.name for v in term.variables())
        return rights - lefts

    # -- clique execution ----------------------------------------------------------------

    def _run_stage_clique(self, report: CliqueReport, db: Database) -> None:
        plan = self._rql_plan(report, db)
        if isinstance(plan, str):
            for rule in report.next_rules:
                self.fallbacks[rule.head.key] = plan
            super()._run_stage_clique(report, db)
            return
        state = self._prepare(report, db)
        structure = RQLStructure(plan.spec)
        self.rql_structures[plan.rule.head.key] = structure
        restored = self._restore_rql.get(plan.rule.head.key)
        if restored is not None:
            # Resuming the interrupted clique: the restored seen-set makes
            # the re-seeding below a harmless dedup no-op, and the queue
            # comes back in tiebreak order so pop order is unchanged.
            structure.load_state(restored)
        feed = self._feeder(plan, structure)
        self._resumable.append((plan, state, structure, feed))
        candidate_key = plan.candidate_atom.key

        produced = self._quiesce(state, db, seeds=None)
        state.absorb(produced)
        feed(produced.get(candidate_key, ()))
        # Seed with candidate facts already in the database (EDB candidates
        # like matching's arcs, or facts loaded before this clique ran).
        feed(db.facts(*candidate_key))

        # Stage-less choice exit rules (e.g. the TSP chain seed) fire first.
        while True:
            self.governor.tick_gamma()
            fired = self._fire_exit_choice(state, db)
            if fired is None:
                break
            key, fact = fired
            state.absorb({key: [fact]})
            produced = self._quiesce(state, db, seeds={key: [fact]})
            state.absorb(produced)
            feed(produced.get(candidate_key, ()))

        self._drain(plan, state, structure, db, feed)

    @staticmethod
    def _feeder(plan: RQLPlan, structure: RQLStructure) -> Feed:
        """The plan's candidate feed: inserts each batch of candidate
        predicate facts that the candidate atom matches into the queue,
        in ``repr`` order.  Heap ties pop in insertion order, and a batch
        comes in set order — derivation order, or the order a relation
        was filled in — which varies with string hashing (and a restored
        checkpoint re-asserts the database sorted)."""
        bind, filters, insert = plan.bind, plan.filters, structure.insert

        def feed(facts: Iterable[Fact]) -> None:
            for fact in sorted(facts, key=repr):
                if not filters or bind(fact) is not None:
                    insert(fact)

        return feed

    def _drain(
        self,
        plan: RQLPlan,
        state: StageCliqueState,
        structure: RQLStructure,
        db: Database,
        feed: Feed,
    ) -> None:
        """Pop-γ until the queue is exhausted, saturating flat rules and
        feeding new candidates after every firing.

        A popped candidate binds the residual body, which runs at the next
        stage; its first solution in head order whose ``W`` is new and
        whose FDs the memo admits fires.  With none, the candidate
        retires to ``R_r``."""
        rule = plan.rule
        memo = state.memos[id(rule)]
        w_memo = state.w_memos[id(rule)]
        head_key = rule.head.key
        candidate_key = plan.candidate_atom.key
        stage_var, head, w_of = plan.stage_var, plan.head, state.w_keys[id(rule)]
        # With no residual goals the binding is the one solution.
        rest = plan.rest_plan if plan.rest_plan.steps else None
        while True:
            # Tick first: _drain consumes no rng at all, so any stop here
            # checkpoints at a boundary a resumed run re-enters exactly.
            self.governor.tick_gamma()
            if self._fault_hook is not None:
                self._fault_hook("engine.gamma")
            if self.max_stages is not None and state.stage >= self.max_stages:
                raise EvaluationError(
                    f"stage clique exceeded max_stages={self.max_stages}; "
                    "the program may not be terminating"
                )
            with self.tracer.span("gamma-step", phase="gamma", kind="rql-pop") as step:
                candidate = structure.pop()
                if candidate is None:
                    break
                step.note(queue_depth=len(structure))
                base = plan.bind(candidate)
                base[stage_var] = state.stage + 1
                solutions = [base] if rest is None else run_plan(rest, db, base)
                self.stats.gamma_candidates_examined += len(solutions)
                firings = [(head(subst), subst) for subst in solutions]
                if len(firings) > 1:
                    firings.sort(key=lambda firing: order_key(firing[0]))
                for head_fact, subst in firings:
                    w = w_of(head_fact)
                    if w not in w_memo and memo.admits(subst, check_new=False):
                        break
                else:
                    structure.mark_redundant(candidate)
                    step.note(verdict="retire")
                    self._note("retire", candidate_key, candidate, state.stage)
                    continue
                structure.mark_used(candidate)
                memo.commit(subst)
                w_memo.add(w)
                db.relation(rule.head.pred, rule.head.arity).add(head_fact)
                self.stats.gamma_firings += 1
                state.stage += 1
                self.stats.stages += 1
                step.note(verdict="choose", stage=state.stage)
                self._note("choose", head_key, head_fact, state.stage)
            state.absorb({head_key: [head_fact]}, source=rule)
            produced = self._quiesce(state, db, seeds={head_key: [head_fact]})
            state.absorb(produced)
            feed(produced.get(candidate_key, ()))
        structure.publish(self.stats.registry, f"rql/{head_key[0]}")
