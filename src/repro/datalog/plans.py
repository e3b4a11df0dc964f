"""Rule-body compilation: reusable execution plans and the plan cache.

The tuple-at-a-time solver re-derives the bound/free argument split of
every atom for every substitution, a per-*firing* cost, while the
Section 6 complexity bounds charge planning per *rule*.  This module
compiles a rule body once into a :class:`CompiledPlan` — the ordered
steps plus, per step, the statically known bound/free argument split —
and caches the result so every later firing reuses it.

Join orders are chosen by an ``order`` policy:

* ``"greedy"`` (default) — selectivity-driven greedy reordering.  Ready
  comparisons and negations always run at the earliest position where
  their variables are bound (they are pure filters); among the positive
  atoms the reorderer repeatedly picks the one that is most selective
  *by inspection*: first any atom whose relation is provably empty at
  compile time (the join produces nothing, so the plan exits at step
  one), then most constant arguments, then most arguments bound by the
  already-scheduled steps, then — when a :class:`Database` is supplied —
  the smallest relation.  No statistics are gathered or maintained: the
  selectivity is read off the pattern and the current relation sizes,
  so planning stays microseconds per rule.
* ``"written"`` — the legacy bound-first heuristic of
  :func:`~repro.datalog.evaluation.plan_body`, which follows the written
  body order except for filter hoisting.  Kept behind the flag as the
  baseline the bench sweep measures against, and for programs whose
  authors hand-ordered bodies deliberately.

Both policies produce the same solution *sets* (reordering a conjunction
is semantics-preserving; the invariance battery in
``tests/datalog/test_reorder.py`` proves it property-style) — only the
enumeration cost differs.

Two refinements matter for the seminaive engine:

* **Delta specialization** — for each occurrence of a clique predicate in
  a recursive rule body, a dedicated plan places the delta literal *first*
  and orders the remaining goals against its bindings.  The generic
  bound-first heuristic knows nothing about deltas and can bury the delta
  literal mid-plan, scanning full relations each differential round even
  though the paper's bounds assume per-round work proportional to the new
  facts.
* **Hoisted inner plans** — a :class:`~repro.datalog.atoms.NegatedConjunction`
  goal needs its own sub-plan; the legacy solver re-planned it once per
  candidate substitution.  Compilation builds the inner plan exactly once
  (the set of bound variables at a plan position is static).

Static boundness — the planner's ``bound`` set at each step — decides
the bound/free split and therefore which index a lookup uses.  It counts
every named variable of the executed steps, a negated conjunction's
local variables included, although negations and negated conjunctions
bind nothing; no later goal can name such a local (the planner only
schedules a negated conjunction once every variable it shares with the
remaining goals is bound), so the over-count never reaches a lookup.
Execution needs more than that: :mod:`repro.datalog.frames` lowers each
plan onto a slot frame, and a slot read is only right if the variable is
bound at run time.  So lowering tracks exact run-time boundness itself —
the initially bound names, then what positive atoms and ``=``
assignments bind — and a read of anything else raises the reference
evaluator's ``EvaluationError`` when it runs.

Every plan is lowered once, in :func:`compile_plan`.
:meth:`CompiledPlan.consequences` hands back head facts without building
a substitution; :func:`run_plan` builds one per solution, at its
boundary, for the callers that need bindings (the greedy engine's
residual plans, ``explain``, :func:`repro.core.clique_eval.body_solutions`).
Both run eagerly and keep the depth-first solution order.
:func:`repro.datalog.evaluation.solve` stays the reference they are
tested against.

:class:`PlanCache` memoizes compiled plans per ``(rule, delta occurrence,
initially-bound set, dropped goal kinds)`` and feeds the engine counters
(``plans_compiled`` / ``plan_cache_hits`` and the ``plan`` phase timer).
Binding patterns of a compiled plan can be pre-registered as hash indices
on the target relations (:func:`register_plan_indices`) so indices are
built once up front instead of lazily mid-join.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.datalog.atoms import (
    Atom,
    Comparison,
    Literal,
    NegatedConjunction,
    Negation,
)
from repro.datalog.evaluation import _outer_vars, comparison_ready, plan_body
from repro.datalog.frames import LoweredPlan, lower
from repro.datalog.rules import Rule
from repro.datalog.terms import Term
from repro.datalog.unify import Subst
from repro.errors import EvaluationError
from repro.storage.database import Database
from repro.storage.relation import Relation

__all__ = [
    "CompiledStep",
    "CompiledPlan",
    "CompiledRule",
    "PlanCache",
    "ORDER_POLICIES",
    "DEFAULT_ORDER",
    "EXTREMA_POLICIES",
    "DEFAULT_EXTREMA",
    "compile_plan",
    "compile_rule",
    "run_plan",
    "register_plan_indices",
    "describe_plan",
    "check_static_boundness",
]

Fact = Tuple[Any, ...]

#: ``(position, argument term)`` pairs — the static bound/free split.
ArgSlot = Tuple[int, Term]

#: The recognised join-order policies.
ORDER_POLICIES: Tuple[str, ...] = ("greedy", "written")

#: Policy used when callers do not choose one.
DEFAULT_ORDER = "greedy"

#: The recognised extrema-evaluation policies for premappable recursion:
#: ``"pushdown"`` prunes dominated facts inside the fixpoint (the
#: monotonic-aggregate optimisation), ``"post"`` saturates first and
#: filters the final relation (the legacy saturate-then-choose shape).
#: Both produce the identical model on premappable programs.
EXTREMA_POLICIES: Tuple[str, ...] = ("pushdown", "post")

#: Extrema policy used when callers do not choose one.
DEFAULT_EXTREMA = "pushdown"


def _check_order(order: str) -> str:
    if order not in ORDER_POLICIES:
        raise EvaluationError(
            f"unknown join-order policy {order!r}; expected one of {ORDER_POLICIES}"
        )
    return order


def _check_extrema(extrema: str) -> str:
    if extrema not in EXTREMA_POLICIES:
        raise EvaluationError(
            f"unknown extrema policy {extrema!r}; expected one of {EXTREMA_POLICIES}"
        )
    return extrema


def _named_vars(literal: Literal) -> Set[str]:
    return {v.name for v in literal.variables() if not v.name.startswith("_")}


def _statically_bound(term: Term, bound: Set[str]) -> bool:
    """Whether *term* is guaranteed ground at run time given the statically
    *bound* variable names.  Mirrors :func:`repro.datalog.unify.is_bound`:
    wildcard variables never ground."""
    return all(
        not v.name.startswith("_") and v.name in bound for v in term.variables()
    )


def _split_args(
    args: Sequence[Term], bound: Set[str]
) -> Tuple[Tuple[ArgSlot, ...], Tuple[ArgSlot, ...], Tuple[int, ...]]:
    """Partition *args* into statically-bound and free slots."""
    bound_slots: List[ArgSlot] = []
    free_slots: List[ArgSlot] = []
    for position, arg in enumerate(args):
        if _statically_bound(arg, bound):
            bound_slots.append((position, arg))
        else:
            free_slots.append((position, arg))
    positions = tuple(position for position, _ in bound_slots)
    return tuple(bound_slots), tuple(free_slots), positions


# -- greedy join ordering ------------------------------------------------------


def _relation_size(atom: Atom, db: Optional[Database]) -> Optional[int]:
    """Cardinality hint for *atom*'s relation, or ``None`` without a db.

    A predicate with no relation yet counts as empty: joining against it
    yields nothing, so scheduling it first turns the whole plan into an
    O(1) early exit.
    """
    if db is None:
        return None
    relation = db.get(atom.pred, atom.arity)
    return 0 if relation is None else len(relation)


def _atom_score(
    atom: Atom, bound: Set[str], db: Optional[Database]
) -> Tuple[int, int, int, int]:
    """Selectivity score of scheduling *atom* next (larger = better).

    The components, in priority order:

    1. provably-empty relation (the join is empty — exit immediately);
    2. number of constant (variable-free) argument terms;
    3. number of argument variables already bound by executed steps;
    4. negated relation size (smaller relations first) when a database
       supplied cardinality hints.

    Ties fall back to written order (the caller scans left to right and
    keeps the first maximum).
    """
    size = _relation_size(atom, db)
    constants = sum(1 for arg in atom.args if not list(arg.variables()))
    bound_vars = sum(1 for name in _named_vars(atom) if name in bound)
    return (
        1 if size == 0 else 0,
        constants,
        bound_vars,
        -(size or 0),
    )


def _greedy_order(
    pairs: Sequence[Tuple[Literal, int]],
    initially_bound: Set[str],
    db: Optional[Database],
    decisions: Optional[List[str]] = None,
) -> List[Tuple[Literal, int]]:
    """Greedily order *pairs* by pattern-visible selectivity.

    Filters (comparisons, negations, negated conjunctions) schedule at
    the earliest position where their required variables are bound —
    identical to :func:`~repro.datalog.evaluation.plan_body`, so the two
    policies differ only in which *positive atom* they pick next.  Among
    the atoms the maximum of :func:`_atom_score` wins; ties keep written
    order.  When *decisions* is given, each atom choice is appended to it
    as a human-readable line (surfaced by explain/trace output).
    """
    remaining = list(pairs)
    bound: Set[str] = set(initially_bound)
    ordered: List[Tuple[Literal, int]] = []
    while remaining:
        chosen: Optional[int] = None
        for i, (literal, _) in enumerate(remaining):
            if isinstance(literal, Comparison) and comparison_ready(literal, bound):
                chosen = i
                break
        if chosen is None:
            for i, (literal, _) in enumerate(remaining):
                if isinstance(literal, (Negation, NegatedConjunction)):
                    if _outer_vars(literal, remaining, i) <= bound:
                        chosen = i
                        break
        if chosen is None:
            best_score: Optional[Tuple[int, int, int, int]] = None
            candidates = 0
            for i, (literal, _) in enumerate(remaining):
                if not isinstance(literal, Atom):
                    continue
                candidates += 1
                score = _atom_score(literal, bound, db)
                if best_score is None or score > best_score:
                    best_score = score
                    chosen = i
            if chosen is not None and decisions is not None and candidates > 1:
                literal, _ = remaining[chosen]
                assert best_score is not None
                empty, constants, bound_vars, neg_size = best_score
                parts = [f"constants={constants}", f"bound_vars={bound_vars}"]
                if db is not None:
                    parts.append(f"size={-neg_size}")
                if empty:
                    parts.append("empty-relation early exit")
                decisions.append(
                    f"step {len(ordered)}: {literal} of {candidates} "
                    f"candidates ({', '.join(parts)})"
                )
        if chosen is None:
            pending = ", ".join(str(l) for l, _ in remaining)
            raise EvaluationError(f"cannot order body goals: {pending}")
        literal, index = remaining.pop(chosen)
        ordered.append((literal, index))
        bound |= _named_vars(literal)
    return ordered


@dataclass(frozen=True)
class CompiledStep:
    """One executable step of a compiled plan.

    Attributes:
        literal: the body literal this step evaluates.
        original_index: the literal's index in the original rule body.
        is_delta: whether this (atom) step reads the delta relation
            supplied at run time instead of the database.
        bound_slots: argument positions whose terms are statically ground
            at this step — they form the indexed lookup key.
        free_slots: the remaining argument positions, matched per fact.
        positions: the lookup index pattern (positions of *bound_slots*).
        inner: the hoisted sub-plan of a negated conjunction.
    """

    literal: Literal
    original_index: int
    is_delta: bool = False
    bound_slots: Tuple[ArgSlot, ...] = ()
    free_slots: Tuple[ArgSlot, ...] = ()
    positions: Tuple[int, ...] = ()
    inner: Optional["CompiledPlan"] = None


@dataclass(frozen=True)
class CompiledPlan:
    """An ordered, split-annotated execution plan for a rule body.

    Attributes:
        steps: the compiled steps, in execution order.
        initially_bound: the variable names assumed bound before step 0.
            Callers must run the plan with a substitution binding at least
            these names (and no plan variable outside the static analysis
            — in practice: exactly these names plus wildcard-free extras).
        delta_index: original body index of the delta occurrence this plan
            specializes, or ``None`` for the generic plan.
        head_args: the head argument terms, when the plan was compiled
            from a full rule (enables :meth:`consequences`).
        order: the join-order policy the plan was compiled under.
        reordered: whether the chosen step order differs from what the
            ``written`` policy would have produced for the same inputs.
        decisions: human-readable greedy atom-choice notes, surfaced by
            plan explain and trace output.
        lowered: the plan lowered onto a slot frame
            (:mod:`repro.datalog.frames`), which every run executes.
    """

    steps: Tuple[CompiledStep, ...]
    initially_bound: frozenset = frozenset()
    delta_index: Optional[int] = None
    head_args: Optional[Tuple[Term, ...]] = None
    order: str = DEFAULT_ORDER
    reordered: bool = False
    decisions: Tuple[str, ...] = ()
    lowered: Optional[LoweredPlan] = field(default=None, compare=False, repr=False)

    def solutions(
        self,
        db: Database,
        subst: Subst | None = None,
        delta_relation: Relation | None = None,
        neg_db: Database | None = None,
    ) -> List[Subst]:
        """Every substitution satisfying the plan against *db*."""
        return run_plan(self, db, subst, delta_relation, neg_db)

    def consequences(
        self,
        db: Database,
        delta_relation: Relation | None = None,
        neg_db: Database | None = None,
        subst: Subst | None = None,
    ) -> List[Fact]:
        """Every head fact derivable through this plan, one per solution
        (duplicates included), in solution order.  No substitution is
        built; *subst* supplies the ``initially_bound`` names, as for
        :func:`run_plan`."""
        if self.head_args is None:
            raise EvaluationError("plan was compiled without a head")
        lowered = self.lowered
        if self.delta_index is not None and delta_relation is None:
            raise EvaluationError("delta-specialized plan needs a delta relation")
        return lowered.run(lowered.facts, db, subst, delta_relation, neg_db or db)

    def ordered_literals(self) -> List[Tuple[Literal, int]]:
        """The ``(literal, original_index)`` pairs in execution order —
        the shape :func:`~repro.datalog.evaluation.plan_body` returns."""
        return [(step.literal, step.original_index) for step in self.steps]


@dataclass(frozen=True)
class CompiledRule:
    """A rule together with its generic plan and delta-specialized plans.

    Attributes:
        rule: the source rule.
        plan: the generic (delta-free) plan.
        delta_plans: one delta-first plan per requested body occurrence,
            keyed by the occurrence's original body index.
    """

    rule: Rule
    plan: CompiledPlan
    delta_plans: Mapping[int, CompiledPlan] = field(default_factory=dict)

    def for_delta(self, delta_index: int | None) -> CompiledPlan:
        """The plan to run for *delta_index* (``None`` — the generic one)."""
        if delta_index is None:
            return self.plan
        return self.delta_plans[delta_index]


def compile_plan(
    literals: Sequence[Tuple[Literal, int]],
    initially_bound: frozenset = frozenset(),
    delta_index: int | None = None,
    head_args: Tuple[Term, ...] | None = None,
    order: str = DEFAULT_ORDER,
    db: Database | None = None,
) -> CompiledPlan:
    """Compile ``(literal, original_index)`` pairs into a reusable plan.

    With *delta_index*, the positive literal at that body index is placed
    first (it reads the delta relation at run time) and the remaining
    goals are ordered against its bindings — under *both* policies, so
    the seminaive delta-first guarantee survives reordering.

    Args:
        order: join-order policy (module docstring); ``"greedy"`` reorders
            atoms by pattern-visible selectivity, ``"written"`` keeps the
            legacy bound-first heuristic.
        db: optional database supplying relation-size cardinality hints
            to the greedy policy.  Sizes are read once, at compile time.

    Raises:
        EvaluationError: if no valid order exists (unsafe body), the
            delta index does not name a positive literal, or *order* is
            not a recognised policy.
    """
    _check_order(order)
    pairs = list(literals)
    bound: Set[str] = set(initially_bound)
    decisions: List[str] = []
    if delta_index is None:
        written = plan_body(pairs, initially_bound=bound)
        if order == "written":
            ordered = written
        else:
            ordered = _greedy_order(pairs, bound, db, decisions)
    else:
        delta_pair = next(
            (
                (literal, index)
                for literal, index in pairs
                if index == delta_index and isinstance(literal, Atom)
            ),
            None,
        )
        if delta_pair is None:
            raise EvaluationError(
                f"delta index {delta_index} does not name a positive body goal"
            )
        rest = [(l, i) for l, i in pairs if i != delta_index]
        rest_bound = bound | _named_vars(delta_pair[0])
        written = [delta_pair] + plan_body(rest, initially_bound=rest_bound)
        if order == "written":
            ordered = written
        else:
            decisions.append(f"delta literal pinned first: {delta_pair[0]}")
            ordered = [delta_pair] + _greedy_order(rest, rest_bound, db, decisions)
    reordered = [index for _, index in ordered] != [index for _, index in written]
    steps: List[CompiledStep] = []
    for literal, index in ordered:
        steps.append(
            _compile_step(
                literal,
                index,
                bound,
                is_delta=(delta_index is not None and index == delta_index),
                order=order,
                db=db,
            )
        )
        bound |= _named_vars(literal)
    initially_bound = frozenset(initially_bound)
    return CompiledPlan(
        tuple(steps),
        initially_bound,
        delta_index,
        head_args,
        order=order,
        reordered=reordered,
        decisions=tuple(decisions) if order == "greedy" else (),
        lowered=lower(steps, initially_bound, head_args),
    )


def _compile_step(
    literal: Literal,
    index: int,
    bound: Set[str],
    is_delta: bool = False,
    order: str = DEFAULT_ORDER,
    db: Database | None = None,
) -> CompiledStep:
    if isinstance(literal, Atom):
        bound_slots, free_slots, positions = _split_args(literal.args, bound)
        return CompiledStep(literal, index, is_delta, bound_slots, free_slots, positions)
    if isinstance(literal, Negation):
        bound_slots, free_slots, positions = _split_args(literal.atom.args, bound)
        return CompiledStep(literal, index, False, bound_slots, free_slots, positions)
    if isinstance(literal, NegatedConjunction):
        inner = compile_plan(
            [(inner_literal, -1) for inner_literal in literal.literals],
            initially_bound=frozenset(bound),
            order=order,
            db=db,
        )
        return CompiledStep(literal, index, False, inner=inner)
    if isinstance(literal, Comparison):
        return CompiledStep(literal, index)
    raise EvaluationError(
        f"meta-goal {literal} cannot be compiled; "
        "strip meta-goals (or use repro.core) first"
    )


def compile_rule(
    rule: Rule,
    delta_indices: Sequence[int] = (),
    initially_bound: frozenset = frozenset(),
    drop: Tuple[Type[Literal], ...] = (),
    order: str = DEFAULT_ORDER,
    db: Database | None = None,
) -> CompiledRule:
    """Compile *rule* into its generic plan plus delta-specialized plans.

    Args:
        rule: the rule to compile (meta-goals must be dropped or absent).
        delta_indices: body indices of clique-predicate occurrences that
            need a delta-first plan.
        initially_bound: variable names bound before the body runs.
        drop: literal classes stripped from the body before planning
            (the engines drop the meta-goals they realise themselves).
        order: join-order policy passed to :func:`compile_plan`.
        db: optional database supplying cardinality hints to ``greedy``.
    """
    literals = [
        (literal, index)
        for index, literal in enumerate(rule.body)
        if not (drop and isinstance(literal, drop))
    ]
    base = compile_plan(literals, initially_bound, None, rule.head.args, order, db)
    delta_plans = {
        index: compile_plan(literals, initially_bound, index, rule.head.args, order, db)
        for index in delta_indices
    }
    return CompiledRule(rule, base, delta_plans)


# -- execution -----------------------------------------------------------------


def run_plan(
    plan: CompiledPlan,
    db: Database,
    subst: Subst | None = None,
    delta_relation: Relation | None = None,
    neg_db: Database | None = None,
) -> List[Subst]:
    """Every substitution satisfying *plan* against *db*, in depth-first
    solution order.

    Each solution is *subst* extended by the variables the plan bound (a
    negated conjunction's local variables are not among them); when the
    plan binds nothing, it is *subst* itself.  The solutions are computed
    before this returns, so the caller may mutate *db* while it iterates
    them.

    Args:
        plan: a compiled plan.
        subst: initial bindings; must bind (at least) the plan's
            ``initially_bound`` names.  Not mutated.
        delta_relation: the delta relation read by the plan's delta step
            (required iff the plan was delta-specialized).
        neg_db: database for negated goals and conjunctions (defaults to
            *db*; the stability check passes the candidate model).
    """
    if plan.delta_index is not None and delta_relation is None:
        raise EvaluationError("delta-specialized plan needs a delta relation")
    lowered = plan.lowered
    return lowered.run(lowered.substs, db, subst, delta_relation, neg_db or db)


def register_plan_indices(plan: CompiledPlan, db: Database) -> None:
    """Pre-build the hash indices a plan's lookups will use.

    Walks the plan (and hoisted inner plans) and registers each atom
    step's binding pattern on the target relation, so the index exists —
    and is maintained incrementally — before the first join touches it.
    Delta steps are skipped: delta relations are transient and small.
    """
    for step in plan.steps:
        literal = step.literal
        if isinstance(literal, Atom) and not step.is_delta:
            if step.positions:
                db.relation(literal.pred, literal.arity).ensure_index(step.positions)
        elif isinstance(literal, Negation):
            if step.positions:
                atom = literal.atom
                db.relation(atom.pred, atom.arity).ensure_index(step.positions)
        elif isinstance(literal, NegatedConjunction) and step.inner is not None:
            register_plan_indices(step.inner, db)


def describe_plan(plan: CompiledPlan) -> List[str]:
    """Human-readable lines for *plan*: policy, per-step literal with its
    index pattern, and the greedy reorder decisions.  Used by explain and
    kept deliberately plain so it diffs well in golden tests."""
    header = f"order={plan.order}"
    if plan.reordered:
        header += " (reordered)"
    lines = [header]
    for position, step in enumerate(plan.steps):
        tags = []
        if step.is_delta:
            tags.append("delta")
        if step.positions:
            tags.append("bound=" + ",".join(str(p) for p in step.positions))
        suffix = f"  [{' '.join(tags)}]" if tags else ""
        lines.append(f"  {position}: {step.literal}{suffix}")
    for decision in plan.decisions:
        lines.append(f"  # {decision}")
    return lines


def check_static_boundness(plan: CompiledPlan) -> List[str]:
    """Violations of the static-boundness contract in *plan* (empty ⇒ sound).

    Walks the steps replaying the bound-variable set and checks that
    every comparison is ready at its scheduled position and every plain
    negation has all its named variables bound; hoisted inner plans of
    negated conjunctions are checked recursively (their unbound locals
    are existential and legal).  The reorder-invariance suite asserts
    this returns ``[]`` for every generated plan under both policies.
    """
    violations: List[str] = []
    bound: Set[str] = set(plan.initially_bound)
    for position, step in enumerate(plan.steps):
        literal = step.literal
        if isinstance(literal, Comparison):
            if not comparison_ready(literal, bound):
                violations.append(
                    f"step {position}: comparison {literal} not ready "
                    f"(bound: {sorted(bound)})"
                )
        elif isinstance(literal, Negation):
            unbound = _named_vars(literal) - bound
            if unbound:
                violations.append(
                    f"step {position}: negation {literal} has unbound "
                    f"variables {sorted(unbound)}"
                )
        elif isinstance(literal, NegatedConjunction) and step.inner is not None:
            violations.extend(
                f"step {position} inner: {violation}"
                for violation in check_static_boundness(step.inner)
            )
        bound |= _named_vars(literal)
    return violations


# -- the cache -----------------------------------------------------------------


class PlanCache:
    """Memoized rule-body compilation.

    One cache per engine run: every ``(rule, delta occurrence,
    initially-bound set, dropped goal kinds)`` combination is compiled at
    most once.  The cache holds strong references to its rules, so a
    cached plan can never be confused with a plan of a different rule
    that happens to reuse the same ``id``.

    Args:
        stats: optional counter object (``EngineStats`` /
            ``EngineRunStats``) — the cache bumps ``plans_compiled`` /
            ``plan_cache_hits`` / ``plans_reordered`` and the ``plan``
            phase timer on it.
        enabled: with ``False`` every request recompiles (the per-call
            planning baseline used by the plan-cache ablation benchmark).
        order: join-order policy every compile in this cache uses.
        extrema: extrema-evaluation policy the owning engine runs under
            (``"pushdown"`` default / ``"post"`` legacy).  Plans always
            drop extrema goals — the policy decides *when* the engine
            applies them — but the cache validates and carries it so
            every engine resolves the policy through one place.
        tracer: optional tracer — a ``plan-reordered`` event is emitted
            whenever a fresh compile changed the written order.
    """

    def __init__(
        self,
        stats: Any = None,
        enabled: bool = True,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
        tracer: Any = None,
    ):
        self.stats = stats
        self.enabled = enabled
        self.order = _check_order(order)
        self.extrema = _check_extrema(extrema)
        self.tracer = tracer
        self._plans: Dict[Tuple[Any, ...], CompiledPlan] = {}
        self._rules: Dict[int, Rule] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def plan(
        self,
        rule: Rule,
        delta_index: int | None = None,
        bound: frozenset = frozenset(),
        drop: Tuple[Type[Literal], ...] = (),
        db: Database | None = None,
    ) -> CompiledPlan:
        """The compiled plan for *rule* under the given specialization.

        *db*, when given, supplies cardinality hints to the greedy
        policy.  It is not part of the cache key: the first compile's
        sizes win, which is deliberate — engines compile all plans up
        front against the loaded EDB, and re-planning mid-run would
        invalidate the registered indices.
        """
        key = (
            id(rule),
            delta_index,
            bound,
            tuple(sorted(cls.__name__ for cls in drop)),
        )
        cached = self._plans.get(key)
        if cached is not None:
            self._bump("plan_cache_hits")
            return cached
        start = time.perf_counter()
        literals = [
            (literal, index)
            for index, literal in enumerate(rule.body)
            if not (drop and isinstance(literal, drop))
        ]
        plan = compile_plan(
            literals, bound, delta_index, rule.head.args, self.order, db
        )
        if self.enabled:
            self._plans[key] = plan
            self._rules[id(rule)] = rule
        self._bump("plans_compiled")
        if plan.reordered:
            self._bump("plans_reordered")
            tracer = self.tracer
            if tracer is not None and getattr(tracer, "enabled", False):
                tracer.event(
                    "plan-reordered",
                    rule=str(rule),
                    delta_index=delta_index,
                    steps=[str(step.literal) for step in plan.steps],
                    decisions=list(plan.decisions),
                )
        self._time("plan", time.perf_counter() - start)
        return plan

    def consequences(
        self,
        rule: Rule,
        db: Database,
        delta_index: int | None = None,
        delta_relation: Relation | None = None,
        neg_db: Database | None = None,
    ) -> List[Fact]:
        """Every head fact derivable from *rule* against *db*, through the
        cached (delta-specialized) plan.  The drop-free equivalent of
        :func:`repro.datalog.evaluation.rule_consequences`."""
        if rule.has_meta_goals:
            raise EvaluationError(
                f"rule has meta-goals, use the core engines: {rule}"
            )
        plan = self.plan(rule, delta_index=delta_index, db=db)
        return plan.consequences(db, delta_relation=delta_relation, neg_db=neg_db)

    def register_indices(self, db: Database) -> None:
        """Pre-register every cached plan's binding patterns on *db*."""
        for plan in self._plans.values():
            register_plan_indices(plan, db)

    # -- counters -----------------------------------------------------------

    def _bump(self, counter: str) -> None:
        stats = self.stats
        if stats is not None:
            setattr(stats, counter, getattr(stats, counter, 0) + 1)

    def _time(self, phase: str, seconds: float) -> None:
        stats = self.stats
        if stats is not None and hasattr(stats, "add_phase_time"):
            stats.add_phase_time(phase, seconds)
