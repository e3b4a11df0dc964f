"""Shared clique-level evaluation: the one seminaive kernel.

Every engine except the naive oracle evaluates through these functions:

* :func:`evaluate_rule_once` — evaluate one rule (extrema-aware) against
  the database, returning the facts that were new;
* :func:`saturate` — the differential delta loop: the seminaive fixpoint
  of a set of meta-goal-free rules (negation allowed when the caller
  vouches for local stratification, as the alternating stage fixpoint
  does), optionally under a :class:`~repro.core.extrema_lattice.BestTable`
  insert filter — premappable extrema are ``γ(lfp T) = lfp(γ ∘ T)``, so
  pushing the extremum into the fixpoint needs a filter, not a loop;
* :func:`evaluate_plain_clique` — one plain clique: a single pass when it
  is not recursive, otherwise :func:`saturate`, with premappable extrema
  applied under the plan cache's ``extrema`` policy;
* :func:`extrema_filter` — the group-by min/max selection shared by every
  construct that evaluates ``least``/``most`` over a candidate set.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.extrema_lattice import BestTable, dominated_facts
from repro.core.rewriting import premappable_extrema
from repro.core.stage_analysis import clique_label, rule_label
from repro.datalog.atoms import (
    Atom,
    ChoiceGoal,
    LeastGoal,
    MostGoal,
    Negation,
    NextGoal,
)
from repro.datalog.builtins import eval_expr, order_key
from repro.datalog.dependency import Clique
from repro.datalog.plans import CompiledPlan, PlanCache, compile_plan, run_plan
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.unify import Subst, ground_term
from repro.errors import StratificationError
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.storage.database import Database
from repro.storage.relation import Relation

__all__ = [
    "EXTREMA_DROP",
    "evaluate_rule_once",
    "saturate",
    "evaluate_plain_clique",
    "compile_clique",
    "delta_variants",
    "extrema_filter",
    "body_solutions",
]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]

#: Goal classes dropped from every plan the kernel runs: the extremum is
#: applied by :func:`extrema_filter` on a single pass, or by the
#: ``BestTable`` filter inside the fixpoint.
EXTREMA_DROP = (LeastGoal, MostGoal)

# Module-level fault-injection slot, patched by repro.robust.faults.inject
# for chaos runs; None (one is-None check per saturation round) otherwise.
_FAULT_HOOK = None


def extrema_filter(
    solutions: Sequence[Subst], goals: Sequence[LeastGoal | MostGoal]
) -> List[Subst]:
    """Filter *solutions* through the extrema goals, applied in order.

    Each goal groups the surviving solutions by the ground values of its
    group terms and keeps, per group, those whose cost value attains the
    extremum.  Ties survive together (the caller — typically the
    non-deterministic ``γ`` operator — breaks them).
    """
    survivors = list(solutions)
    for goal in goals:
        best: Dict[Tuple[Any, ...], Any] = {}
        keyed: List[Tuple[Tuple[Any, ...], Any, Subst]] = []
        for subst in survivors:
            group = tuple(ground_term(term, subst) for term in goal.group)
            cost = eval_expr(goal.cost, subst)
            keyed.append((group, cost, subst))
            current = best.get(group, _MISSING)
            if current is _MISSING or goal.better(order_key(cost), order_key(current)):
                best[group] = cost
        survivors = [
            subst
            for group, cost, subst in keyed
            if order_key(cost) == order_key(best[group])
        ]
    return survivors


def body_solutions(
    rule: Rule,
    db: Database,
    initial: Subst | None = None,
    drop: Tuple[type, ...] = (ChoiceGoal, LeastGoal, MostGoal, NextGoal),
    cache: PlanCache | None = None,
) -> List[Subst]:
    """All substitutions satisfying the rule body with meta-goals dropped.

    Args:
        rule: the rule whose body to evaluate.
        db: the fact database.
        initial: pre-established bindings (e.g. the stage variable).
        drop: literal classes to strip from the body before evaluation.
        cache: plan cache to compile through (the engines pass theirs, so
            repeated evaluations of one rule reuse its compiled plan).
    """
    initial = initial or {}
    plan = _plan(rule, db, cache, drop, bound=frozenset(initial))
    return run_plan(plan, db, dict(initial))


def evaluate_rule_once(
    rule: Rule,
    db: Database,
    initial: Subst | None = None,
    cache: PlanCache | None = None,
    tracer: Tracer | None = None,
    best: BestTable | None = None,
) -> List[Fact]:
    """Evaluate *rule* once (with extrema applied) and insert the results.

    Choice and next goals must have been handled by the caller; extrema
    goals are applied as a group-by filter over the body solutions — or,
    with *best*, by that table's insert filter (see :func:`saturate`).

    With an enabled *tracer*, the evaluation is recorded as a
    ``rule-firing`` span (unphased: a no-op while tracing is off).

    Returns the facts that were actually new.
    """
    traced = tracer is not None and tracer.enabled
    span = tracer.span("rule-firing", head=str(rule.head)) if traced else NULL_SPAN
    with span:
        extrema = rule.extrema_goals if best is None else ()
        if extrema:
            solutions = extrema_filter(
                body_solutions(rule, db, initial, drop=EXTREMA_DROP, cache=cache),
                extrema,
            )
            head = rule.head.args
            facts = [tuple(ground_term(arg, s) for arg in head) for s in solutions]
        else:
            plan = _plan(
                rule, db, cache, EXTREMA_DROP, bound=frozenset(initial or ())
            )
            facts = plan.consequences(db, subst=initial)
        new_facts = _derive(rule, facts, db, best)
        span.note(solutions=len(facts), new_facts=len(new_facts))
    return new_facts


def saturate(
    rules: Sequence[Rule],
    clique_predicates: Iterable[PredicateKey],
    db: Database,
    seed_deltas: Dict[PredicateKey, List[Fact]] | None = None,
    cache: PlanCache | None = None,
    tracer: Tracer | None = None,
    governor: Any = None,
    best: BestTable | None = None,
    stats: Any = None,
) -> Dict[PredicateKey, List[Fact]]:
    """Seminaive fixpoint of *rules* over *db* — the one differential
    delta loop every non-naive engine runs.

    Rules must be free of choice/next goals (plain negation and negated
    conjunctions are allowed — the stage engines call this inside a
    locally stratified alternation, where reading the current database
    is sound).  Extrema goals are dropped from every plan: a rule's own
    are applied on its seeding pass unless *best* applies them.

    Args:
        rules: the flat rules of the clique.
        clique_predicates: predicates whose occurrences in rule bodies are
            differentiated (delta-driven).
        seed_deltas: externally produced new facts (e.g. the fact a ``γ``
            step just asserted) that should drive the first differential
            round.  When ``None``, every rule is evaluated in full once to
            seed the deltas.
        cache: plan cache shared across calls, so the differential rounds
            reuse each rule's compiled delta-first plans.
        tracer: records each differential round as a ``saturation-round``
            span (phase ``saturate``) and, when enabled, each rule
            evaluation as a nested ``rule-firing`` span.
        governor: optional :class:`~repro.robust.governor.RunGovernor`
            ticked once per differential round (a consistent boundary: a
            raise here loses no committed facts, and re-entry re-derives
            the remainder — saturation is deterministic and confluent).
        best: the pushdown insert filter of a premappable clique, already
            agreeing with *db* on every covered predicate.  A dominated
            new fact is dropped before it reaches the database; the facts
            a better one displaces leave the relation at once and drive
            no further round.  This is the premappable optimisation —
            and on cost lattices with infinitely ascending chains (e.g.
            summed costs over a cyclic graph) it is also what makes the
            fixpoint finite.
        stats: optional :class:`~repro.datalog.naive.EngineStats`; every
            round (the seeding pass included) adds to ``iterations`` and
            its rule evaluations to ``rule_firings``.

    Returns:
        Every new fact derived, keyed by predicate (under *best*, facts
        displaced later in the run included).
    """
    predicates = set(clique_predicates)
    produced: Dict[PredicateKey, List[Fact]] = {}
    deltas: Dict[PredicateKey, List[Fact]] = {}
    if seed_deltas is None:
        seed_span = (
            tracer.span("saturation-round", phase="saturate", seed=True)
            if tracer
            else NULL_SPAN
        )
        with seed_span:
            for rule in rules:
                new_facts = evaluate_rule_once(
                    rule, db, cache=cache, tracer=tracer, best=best
                )
                if new_facts:
                    key = rule.head.key
                    produced.setdefault(key, []).extend(new_facts)
                    if key in predicates:
                        deltas.setdefault(key, []).extend(new_facts)
        if stats is not None:
            stats.iterations += 1
            stats.rule_firings += len(rules)
        if best is not None:
            deltas = _live(deltas, db)
    else:
        for key, facts in seed_deltas.items():
            if facts:
                deltas.setdefault(key, []).extend(facts)

    traced = tracer is not None and tracer.enabled
    variants = delta_variants(rules, predicates)
    while deltas:
        if governor is not None:
            governor.tick_round()
        if _FAULT_HOOK is not None:
            _FAULT_HOOK("engine.saturate")
        delta_relations = {
            key: _as_relation(key, facts) for key, facts in deltas.items()
        }
        next_deltas: Dict[PredicateKey, List[Fact]] = {}
        round_span = (
            tracer.span(
                "saturation-round",
                phase="saturate",
                delta_facts=sum(len(f) for f in deltas.values()),
            )
            if tracer
            else NULL_SPAN
        )
        with round_span:
            fired = 0
            for rule, index, key in variants:
                delta_rel = delta_relations.get(key)
                if delta_rel is None:
                    continue
                fired += 1
                firing = (
                    tracer.span("rule-firing", head=str(rule.head), delta=key[0])
                    if traced
                    else NULL_SPAN
                )
                with firing:
                    plan = _plan(rule, db, cache, EXTREMA_DROP, delta_index=index)
                    facts = plan.consequences(db, delta_relation=delta_rel)
                    fresh = _derive(rule, facts, db, best)
                    firing.note(solutions=len(facts), new_facts=len(fresh))
                if fresh:
                    head_key = rule.head.key
                    produced.setdefault(head_key, []).extend(fresh)
                    if head_key in predicates:
                        next_deltas.setdefault(head_key, []).extend(fresh)
            round_span.note(rule_firings=fired)
        if stats is not None:
            stats.iterations += 1
            stats.rule_firings += fired
        deltas = next_deltas if best is None else _live(next_deltas, db)
    return produced


def evaluate_plain_clique(
    clique: Clique,
    db: Database,
    cache: PlanCache,
    tracer: Tracer | None = None,
    governor: Any = None,
    stats: Any = None,
    program: Program | None = None,
) -> Tuple[int, Optional[int]]:
    """Evaluate one plain (choice- and next-free) clique over *db*.

    A non-recursive clique is a single pass of :func:`evaluate_rule_once`
    per rule (extrema applied per firing).  A recursive clique runs
    :func:`saturate`; its extrema must be premappable
    (:func:`repro.core.rewriting.premappable_extrema`) and are applied
    under ``cache.extrema``:

    * ``"pushdown"`` — through a :class:`~repro.core.extrema_lattice.BestTable`
      insert filter, seeded from the facts already present (embedded
      ground facts, checkpoint-resumed state), dominated ones retracted;
    * ``"post"`` — the legacy shape: saturate with extrema dropped, then
      retract every fact that is not its group's best.  Model-for-model
      identical on premappable cliques (that is the premappability
      theorem), kept as the differential baseline.

    Both policies keep ties, matching :func:`extrema_filter`.  A traced
    extrema clique emits one ``extrema-pushdown`` event.  Negation or
    non-premappable extrema through the recursion raise
    :class:`~repro.errors.StratificationError` (that is what stage
    cliques are for); *program* numbers the offending rule.

    Args:
        stats: passed to :func:`saturate`; a non-recursive clique counts
            one iteration and one firing per rule on it.

    Returns:
        ``(derived, pruned)``: the facts derived (under pushdown, facts
        displaced later included) and the facts the extremum removed —
        ``None`` when the clique has no recursive extrema, so engines
        publish ``facts_pruned_extrema`` only for runs that have some.
    """
    rules = clique.rules
    if not clique.is_recursive:
        if stats is not None:
            stats.iterations += 1
            stats.rule_firings += len(rules)
        derived = 0
        for rule in rules:
            derived += len(evaluate_rule_once(rule, db, cache=cache, tracer=tracer))
        return derived, None
    specs = None
    if any(rule.extrema_goals for rule in rules):
        specs = premappable_extrema(rules, clique.predicates)
        if specs is None:
            offender = next(r for r in rules if r.extrema_goals)
            raise StratificationError(
                f"extrema through recursion outside a stage clique in "
                f"{clique_label(clique)} is not premappable: "
                f"{rule_label(program, offender)}"
            )
    else:
        for rule in rules:
            for literal in rule.body:
                if isinstance(literal, Negation) and literal.atom.key in clique.predicates:
                    raise StratificationError(
                        f"negation through recursion outside a stage clique in "
                        f"{clique_label(clique)}: {rule_label(program, rule)}"
                    )
    policy = cache.extrema
    best = BestTable(specs) if specs is not None and policy == "pushdown" else None
    if best is not None:
        for key in specs:
            relation = db.relation(key[0], key[1])
            for fact in list(relation):
                accepted, displaced = best.observe(key, fact)
                if not accepted:
                    relation.discard(fact)
                for old in displaced:
                    relation.discard(old)
    produced = saturate(
        rules,
        clique.predicates,
        db,
        cache=cache,
        tracer=tracer,
        governor=governor,
        best=best,
        stats=stats,
    )
    derived = sum(len(facts) for facts in produced.values())
    if specs is None:
        return derived, None
    if best is not None:
        pruned = best.pruned
    else:
        pruned = 0
        for key, spec in specs.items():
            relation = db.relation(key[0], key[1])
            for fact in dominated_facts(relation, spec):
                relation.discard(fact)
                pruned += 1
    if tracer is not None and tracer.enabled:
        tracer.event(
            "extrema-pushdown",
            clique=clique_label(clique),
            policy=policy,
            predicates=sorted(f"{n}/{a}" for n, a in specs),
            pruned=pruned,
        )
    return derived, pruned


def compile_clique(clique: Clique, cache: PlanCache, db: Database) -> None:
    """Compile into *cache* every plan :func:`evaluate_plain_clique` asks
    for on *clique*: each rule's full plan and one delta-first plan per
    occurrence of a clique predicate in a body.  Engines that register
    their plans' indices before evaluating call this up front."""
    for rule in clique.rules:
        cache.plan(rule, drop=EXTREMA_DROP, db=db)
    for rule, index, _ in delta_variants(clique.rules, clique.predicates):
        cache.plan(rule, delta_index=index, drop=EXTREMA_DROP, db=db)


def delta_variants(
    rules: Sequence[Rule], predicates: Set[PredicateKey]
) -> List[Tuple[Rule, int, PredicateKey]]:
    """One ``(rule, body index, predicate)`` triple per occurrence of a
    *predicates* atom in a rule body — the delta-driven firings."""
    variants: List[Tuple[Rule, int, PredicateKey]] = []
    for rule in rules:
        for index, literal in enumerate(rule.body):
            if isinstance(literal, Atom) and literal.key in predicates:
                variants.append((rule, index, literal.key))
    return variants


def _plan(
    rule: Rule,
    db: Database,
    cache: PlanCache | None,
    drop: Tuple[type, ...],
    bound: frozenset = frozenset(),
    delta_index: int | None = None,
) -> CompiledPlan:
    if cache is not None:
        return cache.plan(rule, delta_index=delta_index, bound=bound, drop=drop, db=db)
    literals = [
        (literal, index)
        for index, literal in enumerate(rule.body)
        if not isinstance(literal, drop)
    ]
    return compile_plan(
        literals,
        initially_bound=bound,
        delta_index=delta_index,
        head_args=rule.head.args,
        db=db,
    )


def _derive(
    rule: Rule, facts: List[Fact], db: Database, best: BestTable | None
) -> List[Fact]:
    """Add *rule*'s head *facts* to *db*, through *best* when given;
    returns the facts that were new."""
    head = rule.head
    relation = db.relation(head.pred, head.arity)
    new_facts: List[Fact] = []
    if best is None:
        add = relation.add
        for fact in facts:
            if add(fact):
                new_facts.append(fact)
        return new_facts
    key = (head.pred, head.arity)
    observe = best.observe
    for fact in facts:
        accepted, displaced = observe(key, fact)
        if not accepted:
            continue
        for old in displaced:
            relation.discard(old)
        if relation.add(fact):
            new_facts.append(fact)
    return new_facts


def _live(
    deltas: Dict[PredicateKey, List[Fact]], db: Database
) -> Dict[PredicateKey, List[Fact]]:
    """*deltas* without the facts a better insert has displaced from the
    database since they were derived: a displaced fact must not drive a
    round (it would extend a dominated chain)."""
    live: Dict[PredicateKey, List[Fact]] = {}
    for key, facts in deltas.items():
        relation = db.relation(key[0], key[1])
        kept = [fact for fact in facts if fact in relation]
        if kept:
            live[key] = kept
    return live


def _as_relation(key: PredicateKey, facts: List[Fact]) -> Relation:
    relation = Relation(f"Δ{key[0]}", key[1])
    for fact in facts:
        relation.add(fact)
    return relation


_MISSING = object()
