"""The per-unit maintenance algorithms behind :class:`MaterializedView`.

A *unit* is one clique of the stage analysis; the view dispatches each
touched unit to one of the algorithms here:

* **counting** (non-recursive, extrema-free) — every stored fact carries
  its derivation count (:meth:`Relation.add_support`).  When the batch's
  net changes hit a rule at exactly one positive body position and the
  rule references no other changed predicate, a single run of the
  delta-specialized plan is an *exact* count delta (other literals read
  identical state old vs new, and
  :meth:`~repro.datalog.plans.CompiledPlan.consequences` yields one head
  fact per solution, duplicates included); any harder shape falls back to a full recount of the
  unit, which is still just a diff against the stored counts.
* **DRed** (recursive, extrema-free) — delete-closure over the delta
  plans (with the removed inputs temporarily re-added, so instantiations
  joining two removed facts are not missed), targeted per-fact
  rederivation, then a seminaive insert pass seeded by the rederived
  facts and the inserted inputs.
* **extrema repair** (recursive, premappable) — the delete-closure, then
  a per-affected-group rebuild of the
  :class:`~repro.core.extrema_lattice.BestTable` with a runner-up
  *ledger*: facts observed-but-dominated during earlier maintenance are
  retained with hit counts and re-validated first (cheap, head-bound
  body checks) when their group's best is deleted; a full per-group
  rederivation then restores completeness (delta-only rounds are not
  complete here — an instantiation rejected by the old, now-deleted best
  may carry no delta), and delta-seeded pushdown rounds absorb inserted
  inputs.  Premappability is what makes deletion repair sound: every
  retained fact has a derivation tree entirely inside the pruned model,
  so survivors of the delete-closure stay valid.

Every entry point fires its :data:`~repro.robust.faults.INCREMENTAL_SITES`
hook *before* mutating derived state.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.clique_eval import (
    EXTREMA_DROP,
    _as_relation,
    body_solutions,
    delta_variants,
    evaluate_plain_clique,
    saturate,
)
from repro.core.extrema_lattice import BestTable, PremapSpec
from repro.datalog.atoms import Atom, Negation, NegatedConjunction
from repro.datalog.dependency import Clique
from repro.datalog.plans import PlanCache
from repro.datalog.rules import Rule
from repro.datalog.unify import ground_term, match_args, match_term
from repro.incremental import hooks
from repro.storage.database import Database

__all__ = [
    "DeltaPair",
    "counting_plan",
    "apply_counting_delta",
    "recount",
    "load_counting",
    "delete_closure",
    "apply_dred",
    "apply_extrema",
    "recompute_unit",
    "changed_under_negation",
    "LEDGER_CAP",
]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]
#: ``(added, removed)`` net fact sets for one predicate.
DeltaPair = Tuple[Set[Fact], Set[Fact]]
#: ``{(predicate, group): {fact: dominated-observation count}}``.
Ledger = Dict[Tuple[PredicateKey, Tuple[Any, ...]], Dict[Fact, int]]

#: Runner-up facts retained per extrema group (best costs win eviction).
LEDGER_CAP = 8


def changed_under_negation(
    rules: Sequence[Rule], changed_keys: Set[PredicateKey]
) -> bool:
    """Whether any changed predicate occurs negated (directly or inside a
    negated conjunction) in *rules* — the delta algorithms are only exact
    for positive occurrences, so this forces a full unit recompute."""
    if not changed_keys:
        return False
    for rule in rules:
        for literal in rule.body:
            if isinstance(literal, Negation) and literal.atom.key in changed_keys:
                return True
            if isinstance(literal, NegatedConjunction):
                for inner in literal.literals:
                    if isinstance(inner, Atom) and inner.key in changed_keys:
                        return True
                    if (
                        isinstance(inner, Negation)
                        and inner.atom.key in changed_keys
                    ):
                        return True
    return False


# -- counting (non-recursive, extrema-free) -------------------------------------


def counting_plan(
    rules: Sequence[Rule], changed_keys: Set[PredicateKey]
) -> Optional[Dict[int, Tuple[PredicateKey, int]]]:
    """The exact-delta plan ``{id(rule): (changed key, body index)}`` for
    affected rules, or ``None`` when any rule needs the full recount
    (a changed predicate at several positions, two changed predicates in
    one body, or a changed predicate under negation)."""
    plan: Dict[int, Tuple[PredicateKey, int]] = {}
    for rule in rules:
        occurrence: Optional[Tuple[PredicateKey, int]] = None
        for index, literal in enumerate(rule.body):
            if isinstance(literal, Atom) and literal.key in changed_keys:
                if occurrence is not None:
                    return None
                occurrence = (literal.key, index)
            elif isinstance(literal, Negation) and literal.atom.key in changed_keys:
                return None
            elif isinstance(literal, NegatedConjunction):
                for inner in literal.literals:
                    inner_atom = (
                        inner if isinstance(inner, Atom)
                        else inner.atom if isinstance(inner, Negation)
                        else None
                    )
                    if inner_atom is not None and inner_atom.key in changed_keys:
                        return None
        if occurrence is not None:
            plan[id(rule)] = occurrence
    return plan


def apply_counting_delta(
    rules: Sequence[Rule],
    plan: Dict[int, Tuple[PredicateKey, int]],
    changed: Dict[PredicateKey, DeltaPair],
    db: Database,
    cache: PlanCache,
) -> int:
    """Apply exact support-count deltas per the :func:`counting_plan`;
    returns the number of delta derivations processed."""
    hooks.fire("incremental.count")
    processed = 0
    for rule in rules:
        occurrence = plan.get(id(rule))
        if occurrence is None:
            continue
        key, index = occurrence
        added, removed = changed[key]
        head = rule.head
        relation = db.relation(head.pred, head.arity)
        compiled = cache.plan(rule, delta_index=index, db=db)
        for facts, sign in ((removed, -1), (added, +1)):
            if not facts:
                continue
            delta_rel = _as_relation(key, list(facts))
            for fact in compiled.consequences(db, delta_relation=delta_rel):
                if sign < 0:
                    relation.drop_support(fact)
                else:
                    relation.add_support(fact)
                processed += 1
    return processed


def recount(
    rules: Sequence[Rule],
    writes: FrozenSet[PredicateKey],
    ground: Dict[PredicateKey, Set[Fact]],
    db: Database,
    cache: PlanCache,
) -> None:
    """Full recount of a counting unit: evaluate every rule, tally exact
    derivation counts per head fact (plus one *ground baseline* per fact
    asserted by the program text, which persists with zero derivations),
    and reconcile the stored supports against the tally."""
    hooks.fire("incremental.count")
    counts: Dict[PredicateKey, Counter] = {key: Counter() for key in writes}
    for key, facts in ground.items():
        if key in counts:
            for fact in facts:
                counts[key][fact] += 1
    for rule in rules:
        head = rule.head
        tally = counts[head.key]
        for subst in body_solutions(rule, db, cache=cache):
            tally[tuple(ground_term(arg, subst) for arg in head.args)] += 1
    for key in writes:
        relation = db.relation(key[0], key[1])
        target = counts[key]
        for fact in set(relation) | set(target):
            relation.set_support(fact, target.get(fact, 0))


def load_counting(
    rules: Sequence[Rule],
    writes: FrozenSet[PredicateKey],
    ground: Dict[PredicateKey, Set[Fact]],
    db: Database,
    cache: PlanCache,
) -> None:
    """Initial evaluation of a counting unit (the ground facts are
    already asserted): identical to :func:`recount`, which is exactly a
    from-scratch count when no supports are stored yet."""
    recount(rules, writes, ground, db, cache)


# -- DRed (recursive, extrema-free) ---------------------------------------------


def delete_closure(
    rules: Sequence[Rule],
    predicates: FrozenSet[PredicateKey],
    removed_inputs: Dict[PredicateKey, Set[Fact]],
    db: Database,
    cache: PlanCache,
) -> Set[Tuple[PredicateKey, Fact]]:
    """The facts of *predicates* with at least one derivation through a
    removed input — the DRed over-approximation of what deletion kills.

    The removed inputs are temporarily **re-added** for the duration of
    the closure computation: a delta-pinned plan reads the full database
    at its non-delta positions, so an instantiation that joined *two*
    removed facts would otherwise be missed (under-deletion).  Closure
    facts stay in the database while the closure grows, for the same
    reason; the caller removes them afterwards.  Plans drop extrema
    goals, as every kernel plan does, so the closure and the insert pass
    share them.
    """
    for key, facts in removed_inputs.items():
        relation = db.relation(key[0], key[1])
        for fact in facts:
            relation.add(fact)
    carrying = set(predicates) | set(removed_inputs)
    variants = delta_variants(rules, carrying)
    deltas: Dict[PredicateKey, Set[Fact]] = {
        key: set(facts) for key, facts in removed_inputs.items()
    }
    closure: Set[Tuple[PredicateKey, Fact]] = set()
    while deltas:
        delta_relations = {
            key: _as_relation(key, list(facts)) for key, facts in deltas.items()
        }
        next_deltas: Dict[PredicateKey, Set[Fact]] = {}
        for rule, index, key in variants:
            delta_rel = delta_relations.get(key)
            if delta_rel is None:
                continue
            plan = cache.plan(rule, delta_index=index, drop=EXTREMA_DROP, db=db)
            head = rule.head
            relation = db.relation(head.pred, head.arity)
            for fact in plan.consequences(db, delta_relation=delta_rel):
                if fact in relation and (head.key, fact) not in closure:
                    closure.add((head.key, fact))
                    next_deltas.setdefault(head.key, set()).add(fact)
        deltas = next_deltas
    for key, facts in removed_inputs.items():
        relation = db.relation(key[0], key[1])
        for fact in facts:
            relation.discard(fact)
    return closure


def apply_dred(
    rules: Sequence[Rule],
    predicates: FrozenSet[PredicateKey],
    ground: Dict[PredicateKey, Set[Fact]],
    changed: Dict[PredicateKey, DeltaPair],
    inputs: FrozenSet[PredicateKey],
    db: Database,
    cache: PlanCache,
    tracer: Any = None,
) -> Dict[str, int]:
    """Delete-rederive maintenance of a plain recursive unit.

    The caller has already established that no changed input occurs
    negated in the unit (that shape recomputes instead).  Returns repair
    counters (``invalidated`` / ``rederived``).
    """
    hooks.fire("incremental.rederive")
    changed_keys = set(changed) & set(inputs)
    removed_inputs = {
        key: set(changed[key][1]) for key in changed_keys if changed[key][1]
    }
    added_inputs = {
        key: list(changed[key][0]) for key in changed_keys if changed[key][0]
    }
    seeds: Dict[PredicateKey, List[Fact]] = {}
    invalidated = 0
    rederived = 0
    if removed_inputs:
        closure = delete_closure(rules, predicates, removed_inputs, db, cache)
        # Facts asserted by the program text are unconditionally derivable;
        # they never leave the model.
        closure = {
            (key, fact)
            for key, fact in closure
            if fact not in ground.get(key, frozenset())
        }
        if tracer is not None:
            tracer.event(
                "incremental-delete-closure",
                predicates=sorted(k[0] for k in predicates),
                facts=len(closure),
            )
        for key, fact in closure:
            db.relation(key[0], key[1]).discard(fact)
        invalidated = len(closure)
        for key, fact in sorted(closure, key=repr):
            for rule in rules:
                if rule.head.key != key:
                    continue
                initial = match_args(rule.head.args, fact, {})
                if initial is None:
                    continue
                if body_solutions(rule, db, initial=initial, cache=cache):
                    db.relation(key[0], key[1]).add(fact)
                    seeds.setdefault(key, []).append(fact)
                    rederived += 1
                    break
    for key, facts in added_inputs.items():
        if facts:
            seeds.setdefault(key, []).extend(facts)
    if seeds:
        # Non-clique input keys in the seeds are legal delta carriers:
        # saturate differentiates every predicate we name here.
        saturate(
            rules,
            set(predicates) | set(seeds),
            db,
            seed_deltas=seeds,
            cache=cache,
            tracer=tracer,
        )
    return {"invalidated": invalidated, "rederived": rederived}


# -- extrema repair (recursive, premappable) ------------------------------------


def _ledger_note(
    ledger: Ledger, spec: PremapSpec, key: PredicateKey, fact: Fact
) -> None:
    """Retain *fact* as a runner-up for its group, counting observations;
    worst-cost entries are evicted past :data:`LEDGER_CAP`."""
    slot = ledger.setdefault((key, spec.group_of(fact)), {})
    slot[fact] = slot.get(fact, 0) + 1
    if len(slot) > LEDGER_CAP:
        worst = max(slot, key=lambda f: _cost_rank(spec, f))
        del slot[worst]


def _cost_rank(spec: PremapSpec, fact: Fact) -> Any:
    from repro.datalog.builtins import order_key

    cost = order_key(spec.cost_of(fact))
    return cost if spec.direction == "least" else _Reversed(cost)


class _Reversed:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def apply_extrema(
    rules: Sequence[Rule],
    predicates: FrozenSet[PredicateKey],
    specs: Dict[PredicateKey, PremapSpec],
    ledger: Ledger,
    ground: Dict[PredicateKey, Set[Fact]],
    changed: Dict[PredicateKey, DeltaPair],
    inputs: FrozenSet[PredicateKey],
    db: Database,
    cache: PlanCache,
    tracer: Any = None,
) -> Dict[str, int]:
    """In-place repair of a premappable extrema unit; returns counters
    (``invalidated`` / ``rederived`` / ``ledger_promotions``)."""
    hooks.fire("incremental.repair")
    changed_keys = set(changed) & set(inputs)
    removed_inputs = {
        key: set(changed[key][1]) for key in changed_keys if changed[key][1]
    }
    added_inputs = {
        key: list(changed[key][0]) for key in changed_keys if changed[key][0]
    }
    invalidated = 0
    rederived = 0
    promotions = 0

    best = BestTable(specs)
    deltas: Dict[PredicateKey, Set[Fact]] = {}

    def observe_insert(key: PredicateKey, fact: Fact) -> bool:
        nonlocal invalidated
        relation = db.relation(key[0], key[1])
        accepted, displaced = best.observe(key, fact)
        if not accepted:
            _ledger_note(ledger, specs[key], key, fact)
            return False
        for old in displaced:
            if relation.discard(old):
                invalidated += 1
            _ledger_note(ledger, specs[key], key, old)
            pending = deltas.get(key)
            if pending is not None:
                pending.discard(old)
        if relation.add(fact):
            deltas.setdefault(key, set()).add(fact)
            return True
        return False

    def seed_table() -> None:
        for key in predicates:
            for fact in db.relation(key[0], key[1]):
                best.observe(key, fact)

    seed_table()

    if removed_inputs:
        closure = delete_closure(rules, predicates, removed_inputs, db, cache)
        closure = {
            (key, fact)
            for key, fact in closure
            if fact not in ground.get(key, frozenset())
        }
        if tracer is not None:
            tracer.event(
                "incremental-delete-closure",
                predicates=sorted(k[0] for k in predicates),
                facts=len(closure),
            )
        affected: Set[Tuple[PredicateKey, Tuple[Any, ...]]] = set()
        for key, fact in closure:
            db.relation(key[0], key[1]).discard(fact)
            affected.add((key, specs[key].group_of(fact)))
        invalidated += len(closure)
        # The table is stale for every group that lost a fact — rebuild
        # it from the survivors (premappability guarantees survivors are
        # still valid pruned-model facts).
        best = BestTable(specs)
        seed_table()
        for key, group in sorted(affected, key=repr):
            spec = specs[key]
            # Runner-up promotion: retained dominated observations are
            # re-validated cheapest-first with a fully head-bound body
            # check before the full group rederivation runs.
            candidates = sorted(
                ledger.get((key, group), {}),
                key=lambda f: _cost_rank(spec, f),
            )
            promoted: Optional[Fact] = None
            for candidate in candidates:
                if _derivable(rules, key, candidate, db, cache) and observe_insert(
                    key, candidate
                ):
                    promoted = candidate
                    rederived += 1
                    break
            inserted = 0
            for rule in rules:
                if rule.head.key != key:
                    continue
                initial: Optional[Dict[str, Any]] = {}
                for position, value in zip(spec.group_positions, group):
                    initial = match_term(rule.head.args[position], value, initial)
                    if initial is None:
                        break
                if initial is None:
                    continue
                for subst in body_solutions(
                    rule, db, initial=initial, drop=EXTREMA_DROP, cache=cache
                ):
                    fact = tuple(ground_term(arg, subst) for arg in rule.head.args)
                    if observe_insert(key, fact):
                        inserted += 1
            # Ground facts of the group may have been pruned before the
            # batch; they are unconditionally re-observable.
            for fact in ground.get(key, frozenset()):
                if spec.group_of(fact) == group:
                    if observe_insert(key, fact):
                        inserted += 1
            rederived += inserted
            if promoted is not None and promoted in db.relation(key[0], key[1]):
                promotions += 1
            # Entries that made it back into the model are no longer
            # runner-ups.
            slot = ledger.get((key, group))
            if slot:
                for fact in list(slot):
                    if fact in db.relation(key[0], key[1]):
                        del slot[fact]
                if not slot:
                    del ledger[(key, group)]

    # Insert phase: inserted inputs drive a first delta round, then
    # pushdown rounds continue from the (confluent) current best table.
    carrying = set(predicates) | set(added_inputs)
    variants = delta_variants(rules, carrying)
    pending: Dict[PredicateKey, Set[Fact]] = {
        key: set(facts) for key, facts in added_inputs.items() if facts
    }
    for key, facts in deltas.items():
        pending.setdefault(key, set()).update(facts)
    deltas = {}
    while pending:
        delta_relations = {
            key: _as_relation(key, list(facts))
            for key, facts in pending.items()
            if facts
        }
        if not delta_relations:
            break
        for rule, index, key in variants:
            delta_rel = delta_relations.get(key)
            if delta_rel is None:
                continue
            plan = cache.plan(rule, delta_index=index, drop=EXTREMA_DROP, db=db)
            head_key = rule.head.key
            for fact in plan.consequences(db, delta_relation=delta_rel):
                observe_insert(head_key, fact)
        pending, deltas = deltas, {}
    return {
        "invalidated": invalidated,
        "rederived": rederived,
        "ledger_promotions": promotions,
    }


def _derivable(
    rules: Sequence[Rule],
    key: PredicateKey,
    fact: Fact,
    db: Database,
    cache: PlanCache,
) -> bool:
    for rule in rules:
        if rule.head.key != key:
            continue
        initial = match_args(rule.head.args, fact, {})
        if initial is None:
            continue
        if body_solutions(rule, db, initial=initial, drop=EXTREMA_DROP, cache=cache):
            return True
    return False


# -- full unit recompute --------------------------------------------------------


def recompute_unit(
    clique: Clique,
    ground: Dict[PredicateKey, Set[Fact]],
    db: Database,
    cache: PlanCache,
    tracer: Any = None,
) -> None:
    """Clear a plain unit's write relations, re-assert its program-text
    ground facts, and evaluate from scratch — the fallback every delta
    algorithm reduces to when its exactness conditions fail."""
    for key in clique.predicates:
        db.relation(key[0], key[1]).clear()
    for key in clique.predicates:
        relation = db.relation(key[0], key[1])
        for fact in ground.get(key, frozenset()):
            relation.add(fact)
    evaluate_plain_clique(clique, db, cache, tracer=tracer)
