"""Monotonic aggregate lattice for premappable extrema.

Zaniolo et al. ("Fixpoint Semantics and Optimization of Recursive Datalog
Programs with Aggregates", PAPERS.md) prove that ``min``/``max`` are
*premappable*: when the group-by arguments cover the recursion's key and
the cost argument propagates monotonically through the rule bodies, the
extremum commutes with the fixpoint — ``γ(lfp(T)) = lfp(γ ∘ T)`` — so
dominated facts can be pruned the moment a better one exists instead of
after full saturation.

This module holds the runtime half of that optimisation:

* :class:`PremapSpec` — the per-predicate shape a premappable clique
  settles on (which head position carries the cost, which positions form
  the group, and the direction of the extremum);
* :class:`BestTable` — the per-group current-best table consulted on every
  insert during pushdown evaluation.  Ties are kept (matching
  :func:`~repro.core.clique_eval.extrema_filter`): a fact whose cost
  equals the group's best survives alongside it.

The static half — deciding whether a clique *is* premappable — lives in
:func:`repro.core.rewriting.premappable_extrema`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.datalog.builtins import order_key

__all__ = ["PremapSpec", "BestTable", "dominated_facts"]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]


@dataclass(frozen=True)
class PremapSpec:
    """The extremum shape of one predicate in a premappable clique.

    Attributes:
        predicate: the ``(name, arity)`` key the spec applies to.
        cost_position: head argument position carrying the cost value.
        group_positions: head argument positions forming the group key
            (every other position is the cost or a per-rule constant).
        direction: ``"least"`` (minimise) or ``"most"`` (maximise).
    """

    predicate: PredicateKey
    cost_position: int
    group_positions: Tuple[int, ...]
    direction: str

    def group_of(self, fact: Fact) -> Tuple[Any, ...]:
        return tuple(fact[p] for p in self.group_positions)

    def cost_of(self, fact: Fact) -> Any:
        return fact[self.cost_position]

    def better(self, a: Any, b: Any) -> bool:
        """Whether (order-keyed) cost *a* strictly beats *b*."""
        return a < b if self.direction == "least" else a > b


class BestTable:
    """Per-group current-best facts for the predicates of one clique.

    For each predicate covered by a :class:`PremapSpec`, the table maps
    each group key to the best cost seen so far and the set of facts
    attaining it (ties are kept).  :meth:`observe` implements the pushdown
    insert discipline: a dominated new fact is rejected, a dominating new
    fact displaces the group's previous holders (which the caller retracts
    from the database and any pending deltas).

    ``pruned`` counts the facts :meth:`observe` has ruled out: rejected
    observations plus displaced holders.
    """

    def __init__(self, specs: Dict[PredicateKey, PremapSpec]):
        self.specs = specs
        self.pruned = 0
        # predicate -> group -> [best order-key, set of facts at that key]
        self._groups: Dict[PredicateKey, Dict[Tuple[Any, ...], List[Any]]] = {
            key: {} for key in specs
        }

    def observe(self, predicate: PredicateKey, fact: Fact) -> Tuple[bool, List[Fact]]:
        """Record *fact* against its group's current best.

        Returns ``(accepted, displaced)``: *accepted* is ``False`` when the
        fact is strictly dominated (drop it); *displaced* lists the facts
        the insert strictly dominated (retract them).
        """
        spec = self.specs[predicate]
        groups = self._groups[predicate]
        group = spec.group_of(fact)
        cost = order_key(spec.cost_of(fact))
        entry = groups.get(group)
        if entry is None:
            groups[group] = [cost, {fact}]
            return True, []
        best, holders = entry
        if cost == best:
            holders.add(fact)
            return True, []
        if spec.better(cost, best):
            displaced = list(holders)
            groups[group] = [cost, {fact}]
            self.pruned += len(displaced)
            return True, displaced
        self.pruned += 1
        return False, []

    def best_cost(self, predicate: PredicateKey, group: Tuple[Any, ...]) -> Any:
        """The current best order-key for *group*, or ``None``."""
        entry = self._groups[predicate].get(group)
        return entry[0] if entry is not None else None


def dominated_facts(facts: Iterable[Fact], spec: PremapSpec) -> List[Fact]:
    """The facts that do not attain their group's best cost (ties kept).

    This is the "post" half of the policy equivalence: retracting exactly
    these facts after full saturation yields the same relation pushdown
    maintains incrementally.
    """
    materialised = list(facts)
    bests: Dict[Tuple[Any, ...], Any] = {}
    for fact in materialised:
        group = spec.group_of(fact)
        cost = order_key(spec.cost_of(fact))
        best = bests.get(group, _MISSING)
        if best is _MISSING or spec.better(cost, best):
            bests[group] = cost
    return [
        fact
        for fact in materialised
        if order_key(spec.cost_of(fact)) != bests[spec.group_of(fact)]
    ]


_MISSING = object()
