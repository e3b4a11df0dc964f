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
* :class:`BestTable` — the per-group current-best table every batch of
  inserts passes during pushdown evaluation.  Ties are kept (matching
  :func:`~repro.core.clique_eval.extrema_filter`): a fact whose cost
  equals the group's best survives alongside it.

The static half — deciding whether a clique *is* premappable — lives in
:func:`repro.core.rewriting.premappable_extrema`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.datalog.builtins import order_key
from repro.storage.relation import Keyer, projection

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
        group_of: a fact's group key (its values at *group_positions*),
            built once from them.
        cost_of: a fact's cost value (its value at *cost_position*).
        better: whether (order-keyed) cost *a* strictly beats *b*:
            ``<`` for least, ``>`` for most.
    """

    predicate: PredicateKey
    cost_position: int
    group_positions: Tuple[int, ...]
    direction: str
    group_of: Keyer = field(init=False, repr=False, compare=False)
    cost_of: Callable[[Fact], Any] = field(init=False, repr=False, compare=False)
    better: Callable[[Any, Any], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "group_of", projection(self.group_positions))
        setattr_(self, "cost_of", itemgetter(self.cost_position))
        setattr_(
            self, "better", operator.lt if self.direction == "least" else operator.gt
        )


class BestTable:
    """Per-group current-best facts for the predicates of one clique.

    For each predicate covered by a :class:`PremapSpec`, the table maps
    each group key to the best cost seen so far and the set of facts
    attaining it (ties are kept).  :meth:`filter` implements the pushdown
    insert discipline on a batch: a dominated new fact is rejected, a
    dominating new fact displaces the group's previous holders (which the
    caller retracts from the database and any pending deltas).
    :meth:`observe` is its one-fact case.

    ``pruned`` counts the facts the table has ruled out: rejected
    observations plus displaced holders.
    """

    def __init__(self, specs: Dict[PredicateKey, PremapSpec]):
        self.specs = specs
        self.pruned = 0
        # predicate -> group -> [best order-key, set of facts at that key]
        self._groups: Dict[PredicateKey, Dict[Tuple[Any, ...], List[Any]]] = {
            key: {} for key in specs
        }

    def filter(
        self, predicate: PredicateKey, facts: Iterable[Fact]
    ) -> Tuple[List[Fact], List[Fact]]:
        """Record *facts*, in order, against their groups' current best.

        Returns ``(accepted, displaced)``: *accepted* lists, in order, the
        facts that were not strictly dominated when read (ties kept), and
        *displaced* the holders a later fact strictly dominated — a fact
        accepted earlier in the batch included.  The caller inserts
        *accepted* and then retracts *displaced*: a group's best only
        improves, so no displaced fact is accepted again, and this leaves
        a relation as observing, inserting and retracting fact by fact
        would.
        """
        spec = self.specs[predicate]
        groups = self._groups[predicate]
        group_of, cost_of, better = spec.group_of, spec.cost_of, spec.better
        accepted: List[Fact] = []
        displaced: List[Fact] = []
        pruned = 0
        for fact in facts:
            group = group_of(fact)
            cost = order_key(cost_of(fact))
            entry = groups.get(group)
            if entry is None:
                groups[group] = [cost, {fact}]
            elif cost == entry[0]:
                entry[1].add(fact)
            elif better(cost, entry[0]):
                holders = entry[1]
                displaced.extend(holders)
                pruned += len(holders)
                groups[group] = [cost, {fact}]
            else:
                pruned += 1
                continue
            accepted.append(fact)
        self.pruned += pruned
        return accepted, displaced

    def observe(self, predicate: PredicateKey, fact: Fact) -> Tuple[bool, List[Fact]]:
        """Record one *fact*: :meth:`filter` on a batch of one.

        Returns ``(accepted, displaced)``: *accepted* is ``False`` when the
        fact is strictly dominated (drop it); *displaced* lists the facts
        the insert strictly dominated (retract them).
        """
        accepted, displaced = self.filter(predicate, (fact,))
        return bool(accepted), displaced

    def best_cost(self, predicate: PredicateKey, group: Tuple[Any, ...]) -> Any:
        """The current best order-key for *group*, or ``None``."""
        entry = self._groups[predicate].get(group)
        return entry[0] if entry is not None else None


def dominated_facts(facts: Iterable[Fact], spec: PremapSpec) -> List[Fact]:
    """The facts that do not attain their group's best cost (ties kept).

    This is the "post" half of the policy equivalence: retracting exactly
    these facts after full saturation yields the same relation pushdown
    maintains incrementally.  A fact attains its group's best exactly
    when a :class:`BestTable` fed every fact accepts it and never
    displaces it.
    """
    materialised = list(facts)
    accepted, displaced = BestTable({spec.predicate: spec}).filter(
        spec.predicate, materialised
    )
    best = set(accepted).difference(displaced)
    return [fact for fact in materialised if fact not in best]
