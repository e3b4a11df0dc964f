"""The (R, Q, L) storage structure of Section 6.

For a ``next`` rule *r* whose body is::

    next(I), p(X̄, J), [J < I, least(C, I)], [choice goals]

the structure ``D_r = (R_r, Q_r, L_r)`` maintains the candidate facts of
``p``:

* ``Q_r`` — a priority queue of candidate facts ordered by the cost
  argument (or FIFO when the rule has no extremum), deduplicated up to
  *r-congruence*;
* ``L_r`` — the congruence classes of facts already used to fire *r*;
* ``R_r`` — the redundant facts (congruent to a used fact, dominated by a
  cheaper congruent fact, or rejected at retrieval time).

Two ``p``-facts are *r-congruent* when they agree on every argument
except the stage arguments, the cost argument, and the attributes that
are functionally determined by the rule's choice goals (an argument
counts as determined only if its variable never occurs on the *left* of a
choice goal — in Prim's ``choice(Y, X)`` the source ``X`` is determined
by the target ``Y``, so the frontier keeps one entry per target vertex,
while in matching's ``choice(Y, X), choice(X, Y)`` both endpoints are
keys and every arc keeps its own entry, as in the paper's analysis).

Insertion and retrieve-least are both ``O(log |Q|)``
(:class:`~repro.storage.heap.PriorityQueue` plus a hash map from
congruence signatures to live heap entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.datalog.builtins import order_key
from repro.storage.heap import HeapEntry, PriorityQueue
from repro.storage.relation import projection

__all__ = ["RQLStructure", "CongruenceSpec", "RQLStats"]

Fact = Tuple[Any, ...]


@dataclass(frozen=True)
class CongruenceSpec:
    """How to read a candidate fact.

    Attributes:
        arity: arity of the candidate predicate.
        signature_positions: argument positions forming the r-congruence
            signature.
        cost_position: position of the ``least``/``most`` cost argument,
            or ``None`` for rules without an extremum (FIFO retrieval).
        maximize: ``True`` for ``most`` (retrieve the greatest cost).
        signature: the fact's congruence signature, its projection on
            ``signature_positions`` (built once, not a field).
    """

    arity: int
    signature_positions: Tuple[int, ...]
    cost_position: Optional[int] = None
    maximize: bool = False
    signature: Callable[[Fact], Tuple[Any, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature", projection(self.signature_positions))

    def priority(self, fact: Fact) -> Any:
        if self.cost_position is None:
            return 0
        key = order_key(fact[self.cost_position])
        return _Reversed(key) if self.maximize else key

    def beats(self, fact: Fact, other: Fact) -> bool:
        """Whether *fact* should replace a congruent *other* in the queue."""
        if self.cost_position is None:
            return False
        a = order_key(fact[self.cost_position])
        b = order_key(other[self.cost_position])
        return a > b if self.maximize else a < b


@dataclass(frozen=True)
class _Reversed:
    """Order-reversing wrapper so ``most`` can ride the same min-heap."""

    key: Any

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __le__(self, other: "_Reversed") -> bool:
        return other.key <= self.key


@dataclass
class RQLStats:
    """Operation counters (used by the complexity experiments)."""

    inserted: int = 0
    replaced: int = 0
    redundant: int = 0
    retrieved: int = 0
    rejected_at_retrieval: int = 0


class RQLStructure:
    """The per-rule candidate store ``D_r = (R_r, Q_r, L_r)``.

    The insertion procedure follows the paper verbatim: a fact congruent
    to an ``L_r`` member is redundant; a fact congruent to a queue member
    keeps whichever is cheaper and retires the other to ``R_r``; anything
    else enters ``Q_r``.  :meth:`pop` retrieves the least (or greatest,
    for ``most``) fact; the caller applies the choice/body admissibility
    test and reports the verdict through :meth:`mark_used` /
    :meth:`mark_redundant`.
    """

    def __init__(self, spec: CongruenceSpec, keep_redundant: bool = False):
        self.spec = spec
        self.queue: PriorityQueue[Fact] = PriorityQueue()
        self.stats = RQLStats()
        self._entries: Dict[Tuple[Any, ...], HeapEntry[Fact]] = {}
        self._used: Set[Tuple[Any, ...]] = set()
        self._seen: Set[Fact] = set()
        self._keep_redundant = keep_redundant
        self._redundant: List[Fact] = []

    def __len__(self) -> int:
        """Number of live queue entries."""
        return len(self.queue)

    # -- insertion ------------------------------------------------------------

    def insert(self, fact: Fact) -> bool:
        """Insert a candidate fact; returns ``True`` iff it entered ``Q_r``.

        Duplicate facts (already inserted once) are ignored outright.
        """
        if fact in self._seen:
            return False
        self._seen.add(fact)
        signature = self.spec.signature(fact)
        if signature in self._used:
            self._retire(fact)
            return False
        existing = self._entries.get(signature)
        if existing is not None and existing.alive:
            if self.spec.beats(fact, existing.item):
                self.queue.delete(existing)
                self._retire(existing.item)
                self._entries[signature] = self.queue.insert(
                    self.spec.priority(fact), fact
                )
                self.stats.inserted += 1
                self.stats.replaced += 1
                return True
            self._retire(fact)
            return False
        self._entries[signature] = self.queue.insert(self.spec.priority(fact), fact)
        self.stats.inserted += 1
        return True

    # -- retrieval -------------------------------------------------------------

    def pop(self) -> Optional[Fact]:
        """Remove and return the extremal candidate, or ``None`` if empty."""
        while self.queue:
            _, fact = self.queue.pop_least()
            signature = self.spec.signature(fact)
            self._entries.pop(signature, None)
            if signature in self._used:
                self._retire(fact)
                continue
            self.stats.retrieved += 1
            return fact
        return None

    def mark_used(self, fact: Fact) -> None:
        """Record that *fact* fired the rule: its congruence class moves to
        ``L_r``; congruent future candidates become redundant."""
        self._used.add(self.spec.signature(fact))

    def mark_redundant(self, fact: Fact) -> None:
        """Record that a popped fact failed the admissibility test."""
        self.stats.rejected_at_retrieval += 1
        self._retire(fact)

    # -- introspection ------------------------------------------------------------

    def publish(self, registry: Any, prefix: str) -> None:
        """Snapshot the operation counters and queue state into *registry*
        (a :class:`~repro.obs.metrics.MetricsRegistry`) under *prefix*.

        Called by the greedy engine when a clique finishes draining (and
        again after every :meth:`~repro.core.greedy_engine.GreedyStageEngine.extend`
        resume), so per-``next``-rule Q/L/R depths land next to the engine
        counters with zero hot-path cost — gauge semantics: later
        publishes overwrite."""
        stats = self.stats
        registry.set_counter(f"{prefix}/inserted", stats.inserted)
        registry.set_counter(f"{prefix}/replaced", stats.replaced)
        registry.set_counter(f"{prefix}/redundant", stats.redundant)
        registry.set_counter(f"{prefix}/retrieved", stats.retrieved)
        registry.set_counter(
            f"{prefix}/rejected_at_retrieval", stats.rejected_at_retrieval
        )
        registry.set_counter(f"{prefix}/queue_depth", len(self.queue))
        registry.set_counter(f"{prefix}/used_classes", len(self._used))

    # -- checkpointing -------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """A copy of the live structure, with unsorted seen/used sets.

        The queue is copied in tiebreak (insertion) order without its
        priorities — :meth:`load_state` recomputes them from the spec, so
        no priority wrapper ever has to survive serialization — and
        re-inserting in that order preserves equal-priority pop order.
        """
        entries = sorted(self.queue.live_entries(), key=attrgetter("tiebreak"))
        return {
            "queue": [entry.item for entry in entries],
            "seen": set(self._seen),
            "used": set(self._used),
            "stats": [
                self.stats.inserted,
                self.stats.replaced,
                self.stats.redundant,
                self.stats.retrieved,
                self.stats.rejected_at_retrieval,
            ],
        }

    @staticmethod
    def freeze_state(state: Dict[str, Any]) -> Dict[str, Any]:
        """The serializable form of a :meth:`snapshot_state`: seen and
        used sets sorted by ``order_key``."""
        return {
            "queue": list(state["queue"]),
            "seen": sorted(state["seen"], key=order_key),
            "used": sorted(state["used"], key=order_key),
            "stats": list(state["stats"]),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Overwrite the structure with a :meth:`freeze_state` snapshot
        (captured under the same :class:`CongruenceSpec`)."""
        self.queue.clear()
        self._entries.clear()
        self._seen = {tuple(fact) for fact in state["seen"]}
        self._used = {tuple(signature) for signature in state["used"]}
        for fact in state["queue"]:
            fact = tuple(fact)
            signature = self.spec.signature(fact)
            self._entries[signature] = self.queue.insert(
                self.spec.priority(fact), fact
            )
        counters = list(state.get("stats", ()))
        if len(counters) == 5:
            (
                self.stats.inserted,
                self.stats.replaced,
                self.stats.redundant,
                self.stats.retrieved,
                self.stats.rejected_at_retrieval,
            ) = counters

    @property
    def used_count(self) -> int:
        return len(self._used)

    @property
    def redundant_facts(self) -> List[Fact]:
        """The retired facts (only retained with ``keep_redundant=True``)."""
        return list(self._redundant)

    def _retire(self, fact: Fact) -> None:
        self.stats.redundant += 1
        if self._keep_redundant:
            self._redundant.append(fact)
