"""Hash-indexed in-memory relations.

The complexity analysis in Section 6 of the paper is stated "assuming
availability of indices": looking up the tuples of a predicate that match a
partially bound argument pattern must cost time proportional to the number
of matches, not to the size of the relation.  :class:`Relation` provides
exactly that — a set of ground tuples plus hash indices, built lazily per
binding pattern and maintained incrementally on insertion.

Ground values are plain hashable Python objects (``int``, ``float``,
``str``, ``None`` and nested tuples for function terms), so a fact is just
a ``tuple``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = ["Relation", "projection"]

Fact = Tuple[Any, ...]

#: Projects a fact onto an index's positions: the index key.
Keyer = Callable[[Fact], Tuple[Any, ...]]


class Relation:
    """A set of same-arity ground tuples with lazy hash indices.

    Args:
        name: predicate name (used in error messages and printing).
        arity: number of arguments; checked on every insertion.

    Example:
        >>> g = Relation("g", 3)
        >>> _ = g.add(("a", "b", 1))
        >>> _ = g.add(("a", "c", 2))
        >>> sorted(g.lookup((0,), ("a",)))
        [('a', 'b', 1), ('a', 'c', 2)]
    """

    def __init__(self, name: str, arity: int):
        if arity < 0:
            raise ValueError(f"negative arity for relation {name!r}")
        self.name = name
        self.arity = arity
        self._facts: Set[Fact] = set()
        # positions-tuple -> {key-values-tuple -> set of facts}
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Set[Fact]]] = {}
        # (key extractor, index) per index, built with it: add and discard
        # project each fact once per index through these.
        self._keyed: List[Tuple[Keyer, Dict[Tuple[Any, ...], Set[Fact]]]] = []
        # Derivation-support counts for counting-based incremental view
        # maintenance (repro.incremental).  Only facts tracked through
        # add_support/drop_support appear here; plain add/discard leave
        # the map untouched except that discard/clear drop the entry so
        # the invariant "support keys are facts" always holds.
        self._support: Dict[Fact, int] = {}
        # Optional MetricsRegistry; bound by Database.bind_metrics when an
        # engine runs with tracing enabled, None (and costless) otherwise.
        self.metrics: Any = None

    # Class-level fault-injection slot, patched by repro.robust.faults.inject
    # for chaos runs; None (one is-None check per add) otherwise.  The hook
    # fires before any mutation, so an injected error cannot corrupt state.
    _fault_hook: Any = None

    def bind_metrics(self, registry: Any) -> None:
        """Start publishing ``relation/*`` counters into *registry*."""
        self.metrics = registry

    # -- basic container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}/{self.arity}, {len(self)} facts)"

    # -- mutation ------------------------------------------------------------

    def add(self, fact: Fact) -> bool:
        """Insert *fact*; return ``True`` iff it was new.

        Raises:
            ValueError: if the fact has the wrong arity.
        """
        if self._fault_hook is not None:
            self._fault_hook("relation.add")
        if len(fact) != self.arity:
            raise self._arity_error(fact)
        if fact in self._facts:
            return False
        self._facts.add(fact)
        for keyer, index in self._keyed:
            key = keyer(fact)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {fact}
            else:
                bucket.add(fact)
        return True

    def add_batch(self, facts: Iterable[Fact]) -> List[Fact]:
        """Insert every fact in *facts*; return the new ones, deduplicated,
        in first-seen order.

        The set-at-a-time form of :meth:`add`, with its per-fact contract:
        each fact visits the fault hook, has its arity checked and, when
        new, enters the set and every existing index before the next fact
        is read.  A raise partway through therefore leaves the relation
        exactly as a loop of :meth:`add` would: the facts before the
        failing one are in, indexed.

        Raises:
            ValueError: if a fact has the wrong arity.
        """
        hook = self._fault_hook
        arity = self.arity
        present = self._facts
        keyed = self._keyed
        new: List[Fact] = []
        for fact in facts:
            if hook is not None:
                hook("relation.add")
            if len(fact) != arity:
                raise self._arity_error(fact)
            if fact in present:
                continue
            present.add(fact)
            new.append(fact)
            if keyed:
                for keyer, index in keyed:
                    key = keyer(fact)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {fact}
                    else:
                        bucket.add(fact)
        return new

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert every fact in *facts*; return how many were new."""
        return len(self.add_batch(facts))

    def _arity_error(self, fact: Fact) -> ValueError:
        return ValueError(
            f"arity mismatch for {self.name}: expected {self.arity}, "
            f"got {len(fact)}-tuple {fact!r}"
        )

    def discard(self, fact: Fact) -> bool:
        """Remove *fact* if present; return ``True`` iff it was present."""
        if fact not in self._facts:
            return False
        self._facts.remove(fact)
        self._support.pop(fact, None)
        for keyer, index in self._keyed:
            key = keyer(fact)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del index[key]
        return True

    def clear(self) -> None:
        self._facts.clear()
        self._indexes.clear()
        self._keyed.clear()
        self._support.clear()

    # -- derivation-support counts (incremental maintenance) -------------------

    def support(self, fact: Fact) -> int:
        """The recorded derivation count for *fact* (0 if untracked)."""
        return self._support.get(fact, 0)

    def supported_facts(self) -> Dict[Fact, int]:
        """A snapshot of the support-count map."""
        return dict(self._support)

    def add_support(self, fact: Fact, count: int = 1) -> bool:
        """Add *count* derivations of *fact*; return ``True`` iff the fact
        became present (its count rose from zero).

        Raises:
            ValueError: on non-positive *count* or arity mismatch.
        """
        if count < 1:
            raise ValueError(f"support count must be >= 1, got {count}")
        if fact in self._support:
            self._support[fact] += count
            return False
        self.add(fact)
        self._support[fact] = count
        return True

    def set_support(self, fact: Fact, count: int) -> None:
        """Force *fact*'s derivation count to exactly *count*.

        A non-positive count removes the fact entirely; a positive one
        inserts it if absent.  Used by counting maintenance to reconcile
        a full recount against the stored model.
        """
        if count < 1:
            self.discard(fact)
            return
        self.add(fact)
        self._support[fact] = count

    def drop_support(self, fact: Fact, count: int = 1) -> bool:
        """Remove *count* derivations of *fact*; return ``True`` iff the
        fact became absent (its count reached zero and it was removed).

        Dropping support for an untracked fact, or more support than is
        recorded, clamps at zero and removes the fact — counting
        maintenance treats over-deletion as "no derivations remain".
        """
        if count < 1:
            raise ValueError(f"support count must be >= 1, got {count}")
        remaining = self._support.get(fact, 0) - count
        if remaining > 0:
            self._support[fact] = remaining
            return False
        return self.discard(fact)

    # -- queries ---------------------------------------------------------------

    def lookup(self, positions: Tuple[int, ...], values: Tuple[Any, ...]) -> Iterable[Fact]:
        """All facts whose arguments at *positions* equal *values*.

        An index on *positions* is built on first use (or up front via
        :meth:`ensure_index`) and maintained by subsequent :meth:`add`
        calls, so repeated lookups with the same binding pattern cost
        ``O(matches)``.

        With empty *positions*, returns a snapshot of every fact: the
        result is safe to iterate while the relation is mutated (a
        recursive rule whose head predicate occurs in its own body scans
        the relation it inserts into).

        Aliasing contract: an *indexed* lookup returns a live view of the
        matching bucket — cheap, but callers must not insert or discard
        facts of this relation while iterating it.  The engines always
        materialise consequences before asserting them, which satisfies
        the contract; materialise (``list(...)``) first if you mutate.
        """
        if self.metrics is not None:
            self.metrics.inc("relation/lookups")
        if not positions:
            return tuple(self._facts)
        index = self._indexes.get(positions)
        if index is None:
            index = self._build_index(positions)
        return index.get(values, _EMPTY_SET)

    def ensure_index(self, positions: Tuple[int, ...]) -> None:
        """Build the hash index for *positions* now (no-op if it exists).

        The compiled-plan layer registers every binding pattern a plan
        will use before evaluation starts, so indices are constructed
        once on the current facts and then maintained incrementally —
        never rebuilt lazily mid-join.

        Raises:
            IndexError: if any position is out of range.
        """
        positions = tuple(positions)
        if positions and positions not in self._indexes:
            self._build_index(positions)

    def first(self, positions: Tuple[int, ...], values: Tuple[Any, ...]) -> Fact | None:
        """An arbitrary matching fact, or ``None``."""
        source = self._facts if not positions else self.lookup(positions, values)
        for fact in source:
            return fact
        return None

    def copy(self) -> "Relation":
        """An independent copy (indices are not copied; they rebuild lazily)."""
        clone = Relation(self.name, self.arity)
        clone._facts = set(self._facts)
        clone._support = dict(self._support)
        return clone

    def check_invariants(self) -> bool:
        """Verify the relation's structural invariants (chaos-suite aid):
        every fact has the declared arity, and every index covers exactly
        the projections of ``_facts``.

        Raises:
            AssertionError: describing the first violation found.
        """
        for fact in self._facts:
            if len(fact) != self.arity:
                raise AssertionError(
                    f"{self.name}/{self.arity}: fact {fact!r} has arity {len(fact)}"
                )
        for positions, index in self._indexes.items():
            covered: Set[Fact] = set()
            for key, bucket in index.items():
                for fact in bucket:
                    if tuple(fact[p] for p in positions) != key:
                        raise AssertionError(
                            f"{self.name}/{self.arity}: index {positions} bucket "
                            f"{key!r} holds mismatched fact {fact!r}"
                        )
                covered |= bucket
            if covered != self._facts:
                raise AssertionError(
                    f"{self.name}/{self.arity}: index {positions} covers "
                    f"{len(covered)} facts, relation holds {len(self._facts)}"
                )
        for fact, count in self._support.items():
            if fact not in self._facts:
                raise AssertionError(
                    f"{self.name}/{self.arity}: support map tracks absent "
                    f"fact {fact!r}"
                )
            if count < 1:
                raise AssertionError(
                    f"{self.name}/{self.arity}: fact {fact!r} has "
                    f"non-positive support {count}"
                )
        return True

    def _build_index(self, positions: Tuple[int, ...]) -> Dict[Tuple[Any, ...], Set[Fact]]:
        for p in positions:
            if not 0 <= p < self.arity:
                raise IndexError(
                    f"index position {p} out of range for {self.name}/{self.arity}"
                )
        if self.metrics is not None:
            self.metrics.inc("relation/index_builds")
        keyer = projection(positions)
        index: Dict[Tuple[Any, ...], Set[Fact]] = {}
        for fact in self._facts:
            key = keyer(fact)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {fact}
            else:
                bucket.add(fact)
        self._indexes[positions] = index
        self._keyed.append((keyer, index))
        return index


def projection(positions: Sequence[int]) -> Keyer:
    """The function taking a fact to the tuple of its values at
    *positions*: ``(fact[p],)`` for one position, ``itemgetter`` (which
    returns a tuple) for more, ``()`` for none.  Index keys, congruence
    signatures and W tuples are all such projections."""
    if not positions:
        return lambda fact: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda fact: (fact[p],)
    return itemgetter(*positions)


_EMPTY_SET: Set[Fact] = frozenset()  # type: ignore[assignment]
