"""A fact database: one :class:`~repro.storage.relation.Relation` per
predicate, addressed by ``(name, arity)``.

This is the extensional/intensional store the fixpoint engines read and
write.  Predicates are identified by name *and* arity so that, e.g., the
paper's ``takes/2`` and ``takes/3`` variants can coexist.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.storage.relation import Relation

__all__ = ["Database", "PredicateKey"]

PredicateKey = Tuple[str, int]
Fact = Tuple[Any, ...]


class Database:
    """A mutable collection of relations keyed by predicate name/arity.

    Example:
        >>> db = Database()
        >>> db.assert_fact("g", ("a", "b", 1))
        True
        >>> len(db.relation("g", 3))
        1
    """

    def __init__(self) -> None:
        self._relations: Dict[PredicateKey, Relation] = {}
        self._metrics: Any = None

    def bind_metrics(self, registry: Any) -> None:
        """Publish ``relation/*`` counters (lookups, index builds) into
        *registry* — for every existing relation and every relation
        created later.  Engines call this only when tracing is enabled,
        so the default hot path stays metric-free."""
        self._metrics = registry
        for rel in self._relations.values():
            rel.bind_metrics(registry)

    def relation(self, name: str, arity: int) -> Relation:
        """The relation for ``name/arity``, created empty if absent."""
        key = (name, arity)
        rel = self._relations.get(key)
        if rel is None:
            rel = Relation(name, arity)
            if self._metrics is not None:
                rel.bind_metrics(self._metrics)
            self._relations[key] = rel
        return rel

    def get(self, name: str, arity: int) -> Relation | None:
        """The relation for ``name/arity`` or ``None`` (never creates)."""
        return self._relations.get((name, arity))

    def assert_fact(self, name: str, fact: Fact) -> bool:
        """Insert *fact* into ``name/len(fact)``; return ``True`` iff new."""
        return self.relation(name, len(fact)).add(fact)

    def assert_all(self, name: str, facts: Iterable[Fact]) -> int:
        """Insert many facts under one predicate; return how many were new.

        Each run of consecutive facts of one arity goes to its relation
        in one :meth:`Relation.add_batch` call — a batch of one arity in
        one call — so a raise partway leaves the database as a loop of
        :meth:`assert_fact` would."""
        return sum(
            len(self.relation(name, arity).add_batch(run))
            for arity, run in groupby(facts, key=len)
        )

    def facts(self, name: str, arity: int) -> Iterable[Fact]:
        """All facts of ``name/arity`` (empty if the predicate is unknown)."""
        rel = self._relations.get((name, arity))
        return rel if rel is not None else ()

    def predicates(self) -> Iterator[PredicateKey]:
        """All ``(name, arity)`` keys with a (possibly empty) relation."""
        return iter(self._relations)

    def total_facts(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def copy(self) -> "Database":
        """A deep-enough copy: relations are copied, facts are shared tuples."""
        clone = Database()
        for key, rel in self._relations.items():
            clone._relations[key] = rel.copy()
        return clone

    def check_invariants(self) -> bool:
        """Verify every relation's structural invariants (chaos-suite aid).

        Raises:
            AssertionError: describing the first violation found.
        """
        for rel in self._relations.values():
            rel.check_invariants()
        return True

    def as_dict(self) -> Dict[PredicateKey, frozenset]:
        """An immutable snapshot, useful for model comparison in tests."""
        return {key: frozenset(rel) for key, rel in self._relations.items() if len(rel)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}/{arity}:{len(rel)}" for (name, arity), rel in sorted(self._relations.items())
        )
        return f"Database({parts})"
