"""A binary-heap priority queue with lazy deletion.

The paper's (R, Q, L) structure (Section 6) needs a priority queue ``Q_r``
supporting:

* ``insert`` in ``O(log n)``,
* ``pop_least`` in ``O(log n)``,
* *replacement* of a congruent entry by a cheaper one (the effect of the
  insertion procedure described in the paper).

Replacement is implemented by lazy deletion: the old entry is marked dead
and skipped when it surfaces.  This keeps every operation a plain sift, as
in a textbook binary heap, while still giving the amortized bounds the
complexity analysis relies on.

The queue is implemented from first principles (no :mod:`heapq`) because it
is itself one of the artifacts the reproduction must provide: the paper's
claim is that a fixpoint interpreter *plus this structure* matches
procedural complexity.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

__all__ = ["PriorityQueue", "HeapEntry"]

T = TypeVar("T")


class HeapEntry(Generic[T]):
    """A mutable heap slot.

    Attributes:
        priority: sort key; compared with ``<``.
        tiebreak: monotone counter so equal priorities pop in insertion
            order (makes runs reproducible).
        key: ``(priority, tiebreak)``, built once at insert; the sifts
            compare it.
        item: the payload.
        alive: ``False`` once the entry has been lazily deleted.
    """

    __slots__ = ("priority", "tiebreak", "key", "item", "alive")

    def __init__(self, priority: Any, tiebreak: int, item: T):
        self.priority = priority
        self.tiebreak = tiebreak
        self.key = (priority, tiebreak)
        self.item = item
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.alive else " (dead)"
        return f"HeapEntry({self.priority!r}, {self.item!r}{state})"


class PriorityQueue(Generic[T]):
    """Binary min-heap with lazy deletion and stable tie-breaking.

    Example:
        >>> q = PriorityQueue()
        >>> q.insert(3, "c"); q.insert(1, "a"); q.insert(2, "b")
        >>> q.pop_least()
        (1, 'a')
        >>> len(q)
        2
    """

    # Class-level fault-injection slot, patched by repro.robust.faults.inject
    # for chaos runs; the hook fires before any mutation, so an injected
    # error leaves the heap exactly as it was.
    _fault_hook: Any = None

    def __init__(self) -> None:
        self._heap: list[HeapEntry[T]] = []
        self._counter = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live entries."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def insert(self, priority: Any, item: T) -> HeapEntry[T]:
        """Insert *item* with *priority*; returns a handle usable with
        :meth:`delete`."""
        if self._fault_hook is not None:
            self._fault_hook("heap.insert")
        entry = HeapEntry(priority, self._counter, item)
        self._counter += 1
        self._heap.append(entry)
        self._live += 1
        self._sift_up(len(self._heap) - 1)
        self._maybe_compact()
        return entry

    def delete(self, entry: HeapEntry[T]) -> None:
        """Lazily delete *entry* (a handle returned by :meth:`insert`)."""
        if entry.alive:
            entry.alive = False
            self._live -= 1

    def peek_least(self) -> tuple[Any, T]:
        """Return ``(priority, item)`` of the least live entry without
        removing it.

        Raises:
            IndexError: if the queue is empty.
        """
        self._drop_dead_root()
        if not self._heap:
            raise IndexError("peek_least from an empty PriorityQueue")
        entry = self._heap[0]
        return entry.priority, entry.item

    def pop_least(self) -> tuple[Any, T]:
        """Remove and return ``(priority, item)`` of the least live entry.

        Raises:
            IndexError: if the queue is empty.
        """
        if self._fault_hook is not None:
            self._fault_hook("heap.pop")
        self._drop_dead_root()
        if not self._heap:
            raise IndexError("pop_least from an empty PriorityQueue")
        entry = self._pop_root()
        self._live -= 1
        return entry.priority, entry.item

    def __iter__(self) -> Iterator[tuple[Any, T]]:
        """Iterate over live ``(priority, item)`` pairs in arbitrary order."""
        for entry in self._heap:
            if entry.alive:
                yield entry.priority, entry.item

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0

    def live_entries(self) -> list[HeapEntry[T]]:
        """The live :class:`HeapEntry` objects, in arbitrary order.

        Used by checkpointing to serialize the queue with its tiebreaks
        (re-inserting in tiebreak order preserves equal-priority pop
        order across a save/restore round-trip)."""
        return [entry for entry in self._heap if entry.alive]

    def check_invariants(self) -> bool:
        """Verify the heap property and the live-entry count (chaos-suite
        aid).

        Raises:
            AssertionError: describing the first violation found.
        """
        heap = self._heap
        for pos in range(1, len(heap)):
            parent = (pos - 1) >> 1
            if not heap[parent].key <= heap[pos].key:
                raise AssertionError(
                    f"heap property violated at position {pos}: parent "
                    f"{heap[parent]!r} > child {heap[pos]!r}"
                )
        live = sum(1 for entry in heap if entry.alive)
        if live != self._live:
            raise AssertionError(
                f"live-entry count drifted: counted {live}, recorded {self._live}"
            )
        return True

    # -- internal heap machinery -------------------------------------------

    def _drop_dead_root(self) -> None:
        while self._heap and not self._heap[0].alive:
            self._pop_root()

    def _pop_root(self) -> HeapEntry[T]:
        heap = self._heap
        root = heap[0]
        last = heap.pop()
        if heap:
            heap[0] = last
            self._sift_down(0)
        return root

    def _sift_up(self, pos: int) -> None:
        heap = self._heap
        entry = heap[pos]
        key = entry.key
        while pos > 0:
            parent = (pos - 1) >> 1
            if heap[parent].key <= key:
                break
            heap[pos] = heap[parent]
            pos = parent
        heap[pos] = entry

    def _sift_down(self, pos: int) -> None:
        heap = self._heap
        size = len(heap)
        entry = heap[pos]
        key = entry.key
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            child_key = heap[child].key
            right = child + 1
            if right < size:
                right_key = heap[right].key
                if right_key < child_key:
                    child, child_key = right, right_key
            if key <= child_key:
                break
            heap[pos] = heap[child]
            pos = child
        heap[pos] = entry

    def _maybe_compact(self) -> None:
        # Physically remove dead entries once they dominate the array, so a
        # long run of replacements cannot grow the heap unboundedly.
        if len(self._heap) > 64 and self._live * 2 < len(self._heap):
            survivors = [e for e in self._heap if e.alive]
            self._heap = survivors
            for i in range(len(survivors) // 2 - 1, -1, -1):
                self._sift_down(i)
