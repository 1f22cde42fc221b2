"""Secondary indexes for in-memory tables.

Two index shapes cover the workload's access paths:

- :class:`HashIndex` — value → row positions, for equality predicates and
  index-backed hash-join build sides.
- :class:`SortedIndex` — a bisect-maintained ``(value, position)`` list, for
  range predicates.

Both are maintained incrementally by every ``Table`` insert path (one
``add_many`` over the new rows' key column) and answer **positions**, not rows:
the :class:`~repro.core.operators.scan.IndexScanOperator` gathers the matched
positions out of the table's cached column snapshot, so an index probe feeds
straight into the columnar pipeline.  Position lists are always returned in
ascending order, which keeps index-scan output byte-identical to
scan-then-filter over the same predicate.

NULLs are never indexed for matching purposes: SQL predicates are
three-valued and ``column op NULL`` is never True, so equality probes with
``None`` return no positions and :class:`SortedIndex` excludes NULL keys
entirely.  (:class:`HashIndex` still records NULL keys so distinct-count
statistics and join build sides can see them, but ``positions_equal(None)``
is empty.)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterable

from repro.errors import StorageError

__all__ = ["HashIndex", "SortedIndex", "INDEX_KINDS"]


class HashIndex:
    """An equality index: value → row positions (ascending).

    A key seen once costs one dict slot holding the bare position; the slot
    is promoted to a list on the key's second row, so an index on a unique
    column (the common case: primary keys) allocates nothing per key.
    """

    kind = "hash"

    __slots__ = ("column", "_slots")

    def __init__(self, column: str):
        self.column = column
        self._slots: dict[Any, int | list[int]] = {}

    def add_many(self, values: Iterable[Any], start: int) -> None:
        """Record ``values`` as the rows at positions ``start``, ``start + 1``, ..."""
        slots = self._slots
        for position, value in enumerate(values, start):
            held = slots.get(value)
            if held is None:
                slots[value] = position
            elif type(held) is list:
                held.append(position)
            else:
                slots[value] = [held, position]

    def positions(self, value: Any) -> list[int]:
        """Row positions holding exactly ``value`` (NULL included), ascending.

        The raw accessor join build sides probe through; predicates go
        through :meth:`positions_equal`, which adds SQL's NULL rule.
        """
        held = self._slots.get(value)
        if held is None:
            return []
        return held if type(held) is list else [held]

    def positions_equal(self, value: Any) -> list[int]:
        """Row positions where the column equals ``value``, ascending.

        A ``None`` probe matches nothing: NULL = NULL is NULL, not True.
        """
        if value is None:
            return []
        return self.positions(value)

    def distinct_count(self) -> int:
        """Number of distinct non-NULL key values."""
        return len(self._slots) - (1 if None in self._slots else 0)

    def clear(self) -> None:
        self._slots.clear()

    def __repr__(self) -> str:
        return f"HashIndex({self.column!r}, {len(self._slots)} keys)"


class SortedIndex:
    """A range index: ``(value, position)`` entries kept sorted by value.

    Requires mutually orderable (non-NULL) key values; a column mixing, say,
    strings and integers cannot carry a sorted index and raises
    :class:`StorageError` on the offending insert.
    """

    kind = "sorted"

    __slots__ = ("column", "_entries", "_null_count")

    def __init__(self, column: str):
        self.column = column
        self._entries: list[tuple[Any, int]] = []
        self._null_count = 0

    def add_many(self, values: Iterable[Any], start: int) -> None:
        """Insert the keys of rows ``start``, ``start + 1``, ...; NULLs are
        counted but never enter the order."""
        for position, value in enumerate(values, start):
            if value is None:
                self._null_count += 1
                continue
            try:
                insort(self._entries, (value, position))
            except TypeError as exc:
                raise StorageError(
                    f"sorted index on {self.column!r} requires mutually orderable "
                    f"values; cannot place {value!r}"
                ) from exc

    def positions_equal(self, value: Any) -> list[int]:
        """Row positions where the column equals ``value``, ascending."""
        if value is None:
            return []
        lo = bisect_left(self._entries, (value,))
        hi = bisect_right(self._entries, (value, _POSITION_INFINITY))
        return sorted(position for _, position in self._entries[lo:hi])

    def positions_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row positions with ``low op column op high``, ascending.

        ``None`` bounds are open ends (but NULL keys never match — they are
        not in the order at all).
        """
        lo = 0
        hi = len(self._entries)
        if low is not None:
            lo = (
                bisect_left(self._entries, (low,))
                if low_inclusive
                else bisect_right(self._entries, (low, _POSITION_INFINITY))
            )
        if high is not None:
            hi = (
                bisect_right(self._entries, (high, _POSITION_INFINITY))
                if high_inclusive
                else bisect_left(self._entries, (high,))
            )
        return sorted(position for _, position in self._entries[lo:hi])

    def distinct_count(self) -> int:
        """Number of distinct non-NULL key values."""
        count = 0
        previous = _POSITION_INFINITY
        for value, _ in self._entries:
            if count == 0 or value != previous:
                count += 1
                previous = value
        return count

    def clear(self) -> None:
        self._entries.clear()
        self._null_count = 0

    def __repr__(self) -> str:
        return f"SortedIndex({self.column!r}, {len(self._entries)} keys)"


class _PositionInfinity:
    """Sorts after every real position — an upper sentinel for bisect probes."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True


_POSITION_INFINITY = _PositionInfinity()

INDEX_KINDS = {"hash": HashIndex, "sorted": SortedIndex}
