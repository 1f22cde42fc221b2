"""The Task Cache (Figure 1).

"We cache a given result to be used in several places (even possibly in
different queries)" — Section 3.  The cache maps ``(task name, cache key)`` to
the reduced answer of a previously completed task, so re-running ``findCEO``
on the same company (within a query, across operators, or across queries)
costs nothing.  The dashboard reports the money saved this way (Section 4.1),
so the cache tracks the spend it avoided — credited by the Task Manager with
what the *requesting* task would have paid, not what the stored answer
happened to cost.

Beyond the per-run dict, answers reach past one process in two ways:

* a durable engine's snapshot carries :meth:`TaskCache.state_dict`, so
  answers survive a checkpoint and ``QurkEngine.recover``;
* :meth:`export_since` / :meth:`import_entries` expose locally-stored entries
  for the cluster coordinator's answer directory, so a task answered on one
  shard becomes a cache hit on another.

As in the paper, an answer never expires and every answer is admitted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Hashable

from repro.storage.codec import pack, unpack

__all__ = ["CacheEntry", "CacheStats", "TaskCache"]


@dataclass(frozen=True)
class CacheEntry:
    """A cached reduced answer along with what it originally cost to obtain."""

    reduced: Any
    original_cost: float

    def record(self, name: str, cache_key: Hashable) -> dict:
        """The entry as its one record, before any encoding.

        The same record is an engine-snapshot entry and, packed by
        :func:`repro.storage.codec.pack`, a cross-shard export.  Keys and
        reduced answers contain tuples (JOIN_BLOCK reductions are lists of
        id pairs) that the codec round-trips exactly; each boundary packs
        the record once, and the codec raises on anything it cannot carry.
        """
        return {
            "name": name,
            "key": cache_key,
            "reduced": self.reduced,
            "original_cost": self.original_cost,
        }

    @classmethod
    def from_record(cls, item: dict) -> tuple[tuple[str, Hashable], "CacheEntry"]:
        """``((task name, cache key), entry)`` back from :meth:`record`'s output.

        Other fields are ignored: records written before entries lost their
        ``stored_at`` and ``confidence`` still load.
        """
        return (item["name"], item["key"]), cls(item["reduced"], item["original_cost"])


@dataclass
class CacheStats:
    """Aggregate cache effectiveness counters (surfaced on the dashboard)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    dollars_saved: float = 0.0
    #: Entries received from other shards via the coordinator directory.
    entries_imported: int = 0
    #: Hits served from an imported (answered-on-another-shard) entry.
    cross_shard_hits: int = field(default=0, metadata={"counter": "cross_shard_hits"})


class TaskCache:
    """An in-memory cache of reduced task answers, keyed per task name."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._entries: dict[tuple[str, Hashable], CacheEntry] = {}
        # Locally-stored keys in store order: the export cursor for the
        # cluster answer directory.  Imported entries are deliberately kept
        # out so shards only ever export answers they produced themselves.
        self._store_log: list[tuple[str, Hashable]] = []
        # Keys that arrived via import_entries — hits on them are the
        # cross-shard hits the cluster benchmark measures.
        self._imported: set[tuple[str, Hashable]] = set()
        self.stats = CacheStats()

    # -- the hot path ---------------------------------------------------------

    def lookup(self, task_name: str, cache_key: Hashable | None) -> CacheEntry | None:
        """Return the cached entry for ``(task_name, cache_key)``, if any.

        Savings are *not* credited here — the Task Manager knows what the
        requesting task would have spent and credits that via
        :meth:`credit_savings`.
        """
        if not self.enabled or cache_key is None:
            return None
        key = (task_name, cache_key)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if key in self._imported:
            self.stats.cross_shard_hits += 1
        return entry

    def credit_savings(self, amount: float) -> None:
        """Credit dollars a cache hit avoided spending (Section 4.1 line).

        Called by the Task Manager with ``assignment_cost(price) *
        assignments`` of the *requesting* task — the money actually not
        spent — mirroring the model-savings attribution.
        """
        self.stats.dollars_saved += amount

    def store(
        self, task_name: str, cache_key: Hashable | None, reduced: Any, *, cost: float
    ) -> None:
        """Store a reduced answer; a no-op for uncacheable tasks (no key)."""
        if not self.enabled or cache_key is None:
            return
        key = (task_name, cache_key)
        if key not in self._entries:
            self.stats.entries += 1
        self._entries[key] = CacheEntry(reduced, cost)
        # A local store supersedes an imported copy: the entry is now ours
        # to export, and hits on it are no longer cross-shard hits.
        self._imported.discard(key)
        self._store_log.append(key)

    # -- cross-shard sharing ---------------------------------------------------

    def export_since(self, cursor: int) -> tuple[int, list[dict]]:
        """Locally-stored entries past ``cursor``, as JSON-safe packed items.

        Returns ``(new_cursor, items)``; feeding ``new_cursor`` back yields
        only entries stored since.  Invalidated or superseded keys are
        skipped (their current entry is exported at its own log position).
        """
        items: list[dict] = []
        log = self._store_log
        for position in range(min(cursor, len(log)), len(log)):
            key = log[position]
            entry = self._entries.get(key)
            if entry is None:
                continue
            # A key re-stored later appears at multiple log positions; every
            # occurrence exports the *current* entry, which is harmless (the
            # import side is idempotent and local entries win).
            items.append(pack(entry.record(*key)))
        return len(log), items

    def import_entries(self, items: list[dict]) -> int:
        """Admit entries exported by another shard; returns how many landed.

        Local entries always win (the shard that produced an answer is its
        authority), imports never credit hit/savings counters, and imported
        keys are remembered so hits on them can be attributed cross-shard.
        """
        if not self.enabled:
            return 0
        imported = 0
        for item in items:
            key, entry = CacheEntry.from_record(unpack(item))
            if key in self._entries:
                continue
            self._entries[key] = entry
            self._imported.add(key)
            imported += 1
        if imported:
            self.stats.entries = len(self._entries)
            self.stats.entries_imported += imported
        return imported

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Entries (as :meth:`CacheEntry.record` records) + counters."""
        return {
            "stats": asdict(self.stats),
            "entries": [entry.record(*key) for key, entry in self._entries.items()],
        }

    def load_state_dict(self, state: dict) -> None:
        self.stats = CacheStats(**state["stats"])
        self._entries = dict(map(CacheEntry.from_record, state["entries"]))
        # Restored entries are local again (insertion order approximates the
        # original store order).
        self._store_log = list(self._entries)
        self._imported = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, Hashable]) -> bool:
        return key in self._entries
