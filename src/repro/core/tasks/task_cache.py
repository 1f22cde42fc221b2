"""The Task Cache (Figure 1).

"We cache a given result to be used in several places (even possibly in
different queries)" — Section 3.  The cache maps ``(task name, cache key)`` to
the reduced answer of a previously completed task, so re-running ``findCEO``
on the same company (within a query, across operators, or across queries)
costs nothing.  The dashboard reports the money saved this way (Section 4.1),
so the cache tracks the spend it avoided — credited by the Task Manager with
what the *requesting* task would have paid, not what the stored answer
happened to cost.

Beyond the per-run dict, the cache is the front of a tiered answer store:

* a :class:`CachePolicy` adds TTL expiry (checked lazily on lookup against
  the injected clock — sim or wall) and reputation-weighted admission (an
  answer is only cached when the aggregate posterior accuracy of the workers
  who produced it clears ``min_confidence``);
* an attached durable tier (:class:`~repro.storage.answer_tier.DurableAnswerTier`)
  is notified of every admitted store, so answers survive restarts and are
  shared across engines;
* :meth:`export_since` / :meth:`import_entries` expose locally-stored entries
  for the cluster coordinator's answer directory, so a task answered on one
  shard becomes a cache hit on another.

All policy defaults are inert (no TTL, no admission threshold, no tier), so
an unconfigured cache behaves byte-identically to the plain dict it grew
from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Hashable

from repro.storage.snapshot import pack_value, unpack_value

__all__ = ["CacheEntry", "CachePolicy", "CacheStats", "TaskCache"]


@dataclass(frozen=True)
class CacheEntry:
    """A cached reduced answer along with what it originally cost to obtain."""

    reduced: Any
    original_cost: float
    stored_at: float
    #: Aggregate confidence in the stored answer (mean worker posterior for
    #: crowd answers, model confidence for escalated answers, 1.0 legacy).
    confidence: float = 1.0

    def pack(self, name: str, cache_key: Hashable) -> dict:
        """The entry as its one JSON-safe record.

        The same item is an ``answer_stored`` WAL record and snapshot entry
        of the durable tier, a cross-shard export, and an engine-snapshot
        entry.  Keys and reduced answers contain tuples (JOIN_BLOCK
        reductions are lists of id pairs) that plain JSON would lower to
        lists, breaking dict-key equality on restore, so both go through the
        tagged :func:`~repro.storage.snapshot.pack_value` encoding — which
        *raises* on anything it cannot round-trip.
        """
        return {
            "name": name,
            "key": pack_value(cache_key),
            "reduced": pack_value(self.reduced),
            "original_cost": self.original_cost,
            "stored_at": self.stored_at,
            "confidence": self.confidence,
        }

    @classmethod
    def unpack(cls, item: dict) -> tuple[tuple[str, Hashable], "CacheEntry"]:
        """``((task name, cache key), entry)`` back from :meth:`pack`'s record."""
        entry = cls(
            reduced=unpack_value(item["reduced"]),
            original_cost=item["original_cost"],
            stored_at=item["stored_at"],
            confidence=item.get("confidence", 1.0),
        )
        return (item["name"], unpack_value(item["key"])), entry


@dataclass(frozen=True)
class CachePolicy:
    """Staleness and admission policy for the answer tier.

    ``ttl`` is in clock seconds (the engine's injected clock, simulated or
    wall); ``None`` means entries never expire.  ``min_confidence`` gates
    admission: answers whose aggregate worker confidence falls below it are
    not cached.  The defaults disable both checks, preserving the legacy
    cache behaviour bit-for-bit.
    """

    ttl: float | None = None
    min_confidence: float = 0.0

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl < 0:
            raise ValueError(f"ttl must be >= 0 or None, got {self.ttl}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(f"min_confidence must be in [0, 1], got {self.min_confidence}")


@dataclass
class CacheStats:
    """Aggregate cache effectiveness counters (surfaced on the dashboard)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    dollars_saved: float = 0.0
    #: Entries dropped on lookup because they outlived the policy TTL.
    expirations: int = 0
    #: Stores rejected because the answer's confidence missed the bar.
    admissions_rejected: int = 0
    #: Entries received from other shards via the coordinator directory.
    entries_imported: int = 0
    #: Hits served from an imported (answered-on-another-shard) entry.
    cross_shard_hits: int = field(default=0, metadata={"counter": "cross_shard_hits"})

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TaskCache:
    """An in-memory cache of reduced task answers, keyed per task name."""

    def __init__(self, *, enabled: bool = True, policy: CachePolicy | None = None):
        self.enabled = enabled
        self.policy = policy if policy is not None else CachePolicy()
        self._entries: dict[tuple[str, Hashable], CacheEntry] = {}
        # Locally-stored keys in store order: the export cursor for the
        # cluster answer directory.  Imported entries are deliberately kept
        # out so shards only ever export answers they produced themselves.
        self._store_log: list[tuple[str, Hashable]] = []
        # Keys that arrived via import_entries — hits on them are the
        # cross-shard hits the cluster benchmark measures.
        self._imported: set[tuple[str, Hashable]] = set()
        self._tier = None
        self.stats = CacheStats()

    # -- the hot path ---------------------------------------------------------

    def lookup(
        self, task_name: str, cache_key: Hashable | None, *, now: float | None = None
    ) -> CacheEntry | None:
        """Return the cached entry for ``(task_name, cache_key)``, if any.

        ``now`` enables TTL enforcement: an entry older than the policy's
        ``ttl`` at lookup time is dropped and counted as an expiration plus
        a miss.  Savings are *not* credited here — the Task Manager knows
        what the requesting task would have spent and credits that via
        :meth:`credit_savings`.
        """
        if not self.enabled or cache_key is None:
            return None
        key = (task_name, cache_key)
        entry = self._entries.get(key)
        if entry is not None and self._expired(entry, now):
            del self._entries[key]
            self._imported.discard(key)
            self.stats.entries = len(self._entries)
            self.stats.expirations += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if key in self._imported:
            self.stats.cross_shard_hits += 1
        return entry

    def _expired(self, entry: CacheEntry, now: float | None) -> bool:
        if self.policy.ttl is None or now is None:
            return False
        return (now - entry.stored_at) >= self.policy.ttl

    def credit_savings(self, amount: float) -> None:
        """Credit dollars a cache hit avoided spending (Section 4.1 line).

        Called by the Task Manager with ``assignment_cost(price) *
        assignments`` of the *requesting* task — the money actually not
        spent — mirroring the model-savings attribution.
        """
        self.stats.dollars_saved += amount

    def store(
        self,
        task_name: str,
        cache_key: Hashable | None,
        reduced: Any,
        *,
        cost: float,
        now: float,
        confidence: float = 1.0,
    ) -> bool:
        """Store a reduced answer; returns whether it was admitted.

        No-op for uncacheable tasks (no key).  ``confidence`` is the
        aggregate trust in the answer (mean worker posterior accuracy for
        crowd answers); stores below the policy's ``min_confidence`` are
        rejected so a low-reputation fluke cannot poison every future query.
        """
        if not self.enabled or cache_key is None:
            return False
        if confidence < self.policy.min_confidence:
            self.stats.admissions_rejected += 1
            return False
        key = (task_name, cache_key)
        if key not in self._entries:
            self.stats.entries += 1
        entry = CacheEntry(
            reduced=reduced, original_cost=cost, stored_at=now, confidence=confidence
        )
        self._entries[key] = entry
        # A local store supersedes an imported copy: the entry is now ours
        # to export, and hits on it are no longer cross-shard hits.
        self._imported.discard(key)
        self._store_log.append(key)
        if self._tier is not None:
            self._tier.record_store(task_name, cache_key, entry)
        return True

    def invalidate(self, task_name: str | None = None) -> int:
        """Drop entries for one task name (or everything); returns count dropped."""
        if task_name is None:
            dropped = len(self._entries)
            self._entries.clear()
            self._imported.clear()
        else:
            keys = [key for key in self._entries if key[0] == task_name]
            for key in keys:
                del self._entries[key]
                self._imported.discard(key)
            dropped = len(keys)
        self.stats.entries = len(self._entries)
        if self._tier is not None and dropped:
            self._tier.record_invalidate(task_name)
        return dropped

    # -- the durable tier ------------------------------------------------------

    def attach_tier(self, tier) -> None:
        """Mirror every admitted store (and invalidation) into ``tier``.

        The tier needs ``record_store(name, key, entry)`` and
        ``record_invalidate(name)`` — see
        :class:`~repro.storage.answer_tier.DurableAnswerTier`.
        """
        self._tier = tier

    def preload(self, task_name: str, cache_key: Hashable, entry: CacheEntry) -> bool:
        """Seed one entry from a durable tier without re-journaling it.

        Used when warming a fresh cache from disk: no store-log append (the
        entry is not this engine's to export), no tier notification (it came
        *from* the tier), no stats churn beyond the entry count.  Existing
        entries win — a live answer is never clobbered by an older stored one.
        """
        if not self.enabled:
            return False
        key = (task_name, cache_key)
        if key in self._entries:
            return False
        self._entries[key] = entry
        self.stats.entries = len(self._entries)
        return True

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
            items.append(entry.pack(*key))
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
            key, entry = CacheEntry.unpack(item)
            if key in self._entries:
                continue
            self._entries[key] = entry
            self._imported.add(key)
            imported += 1
            if self._tier is not None:
                self._tier.record_store(key[0], key[1], entry)
        if imported:
            self.stats.entries = len(self._entries)
            self.stats.entries_imported += imported
        return imported

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Entries (as :meth:`CacheEntry.pack` records) + counters."""
        return {
            "stats": asdict(self.stats),
            "entries": [entry.pack(*key) for key, entry in self._entries.items()],
        }

    def load_state_dict(self, state: dict) -> None:
        self.stats = CacheStats(**state["stats"])
        self._entries = dict(CacheEntry.unpack(item) for item in state["entries"])
        # Restored entries are local again (insertion order approximates the
        # original store order; exact for snapshots without invalidations).
        self._store_log = list(self._entries)
        self._imported = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, Hashable]) -> bool:
        return key in self._entries
