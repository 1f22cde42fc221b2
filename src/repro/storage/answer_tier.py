"""The durable answer tier: cached crowd answers that outlive the process.

Section 3 reuses cached results "even possibly in different queries"; at
traffic scale the repetition worth amortizing spans *engines and restarts*,
not just queries.  This module backs the in-memory
:class:`~repro.core.tasks.task_cache.TaskCache` with the PR 8 storage layer:
every admitted store appends an ``answer_stored`` record to an append-only
WAL (``answers.log``), and :meth:`DurableAnswerTier.checkpoint` compacts the
log into a CRC-checked snapshot via :mod:`repro.storage.snapshot`.

Opening the tier replays snapshot + log back into memory;
:meth:`DurableAnswerTier.load_into` then warms a fresh engine's cache through
:meth:`TaskCache.preload` — no stats churn, no re-journaling, live entries
win.  Attaching is strictly opt-in (``QurkEngine.attach_answer_tier``): an
engine without a tier is byte-identical to one that never had the feature.

The tier wants its *own* directory — snapshot filenames would collide with
the engine WAL's checkpoints if they shared one — and that is enforced at
open time by refusing a directory that already holds an engine ``wal.log``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Hashable

from repro.core.tasks.task_cache import CacheEntry
from repro.errors import StorageError, WALCorruptionError
from repro.storage.snapshot import load_latest_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tasks.task_cache import TaskCache

__all__ = ["ANSWERS_WAL_FILENAME", "DurableAnswerTier"]

ANSWERS_WAL_FILENAME = "answers.log"

#: The engine durability WAL's filename — its presence marks a directory as
#: an engine journal home, which the answer tier must not share (snapshot
#: files of the two layers would clobber each other).
_ENGINE_WAL_FILENAME = "wal.log"


class DurableAnswerTier:
    """A WAL + snapshot backed store of cached task answers.

    One tier directory can be shared sequentially across engines (answer,
    restart, reuse); concurrent cross-process sharing goes through the
    cluster coordinator's answer directory instead, which pushes entries
    over the shard protocol.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 64,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / _ENGINE_WAL_FILENAME).exists():
            raise StorageError(
                f"{self.directory} already holds an engine WAL; the answer tier "
                "needs its own directory (snapshot files would collide)"
            )
        # In-memory view of the durable state, rebuilt on open: snapshot
        # first, then the surviving log tail, last write wins.
        self._entries: dict[tuple[str, Hashable], CacheEntry] = {}
        path = self.directory / ANSWERS_WAL_FILENAME
        snapshot = load_latest_snapshot(self.directory)
        base_lsn = 0
        if snapshot is not None:
            base_lsn, state = snapshot
            self._entries.update(map(CacheEntry.unpack, state["entries"]))
        if path.exists():
            try:
                self.wal, info = WriteAheadLog.open(
                    path, fsync=fsync, fsync_every=fsync_every
                )
            except WALCorruptionError as error:
                raise StorageError(f"unreadable answer log {path}: {error}") from error
            for record in info.records:
                if record.lsn <= base_lsn:
                    continue
                self._apply(record.type, record.data)
        else:
            self.wal = WriteAheadLog.create(
                path,
                spec={"layer": "answer-tier", "version": 1},
                base_lsn=base_lsn,
                fsync=fsync,
                fsync_every=fsync_every,
            )

    # -- replay ---------------------------------------------------------------

    def _apply(self, record_type: str, data: dict) -> None:
        if record_type == "answer_stored":
            key, entry = CacheEntry.unpack(data)
            self._entries[key] = entry
        elif record_type == "answers_invalidated":
            name = data["name"]
            if name is None:
                self._entries.clear()
            else:
                for key in [key for key in self._entries if key[0] == name]:
                    del self._entries[key]
        # Unknown record types are skipped: a newer writer may add kinds an
        # older reader can safely ignore.

    # -- the TaskCache listener protocol ---------------------------------------

    def record_store(self, name: str, cache_key: Hashable, entry: CacheEntry) -> None:
        """Journal one admitted store (called by the attached TaskCache)."""
        self._entries[(name, cache_key)] = entry
        self.wal.append("answer_stored", entry.pack(name, cache_key))

    def record_invalidate(self, name: str | None) -> None:
        """Journal an invalidation of one task name (or everything)."""
        self._apply("answers_invalidated", {"name": name})
        self.wal.append("answers_invalidated", {"name": name}, durable=True)

    # -- warming a cache -------------------------------------------------------

    def load_into(self, cache: "TaskCache") -> int:
        """Preload every durable answer into ``cache``; returns count loaded.

        Existing cache entries win (an engine's live answers are fresher
        than disk), and preloads bypass the cache's store log and tier
        notifications, so warming never echoes back into this WAL.
        """
        loaded = 0
        for (name, cache_key), entry in self._entries.items():
            if cache.preload(name, cache_key, entry):
                loaded += 1
        return loaded

    # -- lifecycle -------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def checkpoint(self) -> Path:
        """Compact: snapshot the current entries and truncate the log."""
        self.wal.flush()
        lsn = self.wal.last_lsn
        path = write_snapshot(
            self.directory,
            {
                "layer": "answer-tier",
                "entries": [entry.pack(*key) for key, entry in self._entries.items()],
            },
            lsn=lsn,
        )
        self.wal.truncate_to(lsn)
        return path

    def flush(self) -> None:
        self.wal.flush()

    def close(self) -> None:
        if self.wal.is_open:
            self.wal.flush()
            self.wal.close()
