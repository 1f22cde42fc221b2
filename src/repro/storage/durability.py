"""Durability orchestration: tie the WAL and snapshots to a live engine.

The engine is deterministic: a same-seed run replays byte-identically.
Recovery leans on that instead of trying to serialise in-flight crowd
state (open HITs are closures on the simulated clock's event heap and
cannot meaningfully travel through JSON).  So the write-ahead log holds
only what replay reads: ``query_submitted`` records and the ``drain``
barriers that group them (a shard worker adds its ``cluster_alias``
records).  Recovery rebuilds a fresh engine from the same recipe,
restores the latest quiescent snapshot, re-submits the logged queries in
their original order, and lets the deterministic machinery regenerate
everything that happened after the snapshot — HIT postings, settlements,
budget movements, deliveries and lifecycle transitions included.  Those
crowd events write nothing; each is a *crash point*
(:meth:`EngineJournal.crash_point`) that fault injection can kill the
process at.

``query_submitted`` records group-commit: the WAL's strict append order
plus the forced-durable record at every ``drain()`` entry put each
submission on disk before any of its crowd effects happen.  A crash under
``interval`` or ``off`` fsyncing can lose only the submissions logged
since the last drain barrier — a bounded, policy-chosen window; ``always``
closes it by fsyncing every append.

Snapshots are only taken at quiescent points (no pending clock events,
no runnable queries, no outstanding HITs) — exactly the states from
which a fresh engine plus re-submission is indistinguishable from the
original process.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import EngineOverloadedError, RecoveryError
from repro.storage.codec import lower
from repro.storage.snapshot import load_latest_snapshot
from repro.storage.wal import WALRecord, WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "EngineJournal",
    "RecoveryResult",
    "capture_engine_state",
    "restore_engine_state",
    "build_engine_from_payload",
    "recover_engine",
]

#: File name of the event log inside a durability directory.
WAL_FILENAME = "wal.log"

#: Snapshot-state schema version (independent of the on-disk envelope
#: version in :mod:`repro.storage.snapshot`).  Version 2 dropped the cache's
#: expiry and admission counters and the per-worker vote statistics.
STATE_VERSION = 2


@dataclass(frozen=True)
class DurabilityConfig:
    """How an engine journals and checkpoints itself.

    Parameters
    ----------
    directory:
        Where the WAL and snapshots live.  One directory per engine.
    fsync:
        WAL fsync policy — ``"always"``, ``"interval"``, or ``"off"``.
        Submissions group-commit: the forced-durable record at drain
        entry persists every pending submission before any crowd work
        happens, so recovery is exact under every policy.  The policy
        bounds how many submissions a crash may lose before the next
        drain barrier commits them.
    fsync_every:
        Records between fsyncs under the ``"interval"`` policy.
    snapshot_every:
        Auto-checkpoint after this many journal records — units of replay
        work: submissions, drain barriers and shard aliases — at the next
        quiescent point (end of a completed drain).  ``None`` disables
        auto-checkpointing entirely — recovery then replays the whole
        log from its base LSN.
    """

    directory: str
    fsync: str = "interval"
    fsync_every: int = 256
    snapshot_every: int | None = 200

    def wal_path(self) -> Path:
        return Path(self.directory) / WAL_FILENAME


class EngineJournal:
    """The engine's single gateway to its write-ahead log.

    Components (ledger, task manager, scheduler) call :meth:`record` and
    :meth:`crash_point` without knowing whether durability is even enabled
    — during replay the journal is *suspended* (``replaying`` is True) so
    the re-executed run neither re-logs records already on disk nor
    offers crash instants.  Crash-instant listeners (fault injection) are
    called with the instant's kind after every record is appended and at
    every crash point.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self.replaying = False
        self._records_since_snapshot = 0
        self._listeners: list[Callable[[str], None]] = []

    def record(self, record_type: str, data: dict, *, durable: bool = False) -> None:
        """Append one record replay reads (nothing while replaying)."""
        if self.replaying:
            return
        self.wal.append(record_type, data, durable=durable)
        self._records_since_snapshot += 1
        # Listeners fire *after* the flush-policy decision so a simulated
        # crash at this instant loses exactly what a real crash would.
        self.crash_point(record_type)

    def crash_point(self, kind: str) -> None:
        """Offer a crash instant that writes nothing (a crowd event replay regenerates)."""
        if self._listeners and not self.replaying:
            for listener in list(self._listeners):
                listener(kind)

    def on_crash_point(self, listener: Callable[[str], None]) -> None:
        """Register a crash-instant hook, called with the instant's kind."""
        self._listeners.append(listener)

    def snapshot_taken(self) -> None:
        self._records_since_snapshot = 0

    def snapshot_due(self, snapshot_every: int | None) -> bool:
        if snapshot_every is None:
            return False
        return self._records_since_snapshot >= snapshot_every

    def close(self) -> None:
        if self.wal.is_open:
            self.wal.flush()
            self.wal.close()


# ---------------------------------------------------------------------------
# Engine state capture / restore
# ---------------------------------------------------------------------------


def _table_row_counts(engine) -> dict[str, int]:
    """Row counts of the catalog's tables, by name."""
    database = engine.database
    return {name: len(database.table(name)) for name in database.catalog.table_names()}


def capture_engine_state(engine) -> dict:
    """Everything a quiescent engine needs to resume, as a JSON-able dict.

    Completed-query *outcomes* (statuses + result rows) are captured so
    that a recovered engine can still report every query it ever ran,
    including ones whose submissions were truncated out of the WAL by
    the snapshot.  Outcomes recovered from an earlier snapshot are
    carried forward, so chains of checkpoint→crash→recover never lose
    history.
    """
    outcomes = [dict(outcome) for outcome in getattr(engine, "_recovered_outcomes", [])]
    carried = {outcome["query_id"] for outcome in outcomes}
    for query_id, handle in engine.queries.items():
        if query_id in carried:
            continue
        outcomes.append(
            {
                "query_id": query_id,
                "sql": handle.sql,
                "status": handle.status.value,
                "error": None if handle.error is None else str(handle.error),
                "rows": [lower(row.to_dict()) for row in handle.results()],
            }
        )
    reputation = engine.task_manager.reputation
    return {
        "state_version": STATE_VERSION,
        "clock_now": engine.clock.now,
        "next_query_seq": engine._next_query_seq,
        "worker_pool": engine.worker_pool.state_dict(),
        "platform": engine.platform.state_dict(),
        "statistics": engine.statistics.state_dict(),
        "budget": engine.budget_ledger.state_dict(),
        "task_cache": engine.task_cache.state_dict(),
        "task_models": engine.task_models.state_dict(),
        "reputation": None if reputation is None else reputation.state_dict(),
        "task_manager": engine.task_manager.state_dict(),
        "catalog": _table_row_counts(engine),
        "outcomes": outcomes,
    }


def restore_engine_state(engine, state: dict) -> None:
    """Load a captured state into a freshly-built engine.

    Base-table contents are *not* stored in the snapshot — they come
    from the engine recipe that rebuilt the engine — so restore verifies
    the rebuilt catalog matches what the snapshot saw.  A mismatch means
    the recipe changed (or loaded different data) and replay would
    silently diverge; better to refuse loudly.
    """
    version = state.get("state_version")
    if version != STATE_VERSION:
        raise RecoveryError(
            f"snapshot state version {version!r} is not supported (expected {STATE_VERSION})"
        )
    rebuilt = _table_row_counts(engine)
    if rebuilt != state["catalog"]:
        raise RecoveryError(
            "rebuilt engine catalog does not match the snapshot: "
            f"snapshot saw {state['catalog']}, recipe produced {rebuilt}; "
            "recovery must use the same engine recipe and data as the original run"
        )
    engine.clock.restore_time(state["clock_now"])
    engine._next_query_seq = int(state["next_query_seq"])
    engine.worker_pool.load_state_dict(state["worker_pool"])
    engine.platform.load_state_dict(state["platform"])
    engine.statistics.load_state_dict(state["statistics"])
    engine.budget_ledger.load_state_dict(state["budget"])
    engine.task_cache.load_state_dict(state["task_cache"])
    engine.task_models.load_state_dict(state["task_models"])
    if state["reputation"] is not None:
        if engine.task_manager.reputation is None:
            raise RecoveryError(
                "snapshot carries worker-reputation state but the rebuilt engine "
                "has quality control disabled"
            )
        engine.task_manager.reputation.load_state_dict(state["reputation"])
    engine.task_manager.load_state_dict(state["task_manager"])
    engine._recovered_outcomes = [dict(outcome) for outcome in state["outcomes"]]


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def build_engine_from_payload(spec: dict):
    """Build an engine from a recipe ``{"factory", "kwargs"}``.

    The one engine resolver: a cluster ``EngineSpec``, a WAL header and
    :func:`recover_engine`'s ``factory=`` all build through it.
    ``factory`` is a callable or a ``"module:callable"`` path; it is called
    with ``kwargs``, and a result exposing an ``engine`` attribute (the
    testing harnesses return such wrappers) is unwrapped.  A bad recipe
    raises :class:`~repro.errors.RecoveryError` naming the factory.
    """
    if not isinstance(spec, dict) or "factory" not in spec:
        raise RecoveryError(
            "WAL header carries no engine recipe; pass factory= to recover explicitly"
        )
    factory = name = spec["factory"]
    if isinstance(name, str):
        module_name, _, attr = name.partition(":")
        if not module_name or not attr:
            raise RecoveryError(f"engine factory must be 'module:callable', got {name!r}")
        try:
            factory = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as error:
            raise RecoveryError(f"cannot import engine factory {name!r}: {error}") from error
    built = factory(**(spec.get("kwargs") or {}))
    engine = getattr(built, "engine", built)
    if not hasattr(engine, "scheduler") or not hasattr(engine, "query"):
        raise RecoveryError(
            f"engine factory {name!r} returned {type(built).__name__}, "
            "which is neither a QurkEngine nor an object with an .engine"
        )
    return engine


@dataclass
class RecoveryResult:
    """What :func:`recover_engine` found and rebuilt."""

    engine: Any
    outcomes: list[dict] = field(default_factory=list)
    replayed_query_ids: list[str] = field(default_factory=list)
    #: Every record that survived in the log, in LSN order — callers
    #: layering their own durable records on the engine's WAL (the shard
    #: worker's ``cluster_alias`` mapping) read them back from here.
    records: list[WALRecord] = field(default_factory=list)
    wal_records: int = 0
    truncated_bytes: int = 0
    corruption: str | None = None
    snapshot_lsn: int | None = None
    recovery_seconds: float = 0.0


def recover_engine(
    path: str | Path,
    *,
    fsync: str = "interval",
    fsync_every: int = 256,
    snapshot_every: int | None = 200,
    factory: Callable[[], Any] | None = None,
) -> RecoveryResult:
    """Rebuild a crashed engine from its durability directory.

    The sequence is: open the WAL (truncating any torn tail), rebuild a
    fresh engine from the logged recipe (or ``factory``), load the
    newest readable snapshot, then re-submit every ``query_submitted``
    record past the snapshot LSN and drain.  Determinism makes the
    result byte-identical (``fingerprint_engine``) to an uninterrupted
    run of the same recipe and submissions.
    """
    started = time.perf_counter()
    directory = Path(path)
    wal_path = directory / WAL_FILENAME
    if not wal_path.exists():
        raise RecoveryError(f"no WAL at {wal_path}; nothing to recover")
    wal, info = WriteAheadLog.open(wal_path, fsync=fsync, fsync_every=fsync_every)
    try:
        engine = build_engine_from_payload(info.spec if factory is None else {"factory": factory})
        if getattr(engine, "journal", None) is not None:
            raise RecoveryError(
                "engine recipe enabled durability itself; recovery must own the WAL"
            )

        snapshot = load_latest_snapshot(directory)
        config = DurabilityConfig(
            directory=str(directory),
            fsync=fsync,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
        )
        journal = engine.enable_durability(config, spec=info.spec, _wal=wal)
        journal.replaying = True
        snapshot_lsn: int | None = None
        try:
            if snapshot is not None:
                snapshot_lsn, state = snapshot
                restore_engine_state(engine, state)

            replayed: list[str] = []
            floor = snapshot_lsn if snapshot_lsn is not None else wal.base_lsn
            for record in info.records:
                if record.lsn <= floor:
                    continue
                if record.type == "query_submitted":
                    data = record.data
                    try:
                        query_id = engine.query(
                            data["sql"],
                            budget=data.get("budget"),
                            priority=data.get("priority", 1.0),
                        ).query_id
                    except EngineOverloadedError as refused:
                        # The logged submission overflowed the admission queue
                        # the same way: its SHED outcome is what happened.
                        query_id = refused.query_id
                    if query_id != data["query_id"]:
                        raise RecoveryError(
                            f"replay produced query id {query_id!r} where the log "
                            f"recorded {data['query_id']!r}; the engine recipe is not the "
                            "one that wrote this WAL"
                        )
                    replayed.append(query_id)
                elif record.type == "drain":
                    # Reproduce the original drain grouping: a drain that had
                    # started when the process died is re-run to completion,
                    # which is exactly what the uninterrupted run did.
                    engine.scheduler.drain()
                    engine.clock.run_until_idle()
            # Submissions logged after the last drain (or a crash before any
            # drain started) still need driving to their terminal states.
            engine.scheduler.drain()
            engine.clock.run_until_idle()
        finally:
            journal.replaying = False
        # Records already on disk past the snapshot count towards the next
        # auto-checkpoint, so a recovered engine does not let its log grow
        # twice as long before snapshotting again.
        journal._records_since_snapshot = sum(1 for r in info.records if r.lsn > floor)
    except Exception:
        wal.close()
        raise

    return RecoveryResult(
        engine=engine,
        outcomes=[dict(outcome) for outcome in getattr(engine, "_recovered_outcomes", [])],
        replayed_query_ids=replayed,
        records=list(info.records),
        wal_records=len(info.records),
        truncated_bytes=info.truncated_bytes,
        corruption=info.corruption,
        snapshot_lsn=snapshot_lsn,
        recovery_seconds=time.perf_counter() - started,
    )
