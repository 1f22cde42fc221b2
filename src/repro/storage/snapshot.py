"""Versioned, atomic engine snapshots.

A snapshot is one file, ``snapshot-<LSN 12 digits>.json``, written with
the classic temp-then-rename dance (write, flush, fsync, rename, fsync
directory) so a crash mid-write leaves either the previous snapshot or a
complete new one — never a half file.  Its first line is a JSON header —
the format version, the WAL LSN the state is consistent with, and a CRC32
of the body — and the rest of the file is the body: the state, encoded
once through the one value codec (:mod:`repro.storage.codec`).  Engine
state holds dict keys and cached values built from tuples (task-cache
keys, JOIN_BLOCK reductions, rng states), and the codec round-trips them
exactly — and raises on anything it cannot, because a silently-dropped
cache entry would diverge recovery fingerprints.

:func:`load_latest_snapshot` checks the version and the checksum before it
decodes the body, and walks snapshots newest-first, falling back to an
older file when the newest fails either check or its decode.  Version 1
files (one JSON document, the state tagged ``{"t", "v"}`` value by value)
are refused like any other unknown version.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Any

from repro.errors import CodecError, SnapshotError
from repro.storage.codec import dumps, loads, pack, unpack

__all__ = [
    "SNAPSHOT_VERSION",
    "write_snapshot",
    "load_latest_snapshot",
    "snapshot_path",
]

SNAPSHOT_VERSION = 2

_SNAPSHOT_GLOB = "snapshot-*.json"


def snapshot_path(directory: str | Path, lsn: int) -> Path:
    return Path(directory) / f"snapshot-{lsn:012d}.json"


def write_snapshot(
    directory: str | Path, state: dict[str, Any], *, lsn: int, keep: int = 2
) -> Path:
    """Atomically persist ``state`` as the snapshot consistent with ``lsn``.

    Keeps the newest ``keep`` snapshot files and prunes the rest — one
    spare generation survives so a corrupt newest file still recovers.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        body = dumps(pack(state))
    except CodecError as error:
        raise SnapshotError(f"cannot snapshot the state: {error}") from error
    header = dumps({"version": SNAPSHOT_VERSION, "lsn": lsn, "checksum": zlib.crc32(body)})
    target = snapshot_path(directory, lsn)
    tmp_path = target.with_suffix(".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(header + b"\n" + body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, target)
    _fsync_directory(directory)
    for stale in sorted(directory.glob(_SNAPSHOT_GLOB))[:-keep]:
        stale.unlink(missing_ok=True)
    return target


def load_latest_snapshot(directory: str | Path) -> tuple[int, dict[str, Any]] | None:
    """Newest readable snapshot as ``(lsn, state)``, or None if none exist.

    Corrupt files (bad JSON, wrong version, checksum mismatch) are skipped
    in favour of the next-newest; if files exist but *none* is readable
    that is a :class:`~repro.errors.SnapshotError`, not a silent cold
    start — recovery must not quietly discard paid-for state.
    """
    candidates = sorted(Path(directory).glob(_SNAPSHOT_GLOB), reverse=True)
    if not candidates:
        return None
    failures: list[str] = []
    for path in candidates:
        try:
            head, _, body = path.read_bytes().partition(b"\n")
            header = loads(head)
            if header["version"] != SNAPSHOT_VERSION:
                raise SnapshotError(f"unsupported snapshot version {header['version']}")
            if zlib.crc32(body) != header["checksum"]:
                raise SnapshotError("checksum mismatch")
            return int(header["lsn"]), unpack(loads(body))
        except (OSError, CodecError, KeyError, TypeError, ValueError, SnapshotError) as error:
            failures.append(f"{path.name}: {error}")
    raise SnapshotError(
        "no readable snapshot in "
        f"{directory} ({'; '.join(failures)})"
    )


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
