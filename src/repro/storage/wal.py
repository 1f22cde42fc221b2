"""Append-only, checksummed event write-ahead log.

Record framing is length-prefixed and CRC-checked::

    [length: u32 BE] [crc32(payload): u32 BE] [payload: length bytes]

where the payload is compact JSON — ``{"lsn": n, "type": t, "data":
{...}}``, with data keys in (deterministic) insertion order.  The data goes
through the one value codec (:mod:`repro.storage.codec`), so whatever it
accepts — tuples, ints beyond 64 bits, NaN and ±inf, non-ASCII text —
:meth:`WriteAheadLog.scan` reads back equal.  The first record of every
file is a *header* record carrying the format version, the base LSN (the
LSN the log was truncated up to; 0 for a fresh log) and an optional
engine-spec payload describing how to rebuild the engine the log belongs
to.

Durability is modelled honestly enough for the crash tests to mean
something: appended records sit in an application-level buffer until
:meth:`WriteAheadLog.flush`, which writes, flushes *and* fsyncs in one
step — so "flushed" and "durable" coincide, and
:meth:`WriteAheadLog.simulate_crash` (drop the buffer, close the file)
models a process kill that loses exactly the non-fsynced tail.  Three
fsync policies govern when that happens automatically:

``always``
    every append is flushed + fsynced before returning;
``interval``
    flush + fsync every ``fsync_every`` appends;
``off``
    flush only on close (and at a large buffer cap, as any real page
    cache eventually would).

Records appended with ``durable=True`` are flushed + fsynced immediately
under *every* policy.  The engine uses this as a group-commit barrier at
scheduler drain entry: because appends are strictly ordered, that one
durable record drags every buffered submission to disk before any of its
crowd effects happen, and recovery reproduces the full run even when an
``interval``/``off`` crash loses the submissions buffered since the last
barrier (whose crowd effects have not happened yet).

Opening an existing log scans it record by record and **cleanly
truncates** at the first torn or corrupt record boundary — a short
header, a short payload, a CRC mismatch or undecodable JSON all mark the
end of the valid prefix; everything after it is discarded and reported in
the returned :class:`WALRecoveryInfo` rather than raised.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import CodecError, WALCorruptionError, WALError
from repro.storage.codec import dumps, loads, pack, unpack

__all__ = [
    "WAL_VERSION",
    "WALRecord",
    "WALRecoveryInfo",
    "WriteAheadLog",
    "FSYNC_POLICIES",
]

WAL_VERSION = 1

#: Valid values for the ``fsync`` policy knob.
FSYNC_POLICIES = ("always", "interval", "off")

_FRAME = struct.Struct(">II")  # (payload length, crc32 of payload)

#: Upper bound on a single record's payload; a length word above this is
#: treated as corruption, not an allocation request.
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: Under ``fsync="off"`` the buffer still flushes at this many records —
#: an unbounded buffer is a memory leak, and real page caches write back
#: eventually too.  The crash model stays honest: only the *unflushed*
#: tail is lost.
OFF_POLICY_BUFFER_CAP = 4096


class WALRecord(NamedTuple):
    """One decoded log record."""

    lsn: int
    type: str
    data: dict[str, Any]


@dataclass
class WALRecoveryInfo:
    """What scanning an existing log found.

    ``records`` excludes the header record.  ``truncated_bytes`` counts
    bytes discarded past the last valid record boundary (0 for a clean
    log) and ``corruption`` names why they were discarded.
    """

    base_lsn: int
    spec: dict[str, Any] | None
    records: list[WALRecord] = field(default_factory=list)
    truncated_bytes: int = 0
    corruption: str | None = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else self.base_lsn


#: ``'{"lsn":%d,"type":%s,"data":%s}'`` assembled by hand on the append path:
#: the engine journals every submitted query, so one encode of just the data
#: dict (keys in deterministic insertion order) beats encoding a
#: freshly-built wrapper dict.
_RECORD_TEMPLATE = b'{"lsn":%d,"type":%s,"data":%s}'

#: Record-type strings are drawn from a handful of event names; cache their
#: JSON-quoted bytes instead of re-encoding the same string per append.
_TYPE_CACHE: dict[str, bytes] = {}
_crc32 = zlib.crc32
_pack_frame = _FRAME.pack


def _record_body(lsn: int, record_type: str, data: dict[str, Any]) -> bytes:
    """One record's payload bytes; :class:`WALError` for data the codec refuses."""
    encoded_type = _TYPE_CACHE.get(record_type)
    if encoded_type is None:
        encoded_type = _TYPE_CACHE.setdefault(record_type, dumps(record_type))
    try:
        return _RECORD_TEMPLATE % (lsn, encoded_type, dumps(pack(data)))
    except CodecError as error:
        raise WALError(f"WAL payload cannot be encoded: {error}") from error


def _frame(body: bytes) -> bytes:
    return _pack_frame(len(body), _crc32(body)) + body


class WriteAheadLog:
    """One append-only log file; use :meth:`create` or :meth:`open`."""

    def __init__(self, path: str | Path, *, fsync: str = "interval", fsync_every: int = 256):
        if fsync not in FSYNC_POLICIES:
            raise WALError(f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}")
        if fsync_every < 1:
            raise WALError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.fsync = fsync
        self.fsync_every = fsync_every
        self.spec: dict[str, Any] | None = None
        self._file: Any = None
        self._buffer: list[bytes] = []
        self._buffered_records = 0
        self._since_flush = 0
        self._base_lsn = 0
        self._last_lsn = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        spec: dict[str, Any] | None = None,
        fsync: str = "interval",
        fsync_every: int = 256,
    ) -> "WriteAheadLog":
        """Start a fresh log at ``path`` (truncating any existing file)."""
        wal = cls(path, fsync=fsync, fsync_every=fsync_every)
        wal.spec = spec
        wal.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(wal.path, "wb")
        handle.write(_frame(wal._header_body()))
        handle.flush()
        os.fsync(handle.fileno())
        wal._file = handle
        return wal

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 256,
    ) -> tuple["WriteAheadLog", WALRecoveryInfo]:
        """Open an existing log for append, truncating any torn tail.

        Returns the log (positioned for appends after the last valid
        record) and everything the recovery scan found.
        """
        info, valid_end = cls.scan(path)
        if info.truncated_bytes:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
        wal = cls(path, fsync=fsync, fsync_every=fsync_every)
        wal._base_lsn = info.base_lsn
        wal._last_lsn = info.last_lsn
        wal.spec = info.spec
        wal._file = open(path, "ab")
        return wal, info

    @classmethod
    def scan(cls, path: str | Path) -> tuple[WALRecoveryInfo, int]:
        """Decode ``path`` without opening it for writes.

        Returns the recovery info and the byte offset of the end of the
        valid prefix.  A missing/empty file or an unreadable *header* is a
        :class:`WALCorruptionError` — with no header there is no log to
        recover; corruption after the header truncates cleanly instead.
        """
        try:
            raw = Path(path).read_bytes()
        except OSError as error:
            raise WALCorruptionError(f"cannot read WAL {path}: {error}") from error

        offset = 0
        records: list[WALRecord] = []
        header: dict[str, Any] | None = None
        corruption: str | None = None
        while offset < len(raw):
            if offset + _FRAME.size > len(raw):
                corruption = f"torn frame header at byte {offset}"
                break
            length, crc = _FRAME.unpack_from(raw, offset)
            if length == 0 or length > MAX_RECORD_BYTES:
                corruption = f"implausible record length {length} at byte {offset}"
                break
            body_start = offset + _FRAME.size
            body = raw[body_start : body_start + length]
            if len(body) < length:
                corruption = f"torn record payload at byte {offset}"
                break
            if zlib.crc32(body) != crc:
                corruption = f"CRC mismatch at byte {offset}"
                break
            try:
                payload = loads(body)
                lsn, rtype, data = payload["lsn"], payload["type"], unpack(payload["data"])
            except (CodecError, KeyError, TypeError, ValueError):
                corruption = f"undecodable record at byte {offset}"
                break
            if header is None:
                if rtype != "header" or data.get("version") != WAL_VERSION:
                    raise WALCorruptionError(
                        f"WAL {path} has no valid header record (found {rtype!r})"
                    )
                header = data
            else:
                expected = (records[-1].lsn if records else header["base_lsn"]) + 1
                if lsn != expected:
                    corruption = f"LSN gap at byte {offset}: got {lsn}, expected {expected}"
                    break
                records.append(WALRecord(lsn=lsn, type=rtype, data=data))
            offset = body_start + length
        if header is None:
            raise WALCorruptionError(f"WAL {path} is empty or its header is unreadable")
        info = WALRecoveryInfo(
            base_lsn=header["base_lsn"],
            spec=header.get("spec"),
            records=records,
            truncated_bytes=len(raw) - offset,
            corruption=corruption,
        )
        return info, offset

    def _header_body(self) -> bytes:
        data = {"version": WAL_VERSION, "base_lsn": self._base_lsn, "spec": self.spec}
        return _record_body(self._base_lsn, "header", data)

    # -- appends --------------------------------------------------------------

    @property
    def base_lsn(self) -> int:
        return self._base_lsn

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def is_open(self) -> bool:
        return self._file is not None

    @property
    def unflushed_records(self) -> int:
        return self._buffered_records

    def append(self, record_type: str, data: dict[str, Any], *, durable: bool = False) -> int:
        """Append one record; returns its LSN.

        ``durable=True`` forces an immediate flush + fsync regardless of
        the configured policy.
        """
        if self._file is None:
            raise WALError("write-ahead log is closed")
        if record_type == "header":
            raise WALError("'header' is reserved for the file header record")
        lsn = self._last_lsn + 1
        body = _record_body(lsn, record_type, data)
        self._last_lsn = lsn
        # Frame and body appended separately: the flush-time join copies
        # once either way, and skipping the per-record concat is measurable
        # at journaling rates.
        buffer = self._buffer
        buffer.append(_pack_frame(len(body), _crc32(body)))
        buffer.append(body)
        self._buffered_records += 1
        if durable or self.fsync == "always":
            self.flush()
        elif self.fsync == "interval":
            self._since_flush += 1
            if self._since_flush >= self.fsync_every:
                self.flush()
        elif self._buffered_records >= OFF_POLICY_BUFFER_CAP:
            self.flush()
        return lsn

    def flush(self) -> None:
        """Write buffered records, flush and fsync — make them durable."""
        if self._file is None:
            raise WALError("write-ahead log is closed")
        if self._buffer:
            self._file.write(b"".join(self._buffer))
            self._buffer.clear()
            self._buffered_records = 0
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_flush = 0

    def close(self) -> None:
        if self._file is None:
            return
        self.flush()
        self._file.close()
        self._file = None

    def simulate_crash(self) -> None:
        """Die without flushing: the buffered (non-durable) tail is lost."""
        if self._file is None:
            return
        self._buffer.clear()
        self._buffered_records = 0
        self._file.close()
        self._file = None

    # -- truncation -----------------------------------------------------------

    def truncate_to(self, lsn: int) -> None:
        """Drop every record with LSN <= ``lsn`` (post-snapshot cleanup).

        Rewrites the file atomically (temp + rename) with a fresh header
        whose ``base_lsn`` is ``lsn``, keeping any records past it.
        """
        if self._file is None:
            raise WALError("write-ahead log is closed")
        if lsn < self._base_lsn or lsn > self._last_lsn:
            raise WALError(
                f"truncate_to({lsn}) outside log range [{self._base_lsn}, {self._last_lsn}]"
            )
        self.flush()
        info, _ = self.scan(self.path)
        keep = [record for record in info.records if record.lsn > lsn]
        self._base_lsn = lsn
        tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp_path, "wb") as handle:
            handle.write(_frame(self._header_body()))
            for record in keep:
                handle.write(_frame(_record_body(record.lsn, record.type, record.data)))
            handle.flush()
            os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp_path, self.path)
        _fsync_directory(self.path.parent)
        self._file = open(self.path, "ab")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best effort off-POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
