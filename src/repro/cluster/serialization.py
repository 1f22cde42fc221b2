"""Wire format for the shard-per-process cluster runtime.

Everything the coordinator and its shard workers exchange — query
submissions, result rows, plans, statistics — travels as UTF-8 JSON
(:func:`encode_message` / :func:`decode_message`).  The multiprocessing pipes
carry those messages as they are; on a socket, :func:`frame_message` puts a
4-byte big-endian length prefix in front of each, and the asyncio front end
(:mod:`repro.cluster.server`) reads the frames back.  One codec serves both
transports.

JSON cannot represent every storage value directly (crowd answers include
tuples and answer lists), so values go through the one value codec,
:mod:`repro.storage.codec`: tuples become ``{"__tuple__": [...]}`` and a
dict with a non-``str`` key ``{"__dict__": [[key, value], ...]}``, so
every value it accepts comes back exactly.

Result rows are encoded once, on the shard.  :func:`encode_rows` reads a
results table's :class:`~repro.storage.table.RowsView` column by column:
INTEGER, FLOAT, STRING and BOOLEAN columns go out as they are and only the
other columns are packed, value by value, so no row is built.
:func:`decode_rows` returns a :class:`WireRows` view that keeps the payload
it came from and builds a row (:meth:`Row.unchecked` against the decoded
schema) only when one is read, which makes the round trip exact: a row
encoded on a worker and read on the coordinator compares equal to the
original.  :func:`encode_rows` of such a view returns its payload unchanged,
so the TCP server forwards a shard's rows to its client without building a
row or re-packing a value.  A value JSON cannot carry (an IMAGE, say) is a
:class:`ClusterError` naming its column and type, which the shard answers
as an error reply instead of dying on the send.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Sequence
from operator import eq
from typing import Any, Iterable, Iterator

from repro.core.exec.context import QueryConfig
from repro.errors import ClusterError, CodecError
from repro.storage.codec import dumps, loads, pack, unpack
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.table import RowsView
from repro.storage.types import DataType

__all__ = [
    "encode_message",
    "decode_message",
    "frame_message",
    "encode_schema",
    "decode_schema",
    "encode_rows",
    "decode_rows",
    "WireRows",
    "encode_query",
    "decode_query",
]

#: Length-prefix layout: one unsigned 32-bit big-endian integer.
_HEADER = struct.Struct(">I")

#: Refuse frames above this size rather than buffering unboundedly on a
#: corrupt or hostile length prefix (64 MiB is far above any real payload).
MAX_FRAME_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Messages and framing
# ---------------------------------------------------------------------------


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to compact UTF-8 JSON."""
    return dumps(message)


def decode_message(payload: bytes) -> dict[str, Any]:
    """Parse one protocol message; raises :class:`ClusterError` on junk."""
    try:
        message = loads(payload)
    except CodecError as error:
        raise ClusterError(f"undecodable cluster message: {error}") from error
    if not isinstance(message, dict):
        raise ClusterError(f"cluster message must be an object, got {type(message).__name__}")
    return message


def frame_message(message: dict[str, Any]) -> bytes:
    """A message as one self-delimiting frame: 4-byte length + JSON body."""
    body = encode_message(message)
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(f"cluster frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


# ---------------------------------------------------------------------------
# Values, schemas, rows
# ---------------------------------------------------------------------------

#: Column types whose values JSON carries as they are: encoded untouched.
_JSON_NATIVE = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.STRING, DataType.BOOLEAN})


def encode_schema(schema: Schema) -> list[list[Any]]:
    """A schema as ``[name, data_type, nullable]`` triples."""
    return [[col.name, col.data_type.value, col.nullable] for col in schema.columns]


def decode_schema(payload: Iterable[Iterable[Any]]) -> Schema:
    """Rebuild a schema from :func:`encode_schema` output."""
    try:
        columns = [
            Column(name, DataType(data_type), bool(nullable))
            for name, data_type, nullable in payload
        ]
    except (TypeError, ValueError) as error:
        raise ClusterError(f"undecodable schema payload: {error}") from error
    return Schema.of(*columns)


def _encode_column(column: Column, values: Sequence[Any]) -> Sequence[Any]:
    """One column's values as JSON carries them, packed unless native."""
    if column.data_type in _JSON_NATIVE:
        return values
    try:
        return [pack(value) for value in values]
    except CodecError as error:
        raise ClusterError(f"result column {column.name!r}: {error}") from None


def encode_rows(rows: Iterable[Row]) -> dict[str, Any]:
    """Rows (sharing one schema) as a JSON-safe ``{"schema", "values"}`` pair.

    A :class:`WireRows` returns the payload it was decoded from.  A
    :class:`~repro.storage.table.RowsView` is read column by column, so no
    row is built; any other iterable of rows is transposed first.  Raises
    :class:`ClusterError` for a value JSON cannot carry.
    """
    if isinstance(rows, WireRows):
        return rows.payload
    if isinstance(rows, RowsView):
        count, schema, columns = len(rows), rows.schema, rows.columns()
    else:
        held = list(rows)
        count = len(held)
        schema = held[0].schema if held else None
        columns = list(zip(*(row.values for row in held)))
    if not count:
        return {"schema": [], "values": []}
    columns = [_encode_column(column, values) for column, values in zip(schema.columns, columns)]
    values = list(map(list, zip(*columns))) if columns else [[] for _ in range(count)]
    return {"schema": encode_schema(schema), "values": values}


def decode_rows(payload: dict[str, Any]) -> "WireRows":
    """The rows of :func:`encode_rows` output, as a view (exact round trip)."""
    return WireRows(payload)


class WireRows(Sequence):
    """Read-only rows over an :func:`encode_rows` payload, built when read.

    ``len`` is free, iteration and ``rows[i]`` build one :meth:`Row.unchecked`
    per element, slicing returns a list of rows, and ``==`` compares
    element-wise with any sequence of rows.  ``payload`` is the dict the view
    came from, which :func:`encode_rows` hands back as it is.
    """

    __slots__ = ("payload", "_schema", "_values")

    def __init__(self, payload: dict[str, Any]):
        self.payload = payload
        self._values = payload.get("values", [])
        self._schema = decode_schema(payload["schema"]) if self._values else None

    def _row(self, values: list[Any]) -> Row:
        return Row.unchecked(self._schema, tuple(map(unpack, values)))

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return [self._row(values) for values in self._values[index]]
        return self._row(self._values[index])

    def __iter__(self) -> Iterator[Row]:
        return map(self._row, self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"WireRows({list(self)!r})"


# ---------------------------------------------------------------------------
# Query submissions
# ---------------------------------------------------------------------------


def encode_query(
    sql: str,
    *,
    query_id: str,
    budget: float | None = None,
    priority: float = 1.0,
    config: QueryConfig | None = None,
) -> dict[str, Any]:
    """One query submission as it crosses coordinator → worker framing."""
    return {
        "query_id": query_id,
        "sql": sql,
        "budget": budget,
        "priority": priority,
        "config": dataclasses.asdict(config) if config is not None else None,
    }


def decode_query(payload: dict[str, Any]) -> dict[str, Any]:
    """Rebuild a submission: same dict shape, with ``config`` re-hydrated."""
    try:
        submission = {
            "query_id": payload["query_id"],
            "sql": payload["sql"],
            "budget": payload.get("budget"),
            "priority": payload.get("priority", 1.0),
            "config": None,
        }
    except KeyError as error:
        raise ClusterError(f"query submission missing field {error}") from error
    raw_config = payload.get("config")
    if raw_config is not None:
        try:
            submission["config"] = QueryConfig(**raw_config)
        except TypeError as error:
            raise ClusterError(f"undecodable query config: {error}") from error
    return submission
