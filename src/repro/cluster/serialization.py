"""Wire format for the shard-per-process cluster runtime.

Everything the coordinator and its shard workers exchange — query
submissions, result rows, plans, statistics — travels as UTF-8 JSON framed
with a 4-byte big-endian length prefix.  The framing is deliberately
transport-agnostic: :func:`frame_message` / :class:`FrameDecoder` work over
any byte stream, so the multiprocessing pipes used today and the asyncio
socket front end (:mod:`repro.cluster.server`) share one codec, and a plain
TCP transport can slot in without touching the protocol.

JSON cannot represent every storage value directly (crowd answers include
tuples and answer lists), so values are encoded with a small tagging scheme:
tuples become ``{"__tuple__": [...]}`` recursively.  Decoding rebuilds rows
with :meth:`Row.unchecked` against the decoded schema, which makes the round
trip exact: a row encoded on a worker and decoded on the coordinator compares
equal to the original.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Iterable

from repro.core.exec.context import QueryConfig
from repro.errors import ClusterError
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

__all__ = [
    "encode_message",
    "decode_message",
    "frame_message",
    "FrameDecoder",
    "encode_schema",
    "decode_schema",
    "encode_rows",
    "decode_rows",
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
    return json.dumps(message, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def decode_message(payload: bytes) -> dict[str, Any]:
    """Parse one protocol message; raises :class:`ClusterError` on junk."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: a body nested deeper than the parser's stack.
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


class FrameDecoder:
    """Incremental decoder for a stream of length-prefixed frames.

    Feed it arbitrary chunks of bytes (as a socket hands them over); it
    yields every complete message and buffers the remainder:

    >>> decoder = FrameDecoder()
    >>> decoder.feed(frame_message({"op": "ping"}))
    [{'op': 'ping'}]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data`` and return every message completed by it."""
        self._buffer.extend(data)
        messages: list[dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ClusterError(f"cluster frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            messages.append(decode_message(body))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Values, schemas, rows
# ---------------------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__tuple__" in value and len(value) == 1:
            return tuple(_decode_value(item) for item in value["__tuple__"])
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


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


def encode_rows(rows: Iterable[Row]) -> dict[str, Any]:
    """Rows (sharing one schema) as a JSON-safe ``{"schema", "values"}`` pair.

    Iterates ``rows`` once, so a :class:`~repro.storage.table.RowsView`
    builds each row as it is encoded and no list of rows is ever held.
    """
    schema = None
    values = []
    for row in rows:
        if schema is None:
            schema = row.schema
        values.append([_encode_value(value) for value in row.values])
    if schema is None:
        return {"schema": [], "values": []}
    return {"schema": encode_schema(schema), "values": values}


def decode_rows(payload: dict[str, Any]) -> list[Row]:
    """Rebuild rows from :func:`encode_rows` output (exact round trip)."""
    values = payload.get("values", [])
    if not values:
        return []
    schema = decode_schema(payload["schema"])
    return [
        Row.unchecked(schema, tuple(_decode_value(value) for value in row_values))
        for row_values in values
    ]


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
