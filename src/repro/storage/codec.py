"""The one value codec: how every value crosses a process or disk boundary.

Shard pipes and TCP frames (:mod:`repro.cluster.serialization`), WAL
records (:mod:`repro.storage.wal`) and snapshots
(:mod:`repro.storage.snapshot`) all encode values here, one way:

:func:`pack` / :func:`unpack`
    An exact round trip through JSON.  Scalars (``None``, ``bool``, ``int``
    of any size, ``float`` including NaN and ±inf, ``str``) and lists pass
    through.  A tuple becomes ``{"__tuple__": [...]}``.  A dict whose keys
    are all ``str`` stays a JSON object, unless its only key is a tag; any
    other dict becomes ``{"__dict__": [[key, value], ...]}``.  Anything else
    is a :class:`~repro.errors.CodecError`, never a silent lowering: a
    dropped or mangled cache key would make a recovered engine diverge.
:func:`dumps` / :func:`loads`
    Compact UTF-8 JSON bytes through one shared stdlib encoder.  They do
    not pack: callers pack what must come back exactly, and wire messages
    (all-``str`` keys, packed row values) need no packing of their own.
:func:`lower`
    Tuples lowered to lists, as plain JSON reads them back; for
    fingerprints and recorded outcomes that compare against decoded JSON.

The format is the wire's: a frame for a value the wire has always carried
exactly is byte-identical to the one it sent before this module existed.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Iterable

from repro.errors import CodecError

__all__ = ["CodecError", "pack", "unpack", "lower", "dumps", "loads"]

TUPLE_TAG = "__tuple__"
DICT_TAG = "__dict__"
_TAGS = frozenset({TUPLE_TAG, DICT_TAG})

#: Values JSON carries as they are (``bool`` is an ``int``).
_SCALARS = (str, int, float, type(None))
#: The exact types of those scalars.  A container holding only these needs
#: no packing, and :func:`pack`/:func:`unpack` return it as it is: most
#: journal records are such flat dicts, so they cost one check in C.
_PLAIN = frozenset({str, int, float, bool, type(None)})
#: ``map(isinstance, keys, _STR)``: every key checked against ``str`` in C.
_STR = repeat(str)


def _all_plain(items: Iterable[Any]) -> bool:
    return all(map(_PLAIN.__contains__, map(type, items)))


def pack(value: Any) -> Any:
    """``value`` as JSON-safe data that :func:`unpack` turns back into it."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        if all(map(isinstance, value, _STR)) and not (
            len(value) == 1 and _TAGS.intersection(value)
        ):
            if _all_plain(value.values()):
                return value
            return {key: pack(item) for key, item in value.items()}
        return {DICT_TAG: [[pack(key), pack(item)] for key, item in value.items()]}
    if isinstance(value, list):
        return value if _all_plain(value) else [pack(item) for item in value]
    if isinstance(value, tuple):
        return {TUPLE_TAG: list(value) if _all_plain(value) else [pack(item) for item in value]}
    if isinstance(value, _SCALARS):  # a subclass: JSON writes it as its base type
        return value
    raise CodecError(f"cannot encode a value of type {type(value).__name__!r}")


def unpack(value: Any) -> Any:
    """The value :func:`pack` was given, from its (decoded) output."""
    kind = type(value)
    if kind is list:
        return value if _all_plain(value) else [unpack(item) for item in value]
    if kind is not dict:
        return value
    if len(value) == 1:
        ((tag, inner),) = value.items()
        if tag == TUPLE_TAG:
            return tuple(inner) if _all_plain(inner) else tuple(map(unpack, inner))
        if tag == DICT_TAG:
            return {unpack(key): unpack(item) for key, item in inner}
    if _all_plain(value.values()):
        return value
    return {key: unpack(item) for key, item in value.items()}


def lower(value: Any) -> Any:
    """``value`` with every tuple lowered to a list, as JSON reads it back."""
    if isinstance(value, (list, tuple)):
        return [lower(item) for item in value]
    if isinstance(value, dict):
        return {key: lower(item) for key, item in value.items()}
    return value


def _refuse(value: Any) -> Any:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: The one compact encoder, built once.  ``json.dumps`` and even a kept
#: ``JSONEncoder.encode`` build this same C encoder afresh on every call,
#: which costs more than encoding a journal record.  No cycle markers: a
#: cyclic value ends in ``RecursionError`` instead of ``ValueError``.
_encode = c_make_encoder(None, _refuse, encode_basestring, None, ":", ",", False, False, True)


def dumps(value: Any) -> bytes:
    """Compact UTF-8 JSON for ``value`` (not packed: see :func:`pack`)."""
    try:
        return "".join(_encode(value, 0)).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(f"cannot encode as JSON: {error}") from error


def loads(data: bytes) -> Any:
    """The JSON value in ``data`` (UTF-8); :class:`CodecError` on junk."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError: bad UTF-8, bad JSON, or an integer literal longer than
        # the interpreter converts; RecursionError: a body nested deeper
        # than the parser's stack.
        raise CodecError(f"undecodable JSON: {error}") from error
