"""Column type system for the Qurk storage engine.

The storage engine is deliberately small but typed: every column declares a
:class:`DataType`, and values are validated/coerced when rows are inserted.
Two non-standard types exist because of the crowd setting described in the
paper:

``IMAGE``
    An opaque reference to an image shown to a turker.  In this reproduction
    images are :class:`repro.workloads.images.SyntheticImage` objects (or any
    object exposing ``identity``/``features``), but the storage layer only
    requires them to be hashable-free opaque payloads.

``ANSWER_LIST``
    The multi-answer value described in Section 3 of the paper: a single HIT
    run with *k* assignments yields a list of *k* answers which downstream
    user-defined aggregates reduce.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeCheckError

__all__ = ["DataType", "coerce_value"]


class DataType(enum.Enum):
    """Logical column types understood by the storage engine."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    IMAGE = "image"
    TUPLE = "tuple"
    ANSWER_LIST = "answer_list"
    ANY = "any"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Validate ``value`` against ``data_type``, coercing where unambiguous.

    ``None`` is always accepted (NULL).  Integers are accepted for FLOAT
    columns and widened; strings holding digits are *not* silently coerced,
    because that tends to hide workload-generation bugs.

    Raises
    ------
    TypeCheckError
        If the value cannot be stored in a column of the given type.
    """
    if value is None:
        return None
    if data_type in (DataType.ANY, DataType.IMAGE):
        return value
    if data_type is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        raise TypeCheckError(f"expected BOOLEAN, got {type(value).__name__}: {value!r}")
    if data_type is DataType.INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeCheckError(f"expected INTEGER, got {type(value).__name__}: {value!r}")
        return value
    if data_type is DataType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeCheckError(f"expected FLOAT, got {type(value).__name__}: {value!r}")
        return float(value)
    if data_type is DataType.STRING:
        if not isinstance(value, str):
            raise TypeCheckError(f"expected STRING, got {type(value).__name__}: {value!r}")
        return value
    if data_type is DataType.TUPLE:
        if not isinstance(value, tuple):
            raise TypeCheckError(f"expected TUPLE, got {type(value).__name__}: {value!r}")
        return value
    if data_type is DataType.ANSWER_LIST:
        if not isinstance(value, (list, tuple)):
            raise TypeCheckError(
                f"expected ANSWER_LIST, got {type(value).__name__}: {value!r}"
            )
        return list(value)
    raise TypeCheckError(f"unsupported data type {data_type!r}")  # pragma: no cover
