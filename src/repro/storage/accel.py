"""numpy acceleration for the columnar data plane.

The pure-Python column kernels in :mod:`repro.storage.expressions` and the
tuple-based :class:`~repro.storage.batch.RowBatch` derivations are the
*reference* semantics and the small-batch path: everything in this module is
a fast path for batches past the :data:`MIN_ROWS` size switch
that must produce value-identical results and silently steps aside when a
column is not eligible (mixed types, NULLs, objects).

The design follows the encode-once / answer-many shape:

- **Column arrays are built once and reused.**  A batch caches, per column,
  the object ndarray (for gathers), the numeric ndarray (for masks, argsort
  and aggregation), and the dictionary codes (below).  Derivations — slice,
  take, compress — propagate these caches with O(selected) ndarray ops
  instead of rebuilding from the Python tuples; a vstacked batch starts
  without caches and rebuilds any it is asked for.
- **String columns are dictionary-encoded on first scan.**
  :class:`ColumnEncoding` assigns each distinct value a small integer code
  the first time a snapshot (or a statistic) needs the column, and only the
  new tail after that; scans expose the codes as an int ndarray.
  Joins then bucket the build side by sorting codes (pure numpy) instead of
  hashing 100k Python strings, and group-bys aggregate with ``bincount``
  over codes instead of bucketing rows.

Determinism notes, load-bearing for the batch-vs-row property tests:
``np.bincount`` accumulates sequentially in input order, which is exactly
the order the per-group Python ``sum`` sees, so float sums are bit-identical
(numpy's pairwise ``np.sum`` would NOT be).  Stable ``argsort`` on an
order-reversed key (negated floats, bit-inverted ``~x`` integers: negating
int64's minimum wraps to itself) equals Python's stable
``list.sort(reverse=True)``.  Numeric eligibility
rejects object/string/bool dtypes, NULLs, and NaNs where ordering differs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "MIN_ROWS",
    "np",
    "ColumnEncoding",
    "object_array",
    "numeric_array",
    "sortable_array",
    "array_kernel",
]

#: The size switch: below this many rows the plain tuple/dict/timsort paths
#: beat ndarray setup costs, so every accelerated site checks it first.
MIN_ROWS = 256


class ColumnEncoding:
    """Append-only dictionary encoding for one table column.

    Codes are assigned in first-appearance order and never change, so a code
    array sliced/gathered along with its batch always decodes through the
    same ``values`` list, even as the table keeps growing.
    """

    __slots__ = ("values", "index")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self.index: dict[Any, int] = {}

    def encode_many(self, values: Sequence[Any]) -> list[int]:
        """The codes of ``values``, in order; unseen values get the next codes.

        Tables encode a column's un-encoded tail in one call: new values are
        registered in first-appearance order, then every code is one dict
        lookup driven from C.
        """
        index = self.index
        for value in dict.fromkeys(values):
            if value not in index:
                index[value] = len(self.values)
                self.values.append(value)
        return list(map(index.__getitem__, values))

    def code_of(self, value: Any) -> int | None:
        """The existing code for ``value``, or None (never assigns)."""
        return self.index.get(value)

    def __len__(self) -> int:
        return len(self.values)


def object_array(column: Sequence[Any]) -> "Any":
    """The column as a 1-D object ndarray (original objects, no conversion).

    ``np.empty + fill`` keeps nested sequences (tuple/list values) as single
    elements where ``np.asarray`` would try to build a 2-D array.
    """
    arr = np.empty(len(column), dtype=object)
    try:
        arr[:] = column
    except ValueError:  # ragged/nested values broke broadcasting; fill one by one
        for i, value in enumerate(column):
            arr[i] = value
    return arr


def numeric_array(column: Sequence[Any], *, assume_floats: bool = False) -> "Any | None":
    """The column as an int/float ndarray, or None if not homogeneous numeric.

    Bool, string, object and mixed columns (including any ``None``) are
    rejected — the Python reference path keeps their exact semantics.  A
    float array is only accepted when every source value actually *is* a
    float: a mixed int/float column silently coerces ints to float64, which
    loses exactness beyond 2**53 where Python's int/float comparisons and
    sums stay exact.  ``assume_floats`` skips that sweep for callers that
    already guarantee it (FLOAT table columns are coerced on insert).
    """
    try:
        arr = np.asarray(column)
    except (TypeError, ValueError):
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "if":
        return None
    if (
        arr.dtype.kind == "f"
        and not assume_floats
        and not all(isinstance(v, float) for v in column)
    ):
        return None
    return arr


def sortable_array(column: Sequence[Any]) -> "Any | None":
    """A numeric array safe for stable argsort, or None.

    NaNs are excluded because numpy orders them last while Python's
    comparison-based sort has no defined order for them.
    """
    arr = numeric_array(column)
    if arr is None:
        return None
    if arr.dtype.kind == "f" and np.isnan(arr).any():
        return None
    return arr


def array_kernel(expression: Any, batch: Any) -> "Any | None":
    """Evaluate a simple numeric expression straight on cached column arrays.

    Covers bare column references and ``+ - *`` arithmetic over them (with
    int/float literals), entirely in ndarray ops — no Python column
    materialization.  Returns None whenever exact equivalence with the
    per-row evaluator is not guaranteed: any ineligible column (see
    :func:`numeric_array`), an arithmetic result that is not float64 (int64
    could overflow where Python ints cannot), or division (Python raises on
    a zero divisor where numpy yields inf).  Elementwise float64 ``+ - *``
    is IEEE-identical to Python float arithmetic, so eligible results are
    bit-equal to the reference kernel's.
    """
    from repro.storage.expressions import Arithmetic, ColumnRef

    if isinstance(expression, ColumnRef):
        index = batch.schema.try_index_of(expression.name)
        if index is None:
            return None
        return batch._num_array(index)
    if isinstance(expression, Arithmetic) and expression.op in ("+", "-", "*"):
        left = _array_operand(expression.left, batch)
        right = _array_operand(expression.right, batch)
        if left is None or right is None:
            return None
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return None  # constant expression: nothing columnar to compute
        try:
            result = {"+": np.add, "-": np.subtract, "*": np.multiply}[
                expression.op
            ](left, right)
        except (OverflowError, TypeError):  # e.g. a literal beyond int64
            return None
        if result.dtype.kind != "f":
            return None
        return result
    return None


def _array_operand(expression: Any, batch: Any) -> "Any | None":
    """An operand for :func:`array_kernel`: ndarray, plain scalar, or None."""
    from repro.storage.expressions import Literal

    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        return None
    return array_kernel(expression, batch)
