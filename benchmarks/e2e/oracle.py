"""Output checks: what each generated query must return.

Expected results are computed here, independently of the engine, from the
*generated* data (``datagen``), never read back out of the program.  The
analytic checks use numpy over the generated columns: a pure-Python pass
over 200,000 rows costs ~50 ms per query, which times 360 queries would
not fit a run; the arithmetic is a filter, a bincount and a sort, none of
which share code with ``repro.storage.accel``.

Every check takes the rows as plain value sequences (``row.values`` for the
embedded engine, the decoded ``values`` lists for TCP replies), so one
oracle serves both paths.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Sequence

import numpy as np

from datagen import ItemsData, Op

Rows = Sequence[Sequence[Any]]


class AnalyticOracle:
    """Expected answers for the crowd-free queries over ``items``/``categories``."""

    def __init__(self, data: ItemsData):
        self._data = data
        self._prices = np.asarray(data.prices, dtype=np.int64)
        self._scores = np.asarray(data.scores, dtype=np.float64)
        code_of = {name: code for code, name in enumerate(data.category_names)}
        self._codes = np.asarray([code_of[c] for c in data.categories], dtype=np.int64)
        self._weights = np.asarray(data.category_weights, dtype=np.float64)

    def check(self, op: Op, rows: Rows) -> bool:
        return getattr(self, f"_check_{op.kind}")(rows, *op.expect)

    def _check_point(self, rows: Rows, item_id: int) -> bool:
        data = self._data
        expected = (item_id, data.categories[item_id], data.prices[item_id])
        return len(rows) == 1 and tuple(rows[0]) == expected

    def _check_groupby(self, rows: Rows, threshold: int) -> bool:
        keep = self._prices > threshold
        codes = self._codes[keep]
        n_groups = len(self._weights)
        counts = np.bincount(codes, minlength=n_groups)
        sums = np.bincount(codes, weights=self._scores[keep], minlength=n_groups)
        expected = {
            self._data.category_names[code]: (int(counts[code]), sums[code] / counts[code])
            for code in np.nonzero(counts)[0]
        }
        if len(rows) != len(expected):
            return False
        for category, n, mean_score in rows:
            want = expected.get(category)
            if want is None or n != want[0] or not math.isclose(mean_score, want[1], rel_tol=1e-9):
                return False
        return True

    def _check_topk(self, rows: Rows, threshold: int) -> bool:
        ids = np.nonzero(self._prices > threshold)[0]
        order = ids[np.argsort(-self._scores[ids], kind="stable")[:100]]
        expected = [(int(i), float(self._scores[i])) for i in order]
        return [tuple(row) for row in rows] == expected

    def _check_join(self, rows: Rows, threshold: int) -> bool:
        ids = np.nonzero(self._prices > threshold)[0]
        if len(rows) != len(ids):
            return False
        got = np.asarray(rows, dtype=np.float64)
        order = np.argsort(got[:, 0], kind="stable")
        got_ids = got[order, 0].astype(np.int64)
        return bool(
            np.array_equal(got_ids, ids)
            and np.array_equal(got[order, 1], self._weights[self._codes[ids]])
        )


class LookupOracle:
    """``findCEO`` lookups: one row, the right company, a stable answer.

    The simulated crowd is noisy by design — a majority of three is wrong
    for a few percent of companies — so the *bought* answer is the
    reference: every later lookup of a company must return exactly what its
    first lookup returned (the Task Cache's promise).  Agreement of those
    bought answers with the ground-truth directory is reported, not gated.
    """

    def __init__(self, directory: Sequence[tuple[str, str, str]]):
        self._directory = directory  # [(company, ceo, phone)] by company index
        self._bought: dict[tuple[int, int], tuple[Any, Any]] = {}

    def check(self, op: Op, rows: Rows, shard: int = 0) -> bool:
        """``shard`` names the engine that answered: each buys its own answers."""
        (index,) = op.expect
        if len(rows) != 1 or rows[0][0] != self._directory[index][0]:
            return False
        answer = (rows[0][1], rows[0][2])
        return self._bought.setdefault((shard, index), answer) == answer

    def truth_agreement(self) -> float:
        """Share of bought answers equal to the ground-truth CEO and phone."""
        if not self._bought:
            return 0.0
        right = sum(
            1
            for (_, index), answer in self._bought.items()
            if answer == self._directory[index][1:]
        )
        return right / len(self._bought)


def check_crowd(op: Op, rows: Rows) -> bool:
    """Crowd queries return product names from inside their price window.

    A filter keeps a duplicate-free subset of the window; a sort returns
    the whole window, each product once (order is the crowd's opinion).
    """
    (window,) = op.expect
    names = [row[0] for row in rows]
    if op.kind == "filter":
        return len(set(names)) == len(names) and set(names) <= set(window)
    return sorted(names) == sorted(window)


class Checker:
    """Dispatches ops to their oracle and keeps the run's row digest."""

    def __init__(
        self,
        *,
        items: ItemsData | None = None,
        directory: Sequence[tuple[str, str, str]] | None = None,
    ):
        self._analytic = AnalyticOracle(items) if items is not None else None
        self.lookups = LookupOracle(directory) if directory is not None else None
        self._digest = hashlib.sha256()

    def check(self, op: Op, rows: Rows, shard: int = 0) -> bool:
        """Whether ``rows`` is a right answer to ``op``; folds rows into the digest."""
        self._digest.update(repr([tuple(row) for row in rows]).encode())
        if op.kind == "lookup":
            return self.lookups.check(op, rows, shard)
        if op.kind in ("filter", "rating", "compare"):
            return check_crowd(op, rows)
        return self._analytic.check(op, rows)

    @property
    def digest(self) -> str:
        """SHA-256 over every checked result, in check order."""
        return self._digest.hexdigest()
