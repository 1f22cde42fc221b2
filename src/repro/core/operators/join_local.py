"""Local (machine-evaluated) equi-join.

The paper's joins are crowd-powered (``samePerson``), but the engine also
needs a conventional join for the purely-local parts of a workload — e.g.
joining crowd results back to a dimension table, or the crowd-free
engine-overhead benchmark (E13).  This is a classic blocking hash join:
both inputs are buffered as column-major batches and joined in one of two
ways, which produce the same rows in the same order:

- **By dictionary code**, when the larger input reaches
  :data:`~repro.storage.accel.MIN_ROWS` and either key is a string column
  scanned out of a table (it already carries codes): both keys become codes
  of one dictionary and numpy builds and probes (:meth:`_coded_join`).
- **By value** otherwise, the reference: the build (left) side is hashed on
  its key — or, when the build child is a base-table scan whose key column
  already carries a hash index, the probe goes straight through that index
  — and the probe side drives one gather per side to assemble the output.

NULL keys never match, following SQL equi-join semantics.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Sequence

from repro.core.operators.base import Operator
from repro.storage import accel
from repro.storage.batch import RowBatch
from repro.storage.expressions import ColumnRef, Expression, compile_batch_expression
from repro.storage.indexes import HashIndex
from repro.storage.schema import Schema

__all__ = ["LocalHashJoinOperator"]


class LocalHashJoinOperator(Operator):
    """Joins its two inputs on locally evaluable equi-join keys.

    Parameters
    ----------
    left_key, right_key:
        Expressions evaluated against left (child 0) / right (child 1) rows;
        rows pair up when the two keys compare equal.  Keys must be hashable.
    left_schema, right_schema:
        Schemas of the two children.
    build_side:
        Which input is hashed: ``"left"`` (the default, preserving the
        classic build-left convention) or ``"right"``.  The planner picks
        the side with the cheaper build — fewer estimated rows, or one
        whose base table already carries a hash index on the join key.
        Output schema is always ``left ++ right``; only the emission order
        (probe-major) depends on the build side, and no ordering is
        guaranteed either way.
    """

    def __init__(
        self,
        left_key: Expression,
        right_key: Expression,
        left_schema: Schema,
        right_schema: Schema,
        *,
        build_side: str = "left",
    ):
        if build_side not in ("left", "right"):
            raise ValueError(f"build_side must be 'left' or 'right', got {build_side!r}")
        suffix = "" if build_side == "left" else ",build=right"
        super().__init__(f"join(local-hash{suffix})")
        self.left_key = left_key
        self.right_key = right_key
        self.build_side = build_side
        self._schema = left_schema.concat(right_schema)
        self._left_batches: list[RowBatch] = []
        self._right_batches: list[RowBatch] = []

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def consumed_input(self) -> list[tuple[RowBatch, int]]:
        buffered = [(batch, 0) for batch in self._left_batches]
        buffered += [(batch, 1) for batch in self._right_batches]
        return buffered

    def _process(self, batch: RowBatch, slot: int) -> None:
        (self._left_batches if slot == 0 else self._right_batches).append(batch)

    def _index_backed_build(
        self, build: RowBatch, build_key: Expression, build_child: int
    ) -> Callable[[Any], Sequence[int]] | None:
        """The build table's existing hash index as the probe, when reusable.

        Reusable means: the build child is a base-table scan (positions in
        the buffered batch equal table positions), the build key is a bare
        column reference, that column carries a hash index, and the scan saw
        every current row of the table.  The index answers ascending
        position lists — exactly what the build loop below would produce.
        """
        from repro.core.operators.scan import ScanOperator

        if type(self.children[build_child]) is not ScanOperator:
            return None
        if not isinstance(build_key, ColumnRef):
            return None
        scan = self.children[build_child]
        index = scan.table.index_on(build_key.name.rsplit(".", 1)[-1])
        if not isinstance(index, HashIndex):
            return None
        if len(build) != len(scan.table):
            return None
        return index.positions

    def _coded_join(
        self,
        build: RowBatch,
        probe: RowBatch,
        build_key: Expression,
        probe_key: Expression,
        build_schema: Schema,
        probe_schema: Schema,
    ) -> tuple[Any, Any] | None:
        """Join by dictionary code: ``(build_take, probe_take)`` ndarrays.

        Eligible (otherwise None) when either key is a bare column reference
        whose batch column carries dictionary codes (string columns scanned
        out of a table).  The other side's keys are encoded into that
        dictionary — one C-driven dict lookup per key, or per dictionary entry
        when that side is coded too — so no Python loop runs per row.  A
        stable argsort groups build positions by code with ascending positions
        inside each group (a CSR: ``order`` plus per-code ``starts`` and
        ``counts``), and every probe row expands to its code's slice of
        ``order`` with ``np.repeat``: exactly the probe-major, ascending-build
        order of the dict build below.  Key equality is identical because the
        encoding *is* a dict keyed by value; NULL keys (on either side they
        land in one code) get a zero count, so they match nothing.
        """
        build_coded = _key_codes(build, build_key)
        probe_coded = _key_codes(probe, probe_key)
        if build_coded is None and probe_coded is None:
            return None
        encoding = (build_coded or probe_coded)[1]
        np = accel.np
        # Shifted by one: bucket 0 holds the keys the dictionary lacks, which
        # only the side encoded into another's dictionary can have — so the
        # two sides never meet there.
        build_codes = _codes_in(encoding, build, build_key, build_schema, build_coded) + 1
        probe_codes = _codes_in(encoding, probe, probe_key, probe_schema, probe_coded) + 1

        order = np.argsort(build_codes, kind="stable")
        counts = np.bincount(build_codes, minlength=len(encoding) + 1)
        starts = np.cumsum(counts) - counts
        null = encoding.code_of(None)
        if null is not None:
            counts[null + 1] = 0  # NULL build rows stay in ``order`` but match nothing
        matches = counts[probe_codes]
        probe_take = np.repeat(np.arange(len(probe_codes)), matches)
        block_starts = np.cumsum(matches) - matches
        offsets = np.repeat(starts[probe_codes] - block_starts, matches)
        return order[np.arange(len(probe_take)) + offsets], probe_take

    def _on_inputs_finished(self) -> None:
        left_schema = self.input_schema(0)
        right_schema = self.input_schema(1)
        left = RowBatch.vstack(left_schema, self._left_batches)
        right = RowBatch.vstack(right_schema, self._right_batches)
        self._left_batches.clear()
        self._right_batches.clear()

        if self.build_side == "left":
            build, probe = left, right
            build_key, probe_key = self.left_key, self.right_key
            build_schema, probe_schema, build_child = left_schema, right_schema, 0
        else:
            build, probe = right, left
            build_key, probe_key = self.right_key, self.left_key
            build_schema, probe_schema, build_child = right_schema, left_schema, 1

        takes = None
        if max(len(build), len(probe)) >= accel.MIN_ROWS:
            takes = self._coded_join(
                build, probe, build_key, probe_key, build_schema, probe_schema
            )
        if takes is not None:
            build_take, probe_take = takes
            if len(probe_take):
                if self.build_side == "left":
                    out = left._take_array(build_take).concat(right._take_array(probe_take))
                else:
                    out = left._take_array(probe_take).concat(right._take_array(build_take))
                self.emit(out)
            return

        matches_of = self._index_backed_build(build, build_key, build_child)
        if matches_of is None:
            build_keys = compile_batch_expression(build_key, build_schema)(build)
            buckets: dict[Any, list[int]] = {}
            setdefault = buckets.setdefault
            for position, key in enumerate(build_keys):
                if key is not None:
                    setdefault(key, []).append(position)
            matches_of = buckets.get

        probe_keys = compile_batch_expression(probe_key, probe_schema)(probe)
        build_take: list[int] = []
        probe_take: list[int] = []
        for position, key in enumerate(probe_keys):
            if key is None:
                continue
            matches = matches_of(key)
            if matches:
                build_take.extend(matches)
                probe_take.extend([position] * len(matches))
        if not build_take:
            return
        if self.build_side == "left":
            out = left.take(build_take).concat(right.take(probe_take))
        else:
            out = left.take(probe_take).concat(right.take(build_take))
        self.emit(out)


def _key_codes(batch: RowBatch, key: Expression) -> tuple[Any, Any] | None:
    """``(codes, encoding)`` when ``key`` is a bare column carrying dictionary codes."""
    if not isinstance(key, ColumnRef):
        return None
    index = batch.schema.try_index_of(key.name)
    return None if index is None else batch._codes(index)


def _codes_in(
    encoding: accel.ColumnEncoding,
    batch: RowBatch,
    key: Expression,
    schema: Schema,
    coded: tuple[Any, Any] | None,
) -> Any:
    """``batch``'s join keys as codes of ``encoding``: -1 where it has no entry."""
    if coded is not None:
        codes, own = coded
        if own is encoding:
            return codes
        if len(own) <= len(batch):  # translate the smaller thing: the dictionary
            return _encoded(encoding, own.values)[codes]
    return _encoded(encoding, compile_batch_expression(key, schema)(batch))


def _encoded(encoding: accel.ColumnEncoding, keys: Sequence[Any]) -> Any:
    np = accel.np
    return np.fromiter(map(encoding.index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
