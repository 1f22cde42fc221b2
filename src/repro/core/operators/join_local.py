"""Local (machine-evaluated) equi-join.

The paper's joins are crowd-powered (``samePerson``), but the engine also
needs a conventional join for the purely-local parts of a workload — e.g.
joining crowd results back to a dimension table, or the crowd-free
engine-overhead benchmark (E13).  This is a classic blocking hash join:
both inputs are buffered as column-major batches, the build (left) side is
hashed on its key — or, when the build child is a base-table scan whose key
column already carries a hash index, the probe goes straight through that
index — and the probe side drives one gather per side to assemble the
output batch.

NULL keys never match, following SQL equi-join semantics.
"""

from __future__ import annotations

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

    def _accel_join(
        self,
        build: RowBatch,
        probe: RowBatch,
        build_key: Expression,
        probe_key: Expression,
        probe_schema: Schema,
    ) -> tuple[bool, tuple[Any, Any] | None]:
        """Dictionary-code build+probe: ``(handled, (build_take, probe_take))``.

        Eligible when the build key is a bare column reference whose batch
        column carries dictionary codes (string columns scanned out of a
        table).  A stable argsort on the codes groups build positions by key
        with ascending positions inside each group — exactly the bucket lists
        the Python dict build produces — and each probe hit contributes one
        contiguous slice of that order instead of a per-match list append.
        Key equality semantics are identical because the encoding *is* a
        dict keyed by value; NULL build keys carry a code but no probe key
        can reach it (probe NULLs are skipped before the code lookup).
        """
        if len(build) < accel.MIN_ROWS:
            return False, None
        if not isinstance(build_key, ColumnRef):
            return False, None
        key_index = build.schema.try_index_of(build_key.name)
        if key_index is None:
            return False, None
        codes = build._codes(key_index)
        if codes is None:
            return False, None
        codes_array, encoding = codes
        np = accel.np
        order = np.argsort(codes_array, kind="stable")
        counts = np.bincount(codes_array, minlength=len(encoding))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

        probe_keys = compile_batch_expression(probe_key, probe_schema)(probe)
        code_of = encoding.code_of
        slices = []
        positions: list[int] = []
        match_counts: list[int] = []
        for position, key in enumerate(probe_keys):
            if key is None:
                continue
            code = code_of(key)
            if code is None:
                continue
            n = int(counts[code])
            if not n:
                continue
            start = int(starts[code])
            slices.append(order[start : start + n])
            positions.append(position)
            match_counts.append(n)
        if not slices:
            return True, None
        build_take = np.concatenate(slices)
        probe_take = np.repeat(
            np.asarray(positions, dtype=np.intp),
            np.asarray(match_counts),
        )
        return True, (build_take, probe_take)

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
            probe_schema, build_child = right_schema, 0
        else:
            build, probe = right, left
            build_key, probe_key = self.right_key, self.left_key
            probe_schema, build_child = left_schema, 1

        handled, takes = self._accel_join(build, probe, build_key, probe_key, probe_schema)
        if handled:
            if takes is not None:
                build_take, probe_take = takes
                if self.build_side == "left":
                    out = left._take_array(build_take).concat(right._take_array(probe_take))
                else:
                    out = left._take_array(probe_take).concat(right._take_array(build_take))
                self.emit(out)
            return

        matches_of = self._index_backed_build(build, build_key, build_child)
        if matches_of is None:
            build_schema = left_schema if self.build_side == "left" else right_schema
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
