"""Model test: a column-store ``Table`` behaves like a list of value tuples.

Any interleaving of the insert paths (row-shaped and column-shaped, below and
above the 256-row accel switch), ``truncate`` and ``create_index`` is run
against a plain-Python reference — a list of tuples plus the id of its first
element — and after every step the table must answer every read the way the
reference does: rows, ids, polling, lookups, statistics, index positions and
the column snapshot.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.exec.handle import QueryHandle
from repro.storage import DataType, Row, RowBatch, Schema, Table, accel

SCHEMA = Schema.of(("k", DataType.STRING), ("n", DataType.INTEGER), ("x", DataType.ANY))
QUALIFIED = SCHEMA.qualified("other")  # same shape, other names: the validated path


class Key(int):
    """An int whose hashing is counted — how the test sees a column being read."""

    hashed = 0

    def __hash__(self) -> int:
        Key.hashed += 1
        return int.__hash__(self)


keys = st.sampled_from(("a", "b", "c", "", "é")) | st.none()
numbers = st.integers(-3, 3) | st.none()
payloads = st.integers(0, 4).map(Key) | st.none()
hashable_rows = st.tuples(keys, numbers, payloads)
#: A list in the ANY column makes it unhashable: ``distinct_count`` is None.
any_rows = hashable_rows | st.tuples(keys, numbers, st.just([1]))
small = st.lists(any_rows, min_size=0, max_size=5)
#: Short lists tiled past 256 rows exercise the ndarray side of every switch.
sizes = st.sampled_from((None, None, None, 256, 300))
BATCH_KINDS = ("tuple", "ndarray", "lazy")


def tiled(rows: list[tuple], size: int | None) -> list[tuple]:
    if size is None or not rows:
        return rows
    return [rows[i % len(rows)] for i in range(size)]


def make_batch(rows: list[tuple], kind: str) -> RowBatch:
    """``rows`` as a batch whose columns are tuples, ndarrays or lazy gathers."""
    if kind == "tuple" or not rows:
        return RowBatch.from_values(SCHEMA, rows)
    if kind == "ndarray":
        columns = tuple(accel.object_array(column) for column in zip(*rows))
        return RowBatch.of_columns(SCHEMA, columns, len(rows))
    backwards = RowBatch.from_values(SCHEMA, rows[::-1])
    return backwards._take_array(accel.np.arange(len(rows) - 1, -1, -1))


class TableModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = Table("t", SCHEMA)
        self.model: list[tuple] = []
        self.first_id = 0
        self.handle = QueryHandle("q", "<model>", None, self.table)
        self.polled_up_to = -1
        #: Bumped by every mutation; column -> epoch of its last distinct_count.
        self.epoch = 0
        self.counted_at: dict[str, int] = {}

    # -- mutations -----------------------------------------------------------

    def landed(self, rows, ids=None):
        if ids is not None:
            start = self.first_id + len(self.model)
            assert list(ids) == list(range(start, start + len(rows)))
        self.model.extend(tuple(row) for row in rows)
        self.epoch += 1

    @rule(row=any_rows, shape=st.sampled_from(("values", "mapping", "row", "foreign-row")))
    def insert(self, row, shape):
        given = {
            "values": list(row),
            "mapping": dict(zip(("k", "n", "x"), row)),
            "row": Row(SCHEMA, row),
            "foreign-row": Row(QUALIFIED, row),
        }[shape]
        self.landed([row], [self.table.insert(given)])

    @rule(rows=small, size=sizes)
    def insert_many(self, rows, size):
        rows = tiled(rows, size)
        self.landed(rows, self.table.insert_many(iter(rows)))

    @rule(rows=small, size=sizes, foreign=st.booleans())
    def append_rows(self, rows, size, foreign):
        rows = tiled(rows, size)
        schema = QUALIFIED if foreign else SCHEMA
        assert self.table.append_rows(Row(schema, row) for row in rows) == len(rows)
        self.landed(rows)

    @rule(rows=small, size=sizes, kind=st.sampled_from(BATCH_KINDS), foreign=st.booleans())
    def insert_batch(self, rows, size, kind, foreign):
        rows = tiled(rows, size)
        batch = make_batch(rows, kind)
        if foreign:
            batch = batch.with_schema(QUALIFIED)
        assert self.table.insert_batch(batch) == len(rows)
        self.landed(rows)

    @rule()
    def truncate(self):
        self.table.truncate()
        self.first_id += len(self.model)
        self.model.clear()
        self.epoch += 1

    @rule(column=st.sampled_from(("k", "n")), kind=st.sampled_from(("hash", "sorted")))
    def create_index(self, column, kind):
        self.table.create_index(column, kind)
        self.epoch += 1

    # -- polling through a query handle ---------------------------------------

    @rule()
    def poll(self):
        """Each row is delivered once: whatever is newer than the last poll."""
        ids = range(self.first_id, self.first_id + len(self.model))
        expected = [row for rid, row in zip(ids, self.model) if rid > self.polled_up_to]
        assert [row.values for row in self.handle.poll()] == expected
        if expected:
            self.polled_up_to = ids[-1]

    # -- reads, checked after every step ---------------------------------------

    @invariant()
    def rows_ids_and_snapshot_agree(self):
        table, model = self.table, self.model
        assert len(table) == len(model)
        assert [row.values for row in table.rows()] == model
        assert [row.values for row in table] == model
        assert all(row.schema is SCHEMA for row in table.rows())
        assert table.last_row_id() == (self.first_id + len(model) - 1 if model else -1)
        assert [row.values for row in table.to_batch().to_rows()] == model
        assert table.to_batch() is table.to_batch()

    @invariant()
    @precondition(lambda self: len(self.model) < 64)
    def rows_since_every_id(self):
        ids = range(self.first_id, self.first_id + len(self.model))
        for k in range(-1, self.first_id + len(self.model) + 1):
            expected = [(rid, row) for rid, row in zip(ids, self.model) if rid > k]
            assert [(rid, row.values) for rid, row in self.table.rows_since(k)] == expected

    @invariant()
    def rows_since_boundaries(self):
        last = self.first_id + len(self.model) - 1
        for k in (-1, self.first_id - 1, self.first_id, last - 1, last, last + 1):
            got = self.table.rows_since(k)
            assert [rid for rid, _ in got] == list(range(max(k + 1, self.first_id), last + 1))
            assert [row.values for _, row in got] == self.model[len(self.model) - len(got):]

    @invariant()
    def lookups_and_index_positions(self):
        table, model = self.table, self.model
        for position, column in enumerate(("k", "n")):
            for value in {row[position] for row in model} | {("missing", 99)[position], None}:
                where = [p for p, row in enumerate(model) if row[position] == value]
                assert [row.values for row in table.lookup(column, value)] == [
                    model[p] for p in where
                ]
                index = table.index_on(column)
                if index is not None:
                    assert index.positions_equal(value) == ([] if value is None else where)
            index = table.index_on(column)
            if index is not None and index.kind == "sorted" and column == "n":
                assert index.positions_range(low=0) == [
                    p for p, row in enumerate(model) if row[1] is not None and row[1] >= 0
                ]
        assert [row.values for row in table.select(lambda row: row["n"] == 1)] == [
            row for row in model if row[1] == 1
        ]

    @invariant()
    def distinct_counts_are_right_and_read_not_scanned(self):
        table, model = self.table, self.model
        for position, column in enumerate(("k", "n", "x")):
            values = [row[position] for row in model]
            try:
                expected = len(set(values) - {None})
            except TypeError:
                expected = None
            unchanged = self.counted_at.get(column) == self.epoch
            hashed = Key.hashed
            assert table.distinct_count(column) == expected
            if unchanged:
                assert Key.hashed == hashed, f"{column} was re-counted on an unchanged table"
            self.counted_at[column] = self.epoch
        assert table.distinct_count("nope") is None


TestTableModel = TableModel.TestCase
TestTableModel.settings = settings(max_examples=60, stateful_step_count=12, deadline=None)
