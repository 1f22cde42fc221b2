"""Bulk loads: ``Table.insert_many`` checks plain rows by the column.

A load whose rows are all plain tuples or lists of the schema's width, with
value types that validation stores unchanged, is transposed once and checked
one column at a time; every other load is validated row by row.  The tests
pin that both ways store the same values and refuse the same loads with the
same errors, and that the column way really builds no row.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, TypeCheckError
from repro.storage import Column, DataType, Row, RowBatch, Schema, Table
from repro.storage import schema as schema_module


class IntSub(int):
    """An int subclass: INTEGER validation keeps it, as the subclass."""


class StrSub(str):
    """A str subclass: STRING validation keeps it, as the subclass."""


#: Values of every kind validation tells apart, shared by all columns.
ODD_VALUES = st.sampled_from(
    (
        None,
        True,
        False,
        0,
        -2,
        1.5,
        0.0,
        "a",
        "",
        (1, 2),
        [1, 2],
        np.int64(3),
        np.float64(2.5),
        np.bool_(True),
        IntSub(4),
        StrSub("s"),
    )
)

#: Per type, values validation accepts.
FITTING: dict[DataType, st.SearchStrategy] = {
    DataType.INTEGER: st.integers(-5, 5),
    DataType.FLOAT: st.floats(-5, 5, allow_nan=False),
    DataType.STRING: st.text("ab", max_size=2),
    DataType.BOOLEAN: st.booleans(),
    DataType.TUPLE: st.tuples(st.integers(0, 3)),
    DataType.ANSWER_LIST: st.lists(st.integers(0, 3), max_size=2).flatmap(
        lambda answers: st.sampled_from((answers, tuple(answers)))
    ),
    DataType.IMAGE: ODD_VALUES,
    DataType.ANY: ODD_VALUES,
}
#: Column types whose fitting values are all hashable: these get a hash index.
INDEXABLE = {DataType.INTEGER, DataType.FLOAT, DataType.STRING, DataType.BOOLEAN, DataType.TUPLE}

schemas = st.lists(
    st.tuples(st.sampled_from(list(DataType)), st.booleans()), min_size=0, max_size=4
).map(
    lambda specs: Schema(
        tuple(Column(f"c{i}", kind, nullable) for i, (kind, nullable) in enumerate(specs))
    )
)


def fitting_values(schema: Schema) -> st.SearchStrategy:
    """Values of one row that validation accepts for ``schema``."""
    return st.tuples(
        *(
            FITTING[column.data_type] | st.none()
            if column.nullable
            else FITTING[column.data_type].filter(lambda value: value is not None)
            for column in schema
        )
    )


@st.composite
def any_row(draw, schema: Schema):
    """One input row: any container, width and values, fitting or not."""
    width = len(schema)
    if draw(st.booleans()):
        values = list(draw(fitting_values(schema)))
    else:
        values = draw(st.lists(ODD_VALUES, min_size=width, max_size=width))
    if draw(st.integers(0, 9)) == 0:  # a wrong width
        values = values[:-1] if values and draw(st.booleans()) else values + [None]
    kind = draw(st.sampled_from(("tuple", "list", "dict", "row", "foreign row")))
    if kind == "dict":
        mapping = {column.name: value for column, value in zip(schema, values)}
        if draw(st.integers(0, 4)) == 0:
            mapping.pop(next(iter(mapping), None), None)  # a missing column is NULL
        if draw(st.integers(0, 9)) == 0:
            mapping["unknown"] = 1
        return mapping
    if kind in ("row", "foreign row"):
        # A Row validated against a schema of the same width: the table's own
        # names or others, and the table's own types or others.
        types = draw(st.lists(st.sampled_from(list(DataType)), min_size=width, max_size=width))
        prefix = "c" if kind == "row" else "d"
        own = draw(st.booleans())
        row_schema = Schema(
            tuple(
                column if own else Column(f"{prefix}{i}", kind_)
                for i, (column, kind_) in enumerate(zip(schema, types))
            )
        )
        try:
            return Row(row_schema, values)
        except Exception:
            return tuple(values)
    return tuple(values) if kind == "tuple" else values


def row_by_row(schema: Schema, rows: list) -> list[tuple] | Exception:
    """What inserting each row through ``Row(schema, values)`` stores, or the first error."""
    stored = []
    try:
        for row in rows:
            if isinstance(row, Row):
                stored.append(Row(schema, row.values).values)
            elif isinstance(row, dict):
                stored.append(Row.from_mapping(schema, row).values)
            else:
                stored.append(Row(schema, row).values)
    except Exception as error:  # noqa: BLE001 - the reference records any error
        return error
    return stored


def refuse(*args, **kwargs):
    raise AssertionError("called on a path that must not need it")


def typed(values) -> list[tuple[type, object]]:
    return [(type(value), value) for value in values]


@st.composite
def loads(draw):
    schema = draw(schemas)
    preload = draw(st.lists(fitting_values(schema), max_size=3))
    mode = draw(st.sampled_from(("plain", "one odd value", "mixed")))
    if mode == "mixed":
        return schema, preload, draw(st.lists(any_row(schema), max_size=6))
    # Plain rows of fitting values take the column path; one odd value in
    # them (NULL half the time) is what the column check alone must catch.
    rows = [list(values) for values in draw(st.lists(fitting_values(schema), max_size=6))]
    if mode == "one odd value" and rows and rows[0]:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(schema) - 1))] = draw(st.none() | ODD_VALUES)
    container = draw(st.sampled_from((tuple, list, lambda values: dict(zip(schema.names, values)))))
    return schema, preload, [container(values) for values in rows]


@given(loads())
@settings(max_examples=300, deadline=None)
def test_column_path_and_row_path_agree(load):
    schema, preload, rows = load
    table = Table("t", schema)
    table.insert_many(preload)
    for column in schema:
        if column.data_type in INDEXABLE:
            table.create_index(column.name)
    before = (len(table), table._version, table.rows().columns())
    indexes = copy.deepcopy({index.column: index._slots for index in table.indexes})

    expected = row_by_row(schema, rows)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            table.insert_many(rows)
        assert str(raised.value) == str(expected)
        assert (len(table), table._version, table.rows().columns()) == before
        assert {index.column: index._slots for index in table.indexes} == indexes
        return

    ids = table.insert_many(rows)
    assert ids == list(range(len(preload), len(preload) + len(rows)))
    stored = table.rows(len(preload) - 1)
    assert [typed(row.values) for row in stored] == [typed(values) for values in expected]
    for index in table.indexes:
        position = schema.index_of(index.column)
        for key in {values[position] for values in expected if values[position] is not None}:
            held = [i for i, row in enumerate(table.rows()) if row.values[position] == key]
            assert index.positions_equal(key) == held


class TestColumnPath:
    SCHEMA = Schema.of(
        ("id", DataType.INTEGER),
        ("category", DataType.STRING),
        ("price", DataType.INTEGER),
        ("score", DataType.FLOAT),
    )

    @staticmethod
    def factory_rows(n: int) -> list[tuple[int, str, int, float]]:
        return [(i, f"c{i % 17}", (i * 7919) % 1000, i / n) for i in range(n)]

    def test_plain_typed_load_builds_no_row(self, monkeypatch):
        rows = self.factory_rows(20_000)
        reference = Table("items", self.SCHEMA)
        reference.create_index("category", "hash")
        for row in rows:
            reference.insert(row)

        monkeypatch.setattr(Row, "__init__", refuse)
        monkeypatch.setattr(schema_module, "coerce_value", refuse)
        table = Table("items", self.SCHEMA)
        table.create_index("category", "hash")
        assert table.insert_many(iter(rows)) == list(range(len(rows)))
        monkeypatch.undo()

        assert table.rows().columns() == reference.rows().columns()
        index, expected = table.index_on("category"), reference.index_on("category")
        for category in {f"c{i}" for i in range(17)}:
            assert index.positions_equal(category) == expected.positions_equal(category)

    @pytest.mark.parametrize(
        "odd",
        [(1, "c", 2, 3), (None, "c", None, 0.5)],
        ids=["int to widen", "NULLs"],
    )
    def test_odd_rows_are_stored_as_one_row_would_be(self, odd):
        table = Table("items", self.SCHEMA)
        table.insert_many(self.factory_rows(5) + [odd])
        assert typed(table.rows()[5].values) == typed(Row(self.SCHEMA, odd).values)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((True, "c", 2, 0.5), "expected INTEGER, got bool"),
            ((np.int64(1), "c", 2, 0.5), "expected INTEGER, got int64"),
            ((1, "c", 2), "row has 3 values but schema has 4 columns"),
            ((1, b"c", 2, 0.5), "expected STRING, got bytes"),
        ],
    )
    def test_refused_loads_raise_the_row_error_and_land_nothing(self, bad, error):
        table = Table("items", self.SCHEMA)
        with pytest.raises((TypeCheckError, SchemaError), match=error):
            table.insert_many(self.factory_rows(5) + [bad] + self.factory_rows(2))
        assert len(table) == 0


class TestValidatedShortcut:
    """A Row or batch skips validation only when its schema has the table's
    names *and* the table's column types and nullability."""

    @pytest.fixture
    def floats(self):
        return Table("t", Schema.of(("x", DataType.FLOAT)))

    def test_integer_row_is_widened(self, floats):
        floats.insert_many([Row(Schema.of(("x", DataType.INTEGER)), [1])])
        (value,) = floats.rows()[0].values
        assert value == 1.0 and type(value) is float

    def test_string_row_is_refused(self, floats):
        with pytest.raises(TypeCheckError, match="expected FLOAT, got str"):
            floats.insert(Row(Schema.of(("x", DataType.STRING)), ["oops"]))
        assert len(floats) == 0

    def test_boolean_batch_is_refused(self, floats):
        batch = RowBatch.from_values(Schema.of(("x", DataType.BOOLEAN)), [(False,), (True,)])
        with pytest.raises(TypeCheckError, match="expected FLOAT, got bool"):
            floats.insert_batch(batch)
        assert len(floats) == 0

    def test_same_shape_batch_keeps_the_fast_path(self, floats, monkeypatch):
        batch = RowBatch.from_values(floats.schema, [(1.0,), (2.5,)])
        monkeypatch.setattr(Table, "insert_many", refuse)  # a batch of our shape never needs it
        assert floats.insert_batch(batch) == 2
        assert floats.rows().columns() == [[1.0, 2.5]]
