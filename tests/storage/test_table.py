"""Unit tests for heap tables, indexes and results-table polling."""

from collections.abc import Sequence

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import DataType, Row, RowsView, Schema, Table


@pytest.fixture
def table():
    schema = Schema.of(("name", DataType.STRING), ("employees", DataType.INTEGER))
    return Table("companies", schema)


class TestInsertAndScan:
    def test_insert_sequence_mapping_and_row(self, table):
        table.insert(["Acme", 10])
        table.insert({"name": "Globex", "employees": 20})
        table.insert(Row(table.schema, ["Initech", 30]))
        assert len(table) == 3
        assert [row["name"] for row in table.scan()] == ["Acme", "Globex", "Initech"]

    def test_insert_many_returns_ids(self, table):
        ids = table.insert_many([["A", 1], ["B", 2]])
        assert ids == [0, 1]

    def test_empty_table_name_rejected(self):
        with pytest.raises(StorageError):
            Table("", Schema.of("a"))

    def test_truncate_keeps_counting_row_ids(self, table):
        table.insert(["A", 1])
        table.truncate()
        assert len(table) == 0
        new_id = table.insert(["B", 2])
        assert new_id == 1


class TestPolling:
    def test_rows_since_returns_only_new_rows(self, table):
        table.insert(["A", 1])
        first_seen = table.last_row_id()
        table.insert(["B", 2])
        table.insert(["C", 3])
        new = table.rows_since(first_seen)
        assert [row["name"] for _, row in new] == ["B", "C"]

    def test_rows_since_minus_one_returns_everything(self, table):
        table.insert(["A", 1])
        assert len(table.rows_since(-1)) == 1

    def test_last_row_id_empty(self, table):
        assert table.last_row_id() == -1


class TestIndexes:
    def test_lookup_without_index_scans(self, table):
        table.insert_many([["A", 1], ["B", 2], ["A", 3]])
        assert len(table.lookup("name", "A")) == 2

    def test_index_built_and_maintained(self, table):
        table.insert_many([["A", 1], ["B", 2]])
        table.create_index("name")
        table.insert(["A", 3])
        assert {row["employees"] for row in table.lookup("name", "A")} == {1, 3}
        assert table.index_on("name") is not None

    def test_index_on_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.create_index("bogus")

    def test_hash_index_unique_duplicate_and_null_keys(self, table):
        """A key seen once holds a bare position, a repeated key a list; both
        answer ascending position lists, and NULL is counted out."""
        table.insert_many([["A", 1], ["B", 2], [None, 3], ["A", 4], [None, 5]])
        table.create_index("name")
        index = table.index_on("name")
        assert index.positions_equal("B") == [1]  # unique: one slot, no list behind it
        assert index.positions_equal("A") == [0, 3]
        assert index.positions_equal("missing") == []
        assert index.positions_equal(None) == []  # NULL = NULL is not True ...
        assert index.positions(None) == [2, 4]  # ... but the rows are on record
        assert index.distinct_count() == table.distinct_count("name") == 2

        table.insert(["B", 6])  # the second row of a key promotes its slot
        table.insert_batch(table.to_batch().slice(0, 1))  # columnar path maintains it too
        assert index.positions_equal("B") == [1, 5]
        assert index.positions_equal("A") == [0, 3, 6]
        assert [row["employees"] for row in table.lookup("name", "A")] == [1, 4, 1]

        table.truncate()
        assert index.positions_equal("A") == [] and index.distinct_count() == 0


class TestRowsView:
    """``Table.rows()`` is a fixed-length, read-only view; rows are built as read."""

    @pytest.fixture
    def filled(self, table):
        table.insert_many([[f"c{i}", i] for i in range(10)])
        return table

    def test_is_a_sequence_of_fixed_length(self, filled):
        view = filled.rows()
        assert isinstance(view, RowsView) and isinstance(view, Sequence)
        filled.insert(["late", 99])
        filled.insert_many([["later", 100]])
        assert len(view) == 10
        assert [row["employees"] for row in view] == list(range(10))
        assert len(filled.rows()) == 12

    def test_survives_truncate(self, filled):
        view = filled.rows()
        filled.truncate()
        filled.insert(["after", 7])
        assert [row.values for row in view] == [(f"c{i}", i) for i in range(10)]
        assert [row.values for row in filled.rows()] == [("after", 7)]

    def test_indexing_and_slicing(self, filled):
        view = filled.rows()
        assert view[0]["employees"] == 0 and view[-1]["employees"] == 9
        assert view[-10]["employees"] == 0
        for bad in (10, -11):
            with pytest.raises(IndexError):
                view[bad]
        assert [row["employees"] for row in view[2:5]] == [2, 3, 4]
        assert [row["employees"] for row in view[::3]] == [0, 3, 6, 9]
        assert [row["employees"] for row in view[::-4]] == [9, 5, 1]
        assert [row["employees"] for row in view[3:5][1:]] == [4]
        assert view[7:2] == [] and len(view[5:]) == 5

    def test_equality_in_both_directions(self, filled):
        view = filled.rows()
        rows = [Row(filled.schema, [f"c{i}", i]) for i in range(10)]
        assert view == rows and rows == view
        assert view == tuple(rows) and view == filled.rows()
        assert view != rows[:-1] and rows[1:] != view
        assert view[:0] == [] and [] == view[:0]

    def test_reading_one_element_builds_one_row(self, filled, monkeypatch):
        built = []
        unchecked = Row.unchecked.__func__

        def counting_unchecked(cls, schema, values):
            built.append(values)
            return unchecked(cls, schema, values)

        monkeypatch.setattr(Row, "unchecked", classmethod(counting_unchecked))
        view = filled.rows()
        assert len(view) == 10 and built == []
        assert view[5].values == ("c5", 5)
        assert built == [("c5", 5)]
