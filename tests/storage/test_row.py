"""Unit tests for the Row value type."""

import pytest

from repro.errors import SchemaError
from repro.storage import Column, DataType, Row, Schema


@pytest.fixture
def schema():
    return Schema.of(
        ("companies.name", DataType.STRING),
        ("companies.employees", DataType.INTEGER),
    )


class TestRowConstruction:
    def test_positional_construction(self, schema):
        row = Row(schema, ["Acme", 100])
        assert row["name"] == "Acme"
        assert row[1] == 100

    def test_wrong_arity_rejected(self, schema):
        with pytest.raises(SchemaError):
            Row(schema, ["Acme"])

    def test_from_mapping_uses_unqualified_names(self, schema):
        row = Row.from_mapping(schema, {"name": "Acme", "employees": 5})
        assert row["companies.name"] == "Acme"

    def test_from_mapping_missing_columns_become_null(self, schema):
        row = Row.from_mapping(schema, {"name": "Acme"})
        assert row["employees"] is None

    def test_from_mapping_unknown_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="unknown columns"):
            Row.from_mapping(schema, {"name": "Acme", "bogus": 1})

    def test_type_validation_happens_on_construction(self, schema):
        with pytest.raises(Exception):
            Row(schema, ["Acme", "not an int"])


class TestRowAccess:
    def test_get_with_default(self, schema):
        row = Row(schema, ["Acme", 1])
        assert row.get("missing", 42) == 42
        assert row.get("name") == "Acme"

    def test_to_dict(self, schema):
        row = Row(schema, ["Acme", 1])
        assert row.to_dict() == {"companies.name": "Acme", "companies.employees": 1}

    def test_iteration_and_len(self, schema):
        row = Row(schema, ["Acme", 1])
        assert list(row) == ["Acme", 1]
        assert len(row) == 2


class TestRowDerivation:
    def test_concat(self, schema):
        other_schema = Schema.of(("spotted.id", DataType.INTEGER),)
        left = Row(schema, ["Acme", 1])
        right = Row(other_schema, [7])
        joined = left.concat(right)
        assert joined.values == ("Acme", 1, 7)
        assert len(joined.schema) == 3

    def test_extended_adds_columns(self, schema):
        row = Row(schema, ["Acme", 1]).extended(
            [Column("ceo", DataType.STRING), Column("phone", DataType.STRING)],
            ["Jane Doe", "555-0100"],
        )
        assert row["ceo"] == "Jane Doe"
        assert len(row) == 4

    def test_rows_are_immutable_value_objects(self, schema):
        row = Row(schema, ["Acme", 1])
        same = Row(schema, ["Acme", 1])
        different = Row(schema, ["Acme", 2])
        assert row == same
        assert row != different
        with pytest.raises(AttributeError):
            row.new_attribute = 1  # __slots__ prevents accidental mutation

    def test_hash_for_hashable_payloads(self, schema):
        row = Row(schema, ["Acme", 1])
        assert hash(row) == hash(Row(schema, ["Acme", 1]))

    def test_hash_fallback_for_unhashable_payloads(self):
        schema = Schema.of(("answers", DataType.ANSWER_LIST),)
        row = Row(schema, [[1, 2, 3]])
        assert isinstance(hash(row), int)
