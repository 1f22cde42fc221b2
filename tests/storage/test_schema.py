"""Unit tests for columns and schemas."""

import pytest

from repro.errors import SchemaError, TypeCheckError
from repro.storage import Column, DataType, Schema


class TestColumn:
    def test_unqualified_name(self):
        col = Column("companies.name", DataType.STRING)
        assert col.unqualified_name == "name"

    def test_with_qualifier(self):
        col = Column("name", DataType.STRING).with_qualifier("companies")
        assert col.name == "companies.name"
        assert col.data_type is DataType.STRING

    def test_requalifying_replaces_existing_qualifier(self):
        col = Column("a.name").with_qualifier("b")
        assert col.name == "b.name"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_validate_accepts_null_for_nullable(self):
        assert Column("x", DataType.INTEGER).validate(None) is None

    def test_validate_rejects_null_for_not_null(self):
        with pytest.raises(SchemaError):
            Column("x", DataType.INTEGER, nullable=False).validate(None)

    def test_validate_type_mismatch(self):
        with pytest.raises(TypeCheckError):
            Column("x", DataType.INTEGER).validate("not an int")

    def test_validate_widens_int_to_float(self):
        value = Column("x", DataType.FLOAT).validate(3)
        assert value == 3.0 and isinstance(value, float)


class TestSchema:
    def make(self):
        return Schema.of(
            ("name", DataType.STRING),
            ("employees", DataType.INTEGER),
            ("public", DataType.BOOLEAN),
        )

    def test_of_accepts_mixed_specs(self):
        schema = Schema.of(Column("a", DataType.STRING), ("b", DataType.INTEGER), "c")
        assert schema.names == ("a", "b", "c")
        assert schema.column("c").data_type is DataType.ANY

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_index_of_exact_and_unqualified(self):
        schema = self.make().qualified("companies")
        assert schema.index_of("companies.name") == 0
        assert schema.index_of("employees") == 1

    def test_ambiguous_unqualified_reference(self):
        schema = Schema.of("a.name", "b.name")
        with pytest.raises(SchemaError, match="ambiguous"):
            schema.index_of("name")

    def test_unknown_column(self):
        with pytest.raises(SchemaError, match="unknown column"):
            self.make().index_of("nope")

    def test_contains(self):
        schema = self.make()
        assert "name" in schema
        assert "missing" not in schema

    def test_concat(self):
        left = Schema.of("l.a", "l.b")
        right = Schema.of("r.c")
        assert left.concat(right).names == ("l.a", "l.b", "r.c")

    def test_extend(self):
        schema = self.make().extend(Column("ceo", DataType.STRING))
        assert schema.names[-1] == "ceo"
        assert len(schema) == 4

    def test_qualified_applies_to_all(self):
        schema = self.make().qualified("companies")
        assert all(name.startswith("companies.") for name in schema.names)
