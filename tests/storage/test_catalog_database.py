"""Unit tests for the catalog and the database facade."""

import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, Database, DataType, Schema, Table


class TestCatalog:
    def test_create_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.create_table("Companies", Schema.of("name"))
        assert catalog.table("companies").name == "Companies"
        assert catalog.has_table("COMPANIES")

    def test_duplicate_create_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of("a"))
        with pytest.raises(CatalogError):
            catalog.create_table("t", Schema.of("a"))

    def test_if_not_exists_returns_existing(self):
        catalog = Catalog()
        first = catalog.create_table("t", Schema.of("a"))
        second = catalog.create_table("t", Schema.of("a"), if_not_exists=True)
        assert first is second

    def test_register_and_replace(self):
        catalog = Catalog()
        table = Table("t", Schema.of("a"))
        catalog.register(table)
        with pytest.raises(CatalogError):
            catalog.register(Table("t", Schema.of("a")))
        replacement = Table("t", Schema.of("b"))
        catalog.register(replacement, replace=True)
        assert catalog.table("t") is replacement

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of("a"))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")
        catalog.drop_table("t", if_exists=True)

    def test_unknown_table_error_lists_known(self):
        catalog = Catalog()
        catalog.create_table("known", Schema.of("a"))
        with pytest.raises(CatalogError, match="known"):
            catalog.table("unknown")

    def test_iteration_and_names(self):
        catalog = Catalog()
        catalog.create_table("b", Schema.of("x"))
        catalog.create_table("a", Schema.of("x"))
        assert catalog.table_names() == ["a", "b"]
        assert len(catalog) == 2
        assert len(list(catalog)) == 2


class TestDatabase:
    def test_create_table_and_insert(self):
        db = Database()
        db.create_table("companies", [("name", DataType.STRING), ("employees", DataType.INTEGER)])
        count = db.insert("companies", [["Acme", 10], {"name": "Globex", "employees": 2}])
        assert count == 2
        assert len(db.table("companies")) == 2

    def test_results_tables_get_unique_names(self):
        db = Database()
        first = db.create_results_table(Schema.of("a"))
        second = db.create_results_table(Schema.of("a"))
        assert first.name != second.name
        assert db.has_table(first.name)

    def test_results_table_with_query_id(self):
        db = Database()
        table = db.create_results_table(Schema.of("a"), query_id="q42")
        assert "q42" in table.name

    def test_unknown_table_hint_lists_base_tables_only(self):
        db = Database()
        db.create_table("companies", ["name"])
        for number in range(3):
            db.create_results_table(Schema.of("a"), query_id=f"q{number}")
        with pytest.raises(CatalogError) as excinfo:
            db.table("missing")
        assert str(excinfo.value) == "unknown table 'missing'; known tables: companies"

    def test_drop_table(self):
        db = Database()
        db.create_table("t", ["a"])
        db.drop_table("t")
        assert not db.has_table("t")
