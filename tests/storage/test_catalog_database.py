"""Unit tests for the catalog and the database facade."""

import pytest

from repro.errors import CatalogError
from repro.experiments import build_companies_engine
from repro.storage import Catalog, Database, DataType, Schema, Table


class TestCatalog:
    def test_create_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.create_table("Companies", Schema.of("name"))
        assert catalog.table("companies").name == "Companies"
        assert catalog.table("COMPANIES").name == "Companies"

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
        assert catalog.table_names() == []
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

    def test_unknown_table_hint_lists_the_tables(self):
        db = Database()
        db.create_table("companies", ["name"])
        with pytest.raises(CatalogError) as excinfo:
            db.table("missing")
        assert str(excinfo.value) == "unknown table 'missing'; known tables: companies"

    def test_unknown_table_hint_lists_base_tables_only(self):
        """Finished queries leave no results table for the hint to list."""
        engine = build_companies_engine(n_companies=3, seed=1).engine
        for _ in range(3):
            engine.query("SELECT companyName FROM companies").wait()
        with pytest.raises(CatalogError) as excinfo:
            engine.query("SELECT companyName FROM missing")
        assert str(excinfo.value) == "unknown table 'missing'; known tables: companies"

    def test_drop_table(self):
        db = Database()
        db.create_table("t", ["a"])
        db.drop_table("t")
        assert db.catalog.table_names() == []
