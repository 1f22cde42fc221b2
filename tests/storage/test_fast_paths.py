"""The batched data plane's fast paths must be invisible semantically.

Three families of guarantees:

* ``Row.unchecked`` derivations (project / concat / extended / replaced /
  with_schema) produce exactly what the validating constructor would, on
  every workload schema the engine actually runs.
* Schema derivations are memoized per shape: deriving the same projection,
  concatenation, extension or qualification twice returns the *same* object.
* ``RowBatch`` round-trips rows losslessly, and compiled expressions agree
  with tree interpretation.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import (
    Column,
    ColumnRef,
    Comparison,
    DataType,
    Literal,
    Row,
    RowBatch,
    Schema,
)
from repro.storage.expressions import Arithmetic, BooleanOp, Not, compile_batch_expression
from repro.workloads.celebrities import CelebrityWorkload
from repro.workloads.companies import CompaniesWorkload
from repro.workloads.products import ProductsWorkload


def workload_tables():
    """One populated table per workload schema the engine runs."""
    tables = [
        CompaniesWorkload(n_companies=8, seed=3).build_table(),
        ProductsWorkload(n_products=8, seed=3).build_table(),
    ]
    celebrities = CelebrityWorkload(n_celebrities=6, seed=3)
    photos, spotted = celebrities.build_tables()
    tables += [photos, spotted]
    return tables


@pytest.mark.parametrize("table", workload_tables(), ids=lambda t: t.name)
class TestUncheckedDerivationsMatchValidation:
    def test_unchecked_equals_validating_constructor(self, table):
        for row in table.scan():
            rebuilt = Row(row.schema, row.values)
            trusted = Row.unchecked(row.schema, row.values)
            assert trusted == rebuilt
            assert trusted.values == rebuilt.values

    def test_concat_matches_validated_concat(self, table):
        left_schema = table.schema.qualified("l")
        right_schema = table.schema.qualified("r")
        rows = table.rows()
        for row in rows:
            left = row.with_schema(left_schema)
            right = row.with_schema(right_schema)
            fast = left.concat(right)
            slow = Row(left_schema.concat(right_schema), left.values + right.values)
            assert fast == slow

    def test_extended_validates_new_values_only(self, table):
        extra = (Column("extra_note", DataType.STRING),)
        for row in table.scan():
            extended = row.extended(extra, ["note"])
            assert extended.values == row.values + ("note",)
            assert extended.schema.names == row.schema.names + ("extra_note",)
        with pytest.raises(Exception):
            # The new value still goes through column validation.
            next(iter(table)).extended(extra, [1234])

    def test_with_schema_rebind_preserves_values(self, table):
        qualified = table.schema.qualified("q")
        for row in table.scan():
            rebound = row.with_schema(qualified)
            assert rebound.values == row.values
            assert rebound.schema is qualified

    def test_batch_roundtrip(self, table):
        rows = table.rows()
        batch = RowBatch.from_rows(table.schema, rows)
        assert len(batch) == len(rows)
        assert batch.to_rows() == rows
        for index, column in enumerate(table.schema.names):
            assert batch.column(column) == tuple(row[index] for row in rows)

    def test_table_batch_io_roundtrip(self, table):
        from repro.storage import Table

        batch = table.to_batch()
        assert batch.schema is table.schema
        assert batch.to_rows() == table.rows()
        # Fast path: identical column layout appends without re-validation.
        copy = Table(f"{table.name}_copy", table.schema)
        assert copy.insert_batch(batch) == len(table)
        assert copy.rows() == table.rows()
        # Re-validating path: same shape under different (qualified) names.
        qualified = Table(f"{table.name}_q", table.schema.qualified("q"))
        assert qualified.insert_batch(batch) == len(table)
        assert [row.values for row in qualified.scan()] == [
            row.values for row in table.scan()
        ]


class TestSchemaMemoization:
    def setup_method(self):
        self.schema = Schema.of(
            ("t.a", DataType.INTEGER), ("t.b", DataType.STRING), ("t.c", DataType.FLOAT)
        )

    def test_concat_returns_same_object_for_same_operand(self):
        other = Schema.of(("u.x", DataType.INTEGER))
        assert self.schema.concat(other) is self.schema.concat(other)

    def test_extend_returns_same_object_for_same_columns(self):
        extra = (Column("d"), Column("e"))
        assert self.schema.extend(*extra) is self.schema.extend(*extra)

    def test_qualified_returns_same_object_for_same_qualifier(self):
        assert self.schema.qualified("q") is self.schema.qualified("q")
        assert self.schema.qualified("q") is not self.schema.qualified("r")

    def test_indices_of_is_cached_and_correct(self):
        assert self.schema.indices_of(("c", "a")) == (2, 0)
        assert self.schema.indices_of(("c", "a")) is self.schema.indices_of(("c", "a"))

    def test_duplicate_names_still_raise(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.of("a", "b", "a")

    def test_ambiguous_and_unknown_lookups_still_raise(self):
        ambiguous = Schema.of("l.id", "r.id")
        with pytest.raises(SchemaError, match="ambiguous"):
            ambiguous.index_of("id")
        with pytest.raises(SchemaError, match="unknown"):
            ambiguous.index_of("nope")
        assert ambiguous.try_index_of("id") is None
        assert ambiguous.try_index_of("nope") is None
        assert ambiguous.index_of("l.id") == 0

    def test_row_get_fast_path(self):
        schema = Schema.of("l.id", "r.id", "name")
        row = Row(schema, [1, 2, "x"])
        assert row.get("name") == "x"
        assert row.get("l.id") == 1
        assert row.get("id", "default") == "default"  # ambiguous -> default
        assert row.get("missing", 42) == 42


names = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


def unique_schemas(min_size=1, max_size=6):
    return st.lists(names, min_size=min_size, max_size=max_size, unique=True).map(
        lambda cols: Schema.of(*[(c, DataType.INTEGER) for c in cols])
    )


@given(unique_schemas(), st.data())
def test_batch_roundtrip_property(schema, data):
    rows = [
        Row(schema, [data.draw(st.integers(-99, 99) | st.none()) for _ in schema])
        for _ in range(data.draw(st.integers(0, 8)))
    ]
    batch = RowBatch.from_rows(schema, rows)
    assert batch.to_rows() == rows
    assert len(batch) == len(rows)


class TestCompiledExpressions:
    def test_compiled_matches_interpretation(self):
        schema = Schema.of(("a", DataType.INTEGER), ("b", DataType.INTEGER))
        expressions = [
            Literal(7),
            ColumnRef("a"),
            Comparison("<", ColumnRef("a"), ColumnRef("b")),
            Comparison(">=", ColumnRef("a"), Literal(0)),
            BooleanOp(
                "and",
                Comparison(">", ColumnRef("a"), Literal(1)),
                Not(Comparison("=", ColumnRef("b"), Literal(3))),
            ),
            BooleanOp(
                "or",
                Comparison("=", ColumnRef("a"), Literal(2)),
                Comparison("=", ColumnRef("b"), Literal(2)),
            ),
            Arithmetic("*", ColumnRef("a"), Arithmetic("+", ColumnRef("b"), Literal(1))),
        ]
        rows = [
            Row(schema, [a, b])
            for a in (0, 1, 2, 5, None)
            for b in (0, 2, 3, None)
        ]
        batch = RowBatch.from_rows(schema, rows)
        for expression in expressions:
            kernel = compile_batch_expression(expression, schema)
            assert list(kernel(batch)) == [
                expression.evaluate(row) for row in rows
            ], str(expression)

    def test_compiled_unknown_column_raises_at_compile_time(self):
        schema = Schema.of("a")
        with pytest.raises(SchemaError):
            compile_batch_expression(ColumnRef("missing"), schema)
