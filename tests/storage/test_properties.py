"""Property-based tests on storage invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DataType, Row, Schema, Table


names = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


def unique_schemas(min_size=1, max_size=6):
    return st.lists(names, min_size=min_size, max_size=max_size, unique=True).map(
        lambda cols: Schema.of(*[(c, DataType.INTEGER) for c in cols])
    )


@given(unique_schemas(), st.data())
def test_row_roundtrips_through_dict(schema, data):
    values = [data.draw(st.integers(-1000, 1000) | st.none()) for _ in schema]
    row = Row(schema, values)
    rebuilt = Row.from_mapping(schema, row.to_dict())
    assert rebuilt == row


@given(unique_schemas(), st.lists(st.lists(st.integers(0, 100), min_size=0), min_size=0, max_size=30))
@settings(max_examples=50)
def test_table_insert_count_and_polling_invariants(schema, raw_rows):
    table = Table("t", schema)
    inserted = 0
    seen = table.last_row_id()
    for raw in raw_rows:
        if len(raw) != len(schema):
            continue
        table.insert(raw)
        inserted += 1
    assert len(table) == inserted
    # Polling from the initial watermark returns exactly the inserted rows, in order.
    polled = table.rows_since(seen)
    assert [r.values for _, r in polled] == [r.values for r in table.scan()]
    # Row ids strictly increase.
    ids = [rid for rid, _ in polled]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


@given(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, 5)), max_size=40))
def test_index_lookup_matches_scan(pairs):
    schema = Schema.of(("key", DataType.STRING), ("value", DataType.INTEGER))
    table = Table("t", schema)
    for key, value in pairs:
        table.insert([key, value])
    table.create_index("key")
    for key in "abcde":
        indexed = {(r["key"], r["value"]) for r in table.lookup("key", key)}
        scanned = {(r["key"], r["value"]) for r in table.scan() if r["key"] == key}
        assert indexed == scanned


@given(unique_schemas(min_size=1, max_size=3), unique_schemas(min_size=1, max_size=3))
def test_schema_concat_length_and_name_preservation(left, right):
    # Qualify to avoid duplicate-name collisions, as the planner does for joins.
    left_q = left.qualified("l")
    right_q = right.qualified("r")
    combined = left_q.concat(right_q)
    assert len(combined) == len(left_q) + len(right_q)
    assert combined.names[: len(left_q)] == left_q.names
    assert combined.names[len(left_q):] == right_q.names
