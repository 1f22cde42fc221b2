"""Cluster wire format: framing, value tagging, schema/row/query round trips.

The shard protocol is length-prefixed JSON, with tuples tagged
``{"__tuple__": [...]}`` so crowd answers survive the trip.  These tests pin
the exactness guarantee the coordinator relies on: anything a worker encodes
decodes back to an equal value on the other side.  The column-wise row
encoder is checked byte for byte against a row-wise reference, and the frame
reader the server and ``request()`` run (``_read_frame`` over an
``asyncio.StreamReader``) is fuzzed with random frames, chunkings and bytes.
"""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import (
    MAX_FRAME_BYTES,
    decode_message,
    decode_query,
    decode_rows,
    decode_schema,
    encode_message,
    encode_query,
    encode_rows,
    encode_schema,
    frame_message,
)
from repro.cluster.server import _read_frame
from repro.core.exec.context import QueryConfig
from repro.errors import ClusterError
from repro.experiments import build_products_engine
from repro.storage import DataType, Schema, Table
from repro.storage.row import Row

from support import read_frames


class TestFraming:
    def test_message_round_trip(self):
        message = {"op": "submit", "sql": "SELECT 1", "nested": {"a": [1, 2.5, None, True]}}
        assert decode_message(encode_message(message)) == message

    def test_frame_reader_reassembles_byte_by_byte(self):
        messages = [{"op": "ping"}, {"op": "pump", "max_passes": 3}]
        stream = b"".join(frame_message(m) for m in messages)
        assert read_frames(stream[offset : offset + 1] for offset in range(len(stream))) == messages

    def test_frame_reader_handles_many_messages_in_one_chunk(self):
        messages = [{"op": "status", "query_id": f"cq{i}"} for i in range(10)]
        assert read_frames([b"".join(frame_message(m) for m in messages)]) == messages

    def test_a_stream_cut_inside_a_frame_is_incomplete(self):
        stream = frame_message({"op": "ping"})
        with pytest.raises(asyncio.IncompleteReadError):
            read_frames([stream[:-1]])

    def test_a_stream_cut_inside_the_length_prefix_is_incomplete(self):
        stream = frame_message({"op": "ping"})
        with pytest.raises(asyncio.IncompleteReadError):
            read_frames([stream[:2]])

    def test_a_clean_close_between_frames_leaves_no_partial_frame(self):
        """How the server and ``request()`` tell a peer's close from a cut frame."""

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(frame_message({"op": "ping"}))
            reader.feed_eof()
            body = await _read_frame(reader)
            with pytest.raises(asyncio.IncompleteReadError) as excinfo:
                await _read_frame(reader)
            return body, excinfo.value.partial

        body, partial = asyncio.run(read())
        assert decode_message(body) == {"op": "ping"}
        assert partial == b""

    def test_junk_payload_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="undecodable"):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(ClusterError, match="must be an object"):
            decode_message(b"[1, 2, 3]")

    def test_oversized_length_prefix_rejected(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ClusterError, match="exceeds"):
            read_frames([huge])


#: JSON values that survive a round trip unchanged (NaN compares unequal).
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


class TestCodecFuzzing:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4), max_size=5),
        st.lists(st.integers(min_value=0), max_size=10),
    )
    def test_frame_reader_returns_exactly_the_frames_fed_in_any_chunking(self, messages, cuts):
        stream = b"".join(frame_message(message) for message in messages)
        bounds = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        chunks = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
        assert read_frames(chunks) == messages

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    @example(b"9" * 5000)  # an integer literal longer than int() converts
    @example(b"[" * 100_000)  # nested deeper than the parser's stack
    def test_arbitrary_bytes_raise_only_cluster_error(self, data):
        """A stream may also end mid-frame: that is the reader's one other error."""
        framed = len(data).to_bytes(4, "big") + data
        try:
            decode_message(data)
        except ClusterError:
            pass
        for stream in (data, framed):
            try:
                read_frames([stream])
            except (ClusterError, asyncio.IncompleteReadError):
                pass


class TestValueTagging:
    def test_tuples_survive_json(self):
        schema = Schema.of(("answer", DataType.ANY))
        row = Row.unchecked(schema, (("yes", 0.9, ("nested", 1)),))
        (decoded,) = decode_rows(encode_rows([row]))
        assert decoded.values == row.values
        assert isinstance(decoded.values[0], tuple)
        assert isinstance(decoded.values[0][2], tuple)

    def test_tuples_inside_lists_and_dicts(self):
        schema = Schema.of(("answer", DataType.ANY))
        value = {"votes": [("a", 1), ("b", 2)], "meta": {"pair": (True, None)}}
        row = Row.unchecked(schema, (value,))
        (decoded,) = decode_rows(encode_rows([row]))
        assert decoded.values == row.values

    def test_plain_dict_without_tuple_tag_is_untouched(self):
        schema = Schema.of(("answer", DataType.ANY))
        value = {"__tuple__": [1, 2], "extra": "key"}  # two keys: not a tag
        row = Row.unchecked(schema, (value,))
        (decoded,) = decode_rows(encode_rows([row]))
        assert decoded.values[0] == value


def _reference_value(value):
    if isinstance(value, tuple):
        return {"__tuple__": [_reference_value(item) for item in value]}
    if isinstance(value, list):
        return [_reference_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _reference_value(item) for key, item in value.items()}
    return value


def _reference_encode_rows(rows):
    """The row-wise encoder: one row at a time, every value tagged."""
    schema, values = None, []
    for row in rows:
        if schema is None:
            schema = row.schema
        values.append([_reference_value(value) for value in row.values])
    if schema is None:
        return {"schema": [], "values": []}
    return {"schema": encode_schema(schema), "values": values}


#: Nested values for the tagged columns; keys stay shorter than "__tuple__".
_NESTED = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
#: Every DataType JSON can carry (IMAGE cannot), and values it accepts.
_COLUMN_VALUES = {
    DataType.INTEGER: st.integers(),
    DataType.FLOAT: st.floats(allow_nan=False),
    DataType.STRING: st.text(max_size=6),
    DataType.BOOLEAN: st.booleans(),
    DataType.TUPLE: st.lists(_NESTED, max_size=3).map(tuple),
    DataType.ANSWER_LIST: st.lists(_NESTED, max_size=3),
    DataType.ANY: _NESTED,
}


@st.composite
def _result_views(draw):
    """A results-table view: any JSON-safe columns (or none), NULLs, any window."""
    types = draw(st.lists(st.sampled_from(list(_COLUMN_VALUES)), max_size=5))
    table = Table("results", Schema.of(*((f"c{i}", kind) for i, kind in enumerate(types))))
    cells = [st.none() | _COLUMN_VALUES[kind] for kind in types]
    table.insert_many(draw(st.lists(st.tuples(*cells), max_size=8)))
    view = table.rows(draw(st.integers(min_value=-1, max_value=len(table))))
    return view[:: draw(st.integers(min_value=1, max_value=3))]


class TestSchemaAndRows:
    def test_workload_table_rows_round_trip(self):
        """Every row of the experiment harness's products table is exact."""
        engine = build_products_engine(n_products=8, seed=7).engine
        table = engine.database.table("products")
        rows = table.rows()
        assert rows
        decoded = decode_rows(encode_rows(rows))
        assert len(decoded) == len(rows)
        for original, copy in zip(rows, decoded):
            assert copy.schema is not None
            assert copy.values == original.values
            assert copy.to_dict() == original.to_dict()

    def test_encoded_rows_are_pinned_byte_for_byte(self):
        """Empty, one-row and multi-row replies encode to fixed bytes, read
        from a view (one pass, no row list) as they were from a list."""
        table = Table(
            "t",
            Schema.of(
                ("name", DataType.STRING),
                ("n", DataType.INTEGER),
                ("score", DataType.FLOAT),
                ("answer", DataType.ANY),
            ),
        )
        schema = (
            b'"schema":[["name","string",true],["n","integer",true],'
            b'["score","float",true],["answer","any",true]]'
        )
        first = b'["\xc3\xa4",1,0.5,{"__tuple__":["yes",2]}]'
        assert encode_message(encode_rows(table.rows())) == b'{"schema":[],"values":[]}'
        table.insert(["\u00e4", 1, 0.5, ("yes", 2)])
        one = b"{" + schema + b',"values":[' + first + b"]}"
        assert encode_message(encode_rows(table.rows())) == one
        assert encode_message(encode_rows(list(table.rows()))) == one
        table.insert_many([["b", None, 2.0, [1, (2, 3)]], [None, 3, -1.25, {"k": (None,)}]])
        many = (
            b"{" + schema + b',"values":[' + first
            + b',["b",null,2.0,[1,{"__tuple__":[2,3]}]]'
            + b',[null,3,-1.25,{"k":{"__tuple__":[null]}}]]}'
        )
        assert encode_message(encode_rows(table.rows())) == many
        assert encode_message(encode_rows(iter(table.rows()))) == many

    @settings(max_examples=150, deadline=None)
    @given(_result_views())
    def test_column_wise_encoding_matches_the_row_wise_reference(self, view):
        wire = encode_message(encode_rows(view))
        assert wire == encode_message(_reference_encode_rows(view))
        received = decode_rows(decode_message(wire))
        assert received == view  # exact round trip
        # What the server does with a shard's reply: forward it unchanged.
        assert encode_message(encode_rows(received)) == wire

    def test_schema_round_trip_preserves_types_and_nullability(self):
        engine = build_products_engine(n_products=2, seed=7).engine
        schema = engine.database.table("products").schema
        decoded = decode_schema(encode_schema(schema))
        assert [c.name for c in decoded.columns] == [c.name for c in schema.columns]
        assert [c.data_type for c in decoded.columns] == [
            c.data_type for c in schema.columns
        ]
        assert [c.nullable for c in decoded.columns] == [c.nullable for c in schema.columns]

    def test_empty_rows_round_trip(self):
        assert decode_rows(encode_rows([])) == []

    def test_bad_schema_payload_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="undecodable schema"):
            decode_schema([["name", "no-such-type", False]])


class TestQuerySubmissions:
    def test_plain_query_round_trip(self):
        payload = encode_query("SELECT 1", query_id="cq1")
        # The payload must be JSON-pure: it crosses the wire inside a frame.
        assert decode_message(encode_message(payload)) == payload
        submission = decode_query(payload)
        assert submission["query_id"] == "cq1"
        assert submission["sql"] == "SELECT 1"
        assert submission["budget"] is None
        assert submission["priority"] == 1.0
        assert submission["config"] is None

    def test_config_rehydrates_as_query_config(self):
        config = QueryConfig(budget=12.5, adaptive=False, deadline=600.0, degradation="partial")
        payload = encode_query(
            "SELECT name FROM products",
            query_id="cq2",
            budget=12.5,
            priority=2.0,
            config=config,
        )
        payload = decode_message(encode_message(payload))  # through the wire
        submission = decode_query(payload)
        assert submission["config"] == config
        assert submission["budget"] == 12.5
        assert submission["priority"] == 2.0

    def test_missing_fields_raise_cluster_error(self):
        with pytest.raises(ClusterError, match="missing field"):
            decode_query({"sql": "SELECT 1"})
        with pytest.raises(ClusterError, match="undecodable query config"):
            decode_query(
                {"query_id": "cq1", "sql": "SELECT 1", "config": {"no_such_field": 1}}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("use_cache", True),
            ("use_task_model", True),
            ("default_assignments", 5),
            ("target_confidence", 0.9),
        ],
    )
    def test_removed_config_knob_raises_cluster_error(self, field, value):
        # A client still sending a knob QueryConfig no longer has gets the
        # structured error, not a TypeError from the dataclass constructor.
        with pytest.raises(ClusterError, match="undecodable query config"):
            decode_query({"query_id": "cq1", "sql": "SELECT 1", "config": {field: value}})
