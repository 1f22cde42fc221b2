"""Cluster wire format: framing, value tagging, schema/row/query round trips.

The shard protocol is length-prefixed JSON, with tuples tagged
``{"__tuple__": [...]}`` so crowd answers survive the trip.  These tests pin
the exactness guarantee the coordinator relies on: anything a worker encodes
decodes back to an equal value on the other side.
"""

import pytest

from repro.cluster.serialization import (
    MAX_FRAME_BYTES,
    FrameDecoder,
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
from repro.core.exec.context import QueryConfig
from repro.errors import ClusterError
from repro.experiments import build_products_engine
from repro.storage import DataType, Schema, Table
from repro.storage.row import Row


class TestFraming:
    def test_message_round_trip(self):
        message = {"op": "submit", "sql": "SELECT 1", "nested": {"a": [1, 2.5, None, True]}}
        assert decode_message(encode_message(message)) == message

    def test_frame_decoder_reassembles_byte_by_byte(self):
        messages = [{"op": "ping"}, {"op": "pump", "max_passes": 3}]
        stream = b"".join(frame_message(m) for m in messages)
        decoder = FrameDecoder()
        received = []
        for offset in range(len(stream)):
            received.extend(decoder.feed(stream[offset : offset + 1]))
        assert received == messages
        assert decoder.pending_bytes == 0

    def test_frame_decoder_handles_many_messages_in_one_chunk(self):
        messages = [{"op": "status", "query_id": f"cq{i}"} for i in range(10)]
        decoder = FrameDecoder()
        assert decoder.feed(b"".join(frame_message(m) for m in messages)) == messages

    def test_junk_payload_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="undecodable"):
            decode_message(b"\xff\xfenot json")
        with pytest.raises(ClusterError, match="must be an object"):
            decode_message(b"[1, 2, 3]")

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ClusterError, match="exceeds"):
            decoder.feed(huge)


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
