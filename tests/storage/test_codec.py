"""The one value codec: exact round trips, and the wire rows that use it.

``pack`` → ``dumps`` → ``loads`` → ``unpack`` must give back the value it
was given, type for type, for everything the codec accepts — including the
dict keys and tag-named keys JSON has no spelling for — and refuse anything
else with :class:`CodecError` instead of lowering it.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import decode_rows, encode_rows, frame_message
from repro.errors import CodecError
from repro.storage import DataType, Schema
from repro.storage.codec import dumps, loads, lower, pack, unpack
from repro.storage.row import Row

from support import read_frames


def _round_trip(value):
    return unpack(loads(dumps(pack(value))))


def _exact(a, b) -> bool:
    """Equal, type for type all the way down, dict order included (NaN == NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_exact, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _exact(ka, kb) and _exact(va, vb) for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats()
    | st.text(max_size=6)
)
_KEYS = st.recursive(
    st.none()
    | st.integers()
    | st.text(max_size=4)
    | st.sampled_from(["__tuple__", "__dict__"]),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=3)
    | st.dictionaries(st.sampled_from(["__tuple__", "__dict__"]), inner, max_size=1),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_unpack_loads_dumps_pack_is_the_identity(self, value):
        assert _exact(_round_trip(value), value)

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "text",
            (1, 2),
            [1, (2, 3), "x"],
            {"k": (1, [2, (3, None)])},
            ((1, "a"), (2, "b")),
            {},
            [],
            (),
            {1: "a", None: 2, (1, 2): "x"},
            {"__tuple__": [1, 2]},
            {"__dict__": {"__tuple__": ()}},
            {"__tuple__": [1, 2], "extra": "key"},
            2**70,
            -(2**100),
            "ä漢\U0001f600",
        ],
    )
    def test_round_trip_is_exact(self, value):
        packed = pack(value)
        json.dumps(packed)  # JSON-able as it is
        assert _exact(_round_trip(value), value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, (math.nan,)])
    def test_non_finite_floats_survive(self, value):
        assert _exact(_round_trip(value), value)

    def test_str_keyed_dicts_and_lists_are_not_tagged(self):
        """The wire's bytes for values it always carried exactly."""
        value = {"votes": [("a", 1)], "meta": {"pair": (True, None)}}
        assert dumps(pack(value)) == (
            b'{"votes":[{"__tuple__":["a",1]}],"meta":{"pair":{"__tuple__":[true,null]}}}'
        )
        assert pack({1: "a"}) == {"__dict__": [[1, "a"]]}
        assert pack({"__tuple__": [1]}) == {"__dict__": [["__tuple__", [1]]]}

    def test_rng_state_round_trip(self):
        rng = random.Random(99)
        rng.random()
        twin = random.Random()
        twin.setstate(_round_trip(rng.getstate()))
        assert [twin.random() for _ in range(5)] == [rng.random() for _ in range(5)]

    def test_unsupported_type_raises_not_skips(self):
        with pytest.raises(CodecError, match="object"):
            pack({"bad": object()})
        with pytest.raises(CodecError, match="set"):
            pack([{1, 2}])
        with pytest.raises(CodecError):
            dumps({"raw": object()})

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"{not json", b"9" * 5000, b"[" * 100_000])
    def test_junk_bytes_raise_codec_error(self, data):
        with pytest.raises(CodecError):
            loads(data)

    def test_lower_turns_every_tuple_into_a_list(self):
        assert lower({"a": (1, [2, (3,)])}) == {"a": [1, [2, [3]]]}
        assert lower({"a": (1, [2, (3,)])}) == json.loads(json.dumps({"a": (1, [2, (3,)])}))


class TestWireRows:
    def test_any_column_values_json_has_no_spelling_for_round_trip(self):
        """Non-``str`` keys, a tag-named key and tuple keys, through a frame."""
        schema = Schema.of(("answer", DataType.ANY))
        values = [{1: "a"}, {"__tuple__": [1, 2]}, {(1, 2): "x"}]
        rows = [Row.unchecked(schema, (value,)) for value in values]
        (message,) = read_frames([frame_message(encode_rows(rows))])
        decoded = decode_rows(message)
        assert [row.values[0] for row in decoded] == values
        assert all(_exact(row.values[0], value) for row, value in zip(decoded, values))
