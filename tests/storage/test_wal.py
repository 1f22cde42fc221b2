"""WAL unit tests: framing, fsync semantics, torn tails, truncation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WALCorruptionError, WALError
from repro.storage.wal import WALRecord, WriteAheadLog
from repro.testing.crashpoints import corrupt_tail


def _fill(wal, n, *, start=1):
    for i in range(start, start + n):
        wal.append("event", {"i": i})


class TestFramingRoundTrip:
    def test_create_append_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, spec={"factory": "m:f", "kwargs": {"x": 1}})
        lsns = [wal.append("event", {"i": i, "pair": [1, 2]}) for i in range(5)]
        wal.close()
        assert lsns == [1, 2, 3, 4, 5]

        info, _ = WriteAheadLog.scan(path)
        assert info.base_lsn == 0
        assert info.spec == {"factory": "m:f", "kwargs": {"x": 1}}
        assert info.corruption is None
        assert info.truncated_bytes == 0
        assert info.records == [
            WALRecord(lsn=i + 1, type="event", data={"i": i, "pair": [1, 2]})
            for i in range(5)
        ]

    def test_reopen_appends_continue_lsn_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path) as wal:
            _fill(wal, 3)
        wal, info = WriteAheadLog.open(path)
        assert info.last_lsn == 3
        assert wal.append("event", {"i": 99}) == 4
        wal.close()
        info, _ = WriteAheadLog.scan(path)
        assert [record.lsn for record in info.records] == [1, 2, 3, 4]

    def test_non_json_payload_rejected(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log")
        with pytest.raises(WALError):
            wal.append("event", {"bad": object()})
        wal.close()

    def test_header_type_reserved(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log")
        with pytest.raises(WALError):
            wal.append("header", {})
        wal.close()


#: Record data the value codec accepts: str-keyed like every journal record,
#: with ints beyond 64 bits, NaN and ±inf, any text and nested tuples inside.
_DATA = st.dictionaries(
    st.text(max_size=5),
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**100), max_value=2**100)
        | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


def _same(a, b) -> bool:
    """Equal type for type, with NaN equal to itself."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


class TestRecordDataRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_DATA, min_size=1, max_size=4))
    def test_append_then_scan_reads_back_equal(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("wal") / "wal.log"
        with WriteAheadLog.create(path, spec={"kwargs": {"pair": (1, 2)}}) as wal:
            for data in records:
                wal.append("event", data)
        info, _ = WriteAheadLog.scan(path)
        assert info.spec == {"kwargs": {"pair": (1, 2)}}
        assert len(info.records) == len(records)
        assert all(_same(r.data, data) for r, data in zip(info.records, records))

    def test_values_beyond_64_bits_and_non_finite_floats(self, tmp_path):
        data = {"big": 2**70, "nan": math.nan, "inf": -math.inf, "text": "ä漢", "t": ((1,),)}
        with WriteAheadLog.create(tmp_path / "wal.log") as wal:
            wal.append("event", data)
            wal.truncate_to(0)  # re-encodes the kept record
        info, _ = WriteAheadLog.scan(tmp_path / "wal.log")
        assert _same(info.records[0].data, data)


class TestFsyncPolicies:
    def test_always_never_buffers(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log", fsync="always")
        _fill(wal, 10)
        assert wal.unflushed_records == 0
        wal.close()

    def test_interval_buffers_up_to_window(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log", fsync="interval", fsync_every=4)
        _fill(wal, 3)
        assert wal.unflushed_records == 3
        _fill(wal, 1, start=4)
        assert wal.unflushed_records == 0
        wal.close()

    def test_off_buffers_until_close(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log", fsync="off")
        _fill(wal, 50)
        assert wal.unflushed_records == 50
        wal.close()
        info, _ = WriteAheadLog.scan(tmp_path / "wal.log")
        assert len(info.records) == 50

    def test_durable_flag_flushes_under_every_policy(self, tmp_path):
        for policy in ("always", "interval", "off"):
            path = tmp_path / f"{policy}.log"
            wal = WriteAheadLog.create(path, fsync=policy)
            wal.append("event", {"i": 1})
            wal.append("query_submitted", {"sql": "..."}, durable=True)
            # The durable append drags the whole buffered prefix to disk.
            assert wal.unflushed_records == 0
            wal.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")


class TestCrashSemantics:
    def test_simulated_crash_loses_exactly_the_unflushed_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, fsync="interval", fsync_every=4)
        _fill(wal, 10)  # 8 flushed, 2 buffered
        assert wal.unflushed_records == 2
        wal.simulate_crash()
        info, _ = WriteAheadLog.scan(path)
        assert [record.lsn for record in info.records] == list(range(1, 9))
        assert info.corruption is None  # a lost tail is not corruption

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log")
        wal.simulate_crash()
        with pytest.raises(WALError):
            wal.append("event", {})


class TestCorruption:
    def _written(self, tmp_path, n=6):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, fsync="always") as wal:
            _fill(wal, n)
        return path

    def test_torn_tail_truncates_to_last_valid_record(self, tmp_path):
        path = self._written(tmp_path)
        corrupt_tail(path, mode="truncate", seed=1)
        wal, info = WriteAheadLog.open(path)
        assert info.corruption is not None
        assert info.truncated_bytes > 0
        assert [record.lsn for record in info.records] == [1, 2, 3, 4, 5]
        # The file itself was cleanly truncated: appending resumes at LSN 6.
        assert wal.append("event", {"i": 6}) == 6
        wal.close()
        rescan, _ = WriteAheadLog.scan(path)
        assert rescan.corruption is None
        assert [record.lsn for record in rescan.records] == [1, 2, 3, 4, 5, 6]

    def test_bitflip_detected_by_crc(self, tmp_path):
        path = self._written(tmp_path)
        corrupt_tail(path, mode="bitflip", seed=2)
        info, _ = WriteAheadLog.scan(path)
        assert info.corruption is not None and "CRC" in info.corruption
        assert [record.lsn for record in info.records] == [1, 2, 3, 4, 5]

    def test_lsn_gap_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog.create(path, fsync="always") as wal:
            _fill(wal, 2)
            wal._last_lsn += 5  # skip ahead: next record's LSN is discontinuous
            _fill(wal, 1, start=3)
        info, _ = WriteAheadLog.scan(path)
        assert info.corruption is not None and "LSN gap" in info.corruption
        assert [record.lsn for record in info.records] == [1, 2]

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.scan(path)
        path.write_bytes(b"garbage that is not a frame at all........")
        with pytest.raises(WALCorruptionError):
            WriteAheadLog.scan(path)


class TestTruncateTo:
    def test_truncate_rewrites_base_and_keeps_suffix(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, fsync="always", spec={"factory": "m:f"})
        _fill(wal, 10)
        wal.truncate_to(7)
        assert wal.base_lsn == 7
        assert wal.append("event", {"i": 11}) == 11
        wal.close()
        info, _ = WriteAheadLog.scan(path)
        assert info.base_lsn == 7
        assert info.spec == {"factory": "m:f"}  # spec survives truncation
        assert [record.lsn for record in info.records] == [8, 9, 10, 11]

    def test_truncate_outside_range_rejected(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log", fsync="always")
        _fill(wal, 3)
        with pytest.raises(WALError):
            wal.truncate_to(4)
        with pytest.raises(WALError):
            wal.truncate_to(-1)
        wal.close()
