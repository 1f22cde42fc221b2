"""Snapshot round-trips and engine checkpoint/recover correctness."""

import json
import zlib

import pytest

from repro.engine import QurkEngine
from repro.errors import QurkError, RecoveryError, SnapshotError
from repro.storage.durability import DurabilityConfig
from repro.storage.snapshot import load_latest_snapshot, snapshot_path, write_snapshot
from repro.testing.crashpoints import (
    plain_crash_scenario,
    recovered_fingerprint,
    recovered_query_count,
    reference_fingerprint,
    run_durable,
)


class TestSnapshotFiles:
    def test_write_then_load(self, tmp_path):
        state = {"clock_now": 12.5, "nested": {"a": [1, 2]}}
        write_snapshot(tmp_path, state, lsn=42)
        loaded = load_latest_snapshot(tmp_path)
        assert loaded == (42, state)

    def test_latest_wins_and_pruning_keeps_newest(self, tmp_path):
        for lsn in (10, 20, 30):
            write_snapshot(tmp_path, {"lsn_marker": lsn}, lsn=lsn, keep=2)
        lsn, state = load_latest_snapshot(tmp_path)
        assert lsn == 30 and state == {"lsn_marker": 30}
        assert not snapshot_path(tmp_path, 10).exists()  # pruned
        assert snapshot_path(tmp_path, 20).exists()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(tmp_path, {"generation": "old"}, lsn=10)
        write_snapshot(tmp_path, {"generation": "new"}, lsn=20)
        snapshot_path(tmp_path, 20).write_text("{not json")
        lsn, state = load_latest_snapshot(tmp_path)
        assert (lsn, state["generation"]) == (10, "old")

    def test_checksum_mismatch_is_detected(self, tmp_path):
        write_snapshot(tmp_path, {"v": 1}, lsn=5)
        path = snapshot_path(tmp_path, 5)
        tampered = path.read_bytes().replace(b'{"v":1}', b'{"v":2}')
        path.write_bytes(tampered)  # without recomputing the checksum
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_latest_snapshot(tmp_path)

    def test_state_round_trips_exactly(self, tmp_path):
        """Packed once at the boundary: tuples, non-str keys and rng states."""
        import random

        rng = random.Random(99)
        state = {"rng": rng.getstate(), "keys": {(1, "a"): [2, (3,)], 7: None}}
        write_snapshot(tmp_path, state, lsn=3)
        assert load_latest_snapshot(tmp_path) == (3, state)

    def test_unsupported_value_is_refused_at_write(self, tmp_path):
        with pytest.raises(SnapshotError, match="object"):
            write_snapshot(tmp_path, {"bad": object()}, lsn=1)
        assert load_latest_snapshot(tmp_path) is None

    def test_version_1_file_is_refused_by_version(self, tmp_path):
        """The version 1 format (one JSON document, values tagged ``{"t", "v"}``)."""
        state = {"entries": [{"key": {"t": "t", "v": [{"t": "s", "v": 1}]}}]}
        body = json.dumps(state, sort_keys=True, separators=(",", ":"))
        document = {"version": 1, "lsn": 5, "checksum": zlib.crc32(body.encode()), "state": state}
        snapshot_path(tmp_path, 5).write_text(json.dumps(document, sort_keys=True))
        with pytest.raises(SnapshotError, match="unsupported snapshot version 1"):
            load_latest_snapshot(tmp_path)

    def test_empty_directory_is_no_snapshot(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None


def _durable_engine(tmp_path, **config):
    scenario = plain_crash_scenario()
    engine = scenario.build_engine()
    engine.enable_durability(
        DurabilityConfig(directory=str(tmp_path), **config),
        spec=scenario.spec_payload(),
    )
    return scenario, engine


COMPANIES_SPEC = {
    "factory": "repro.experiments.harness:build_companies_engine",
    "kwargs": {"n_companies": 5, "seed": 11},
}
FIND_CEO_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies"
)


def _companies_engine(tmp_path, spec=COMPANIES_SPEC, **config):
    """A durable companies engine (5 ``findCEO`` answers to buy)."""
    from repro.storage.durability import build_engine_from_payload

    engine = build_engine_from_payload(spec)
    config.setdefault("snapshot_every", None)
    engine.enable_durability(DurabilityConfig(directory=str(tmp_path), **config), spec=spec)
    return engine


def _run_find_ceo(engine):
    handle = engine.query(FIND_CEO_SQL)
    engine.scheduler.drain()
    engine.clock.run_until_idle()
    assert handle.status.value == "completed"
    return handle


class TestEngineCheckpoint:
    def test_checkpoint_requires_durability(self):
        engine = QurkEngine(seed=1)
        with pytest.raises(QurkError):
            engine.checkpoint()

    def test_checkpoint_requires_quiescence(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        with pytest.raises(SnapshotError):
            engine.checkpoint()

    def test_durable_engine_rejects_non_replayable_submissions(self, tmp_path):
        from repro.core.exec.context import QueryConfig
        from repro.core.lang.sql_parser import parse_select

        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        sql = scenario.phases[0][0]["sql"]
        with pytest.raises(QurkError):
            engine.query(parse_select(sql))  # pre-parsed: not in the log verbatim
        with pytest.raises(QurkError):
            engine.query(sql, config=QueryConfig())  # config bypasses the log

    def test_enable_durability_twice_rejected(self, tmp_path):
        _, engine = _durable_engine(tmp_path)
        with pytest.raises(QurkError):
            engine.enable_durability(DurabilityConfig(directory=str(tmp_path)))

    def test_checkpoint_truncates_wal_and_survives_restart(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        pre_truncate = engine.journal.wal.last_lsn
        engine.checkpoint()
        assert engine.journal.wal.base_lsn == pre_truncate
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn == pre_truncate
        assert result.replayed_query_ids == []  # everything was snapshotted
        assert recovered_query_count(result) == 1

    def test_auto_checkpoint_fires_at_drain_quiescence(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=5)
        for _ in range(5):  # the journal counts replay records: 5 submissions
            engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        assert load_latest_snapshot(tmp_path) is not None

    def test_recovery_detects_catalog_mismatch(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.checkpoint()
        engine.journal.wal.simulate_crash()

        def wrong_factory():
            from repro.testing.crashpoints import build_plain_products_engine

            return build_plain_products_engine(n_products=7, seed=13)  # wrong row count

        with pytest.raises(RecoveryError):
            QurkEngine.recover(tmp_path, factory=wrong_factory)

    def test_recovery_replays_a_failing_query_to_its_end(self, tmp_path):
        """A logged query whose plan raises must not make the WAL unrecoverable."""
        scenario, engine = _durable_engine(tmp_path, fsync="always", snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.query("SELECT name FROM products WHERE price / 0 > 1")
        engine.journal.wal.simulate_crash()  # both submissions logged, never drained

        result = QurkEngine.recover(tmp_path)
        statuses = {qid: handle.status.value for qid, handle in result.engine.queries.items()}
        assert statuses == {"q1": "completed", "q2": "failed"}

    def test_a_version_1_state_is_refused_not_misloaded(self, tmp_path):
        """Version 1 engine state still carried the cache's expiry and
        admission counters and the per-worker vote statistics."""
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.checkpoint()
        engine.journal.wal.simulate_crash()
        lsn, state = load_latest_snapshot(tmp_path)
        state["state_version"] = 1
        state["task_cache"]["stats"].update(expirations=0, admissions_rejected=0)
        state["statistics"]["workers"] = {"W0001": {"assignments": 1, "votes": 1,
                                                    "votes_with_majority": 1}}
        write_snapshot(tmp_path, state, lsn=lsn)
        with pytest.raises(RecoveryError, match="state version 1 is not supported"):
            QurkEngine.recover(tmp_path)

    def test_recover_without_wal_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            QurkEngine.recover(tmp_path)


class TestRecoveredStateFidelity:
    def test_snapshot_plus_replay_matches_uninterrupted_run(self, tmp_path):
        """Crash after the checkpoint: snapshot state + replayed tail."""
        scenario = plain_crash_scenario()
        # Crash far past the end: the run completes (with its phase-0
        # checkpoint taken) and the "crash" only loses the unflushed tail.
        run_durable(scenario, tmp_path, fsync="interval", crash_at=10_000)
        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn is not None
        n = recovered_query_count(result)
        assert n == scenario.total_submissions
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)

    def test_recovered_engine_keeps_working(self, tmp_path):
        """A recovered engine is live: it accepts and completes new queries."""
        scenario = plain_crash_scenario()
        run_durable(scenario, tmp_path, fsync="interval", crash_at=10_000)
        result = QurkEngine.recover(tmp_path)
        engine = result.engine
        handle = engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        assert handle.status.value == "completed"
        assert len(handle.results()) > 0


class TestTaskCacheAcrossRecovery:
    """The engine's own journal and snapshot are the one durable home of
    cached crowd answers: what a run bought comes back after ``recover``."""

    def test_a_recovered_engine_answers_a_repeated_query_from_its_cache(self, tmp_path):
        """The engine snapshot carries the Task Cache across a restart: the
        same query again reuses every crowd answer and spends nothing."""
        engine = _companies_engine(tmp_path)
        _run_find_ceo(engine)
        first_cost = engine.total_crowd_cost
        assert first_cost > 0
        assert engine.task_manager.stats.cache_answers == 0
        engine.checkpoint()
        engine.journal.close()

        recovered = QurkEngine.recover(tmp_path).engine
        answers_before = recovered.task_manager.stats.cache_answers
        _run_find_ceo(recovered)
        assert recovered.total_crowd_cost == first_cost
        assert recovered.task_manager.stats.cache_answers - answers_before == 5

    def test_the_snapshot_holds_one_record_per_cached_answer(self, tmp_path):
        engine = _companies_engine(tmp_path)
        _run_find_ceo(engine)
        engine.checkpoint()
        engine.journal.close()
        _, state = load_latest_snapshot(tmp_path)
        entries = state["task_cache"]["entries"]
        assert len(entries) == len(engine.task_cache) == 5
        assert {entry["name"] for entry in entries} == {"findCEO"}
        for entry in entries:
            assert list(entry) == ["name", "key", "reduced", "original_cost"]
            assert isinstance(entry["key"], tuple)
            assert entry["original_cost"] > 0

    def test_the_recovered_cache_equals_the_checkpointed_one(self, tmp_path):
        """Entries, store order and every counter come back exactly."""
        engine = _companies_engine(tmp_path)
        _run_find_ceo(engine)
        _run_find_ceo(engine)  # a second run adds hits and savings to the counters
        assert engine.task_cache.stats.hits == 5
        engine.checkpoint()
        engine.journal.close()

        recovered = QurkEngine.recover(tmp_path).engine
        assert recovered.task_cache.state_dict() == engine.task_cache.state_dict()

    def test_replay_without_a_checkpoint_rebuilds_the_cache(self, tmp_path):
        """With no snapshot at all, replaying the logged query buys the same
        answers again on the simulated crowd, so the cache is whole."""
        engine = _companies_engine(tmp_path, fsync="always")
        _run_find_ceo(engine)
        first_cost = engine.total_crowd_cost
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn is None
        recovered = result.engine
        assert recovered.task_cache.state_dict() == engine.task_cache.state_dict()
        _run_find_ceo(recovered)
        assert recovered.total_crowd_cost == first_cost

    @pytest.mark.parametrize("fsync", ["interval", "off"])
    def test_a_drained_query_rebuilds_the_cache_under_every_fsync_policy(self, tmp_path, fsync):
        """The drain barrier forces the submission to disk, so a crash after
        the run loses no cached answer whatever the fsync policy."""
        engine = _companies_engine(tmp_path, fsync=fsync)
        _run_find_ceo(engine)
        engine.journal.wal.simulate_crash()

        recovered = QurkEngine.recover(tmp_path).engine
        assert len(recovered.task_cache) == 5
        assert recovered.task_cache.state_dict() == engine.task_cache.state_dict()

    def test_answers_bought_after_a_checkpoint_come_back_through_replay(self, tmp_path):
        engine = _companies_engine(tmp_path, fsync="always")
        engine.checkpoint()  # an empty cache is snapshotted
        _run_find_ceo(engine)
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        _, state = load_latest_snapshot(tmp_path)
        assert state["task_cache"]["entries"] == []
        assert result.snapshot_lsn is not None
        assert len(result.engine.task_cache) == 5
        assert result.engine.task_cache.state_dict() == engine.task_cache.state_dict()

    def test_imported_answers_survive_a_checkpoint_as_local_answers(self, tmp_path):
        """Answers another shard bought, imported before a checkpoint, are
        reused after ``recover``; restored entries count as this engine's own."""
        from repro.storage.durability import build_engine_from_payload

        other = build_engine_from_payload(COMPANIES_SPEC)
        _run_find_ceo(other)
        _, items = other.task_cache.export_since(0)

        engine = _companies_engine(tmp_path)
        assert engine.task_cache.import_entries(items) == 5
        engine.checkpoint()
        engine.journal.close()

        recovered = QurkEngine.recover(tmp_path).engine
        _run_find_ceo(recovered)
        assert recovered.total_crowd_cost == 0
        assert recovered.task_manager.stats.cache_answers == 5
        assert recovered.task_cache.stats.cross_shard_hits == 0
        cursor, exported = recovered.task_cache.export_since(0)
        assert cursor == 5 and sorted(map(str, exported)) == sorted(map(str, items))

    def test_a_repeat_after_recovery_credits_what_it_saved(self, tmp_path):
        engine = _companies_engine(tmp_path)
        _run_find_ceo(engine)
        first_cost = engine.total_crowd_cost
        engine.checkpoint()
        engine.journal.close()

        recovered = QurkEngine.recover(tmp_path).engine
        saved_before = recovered.task_cache.stats.dollars_saved
        hits_before = recovered.task_cache.stats.hits
        _run_find_ceo(recovered)
        assert recovered.task_cache.stats.hits - hits_before == 5
        assert recovered.task_cache.stats.dollars_saved - saved_before == pytest.approx(
            first_cost
        )

    def test_a_disabled_cache_carries_no_answers_across_recovery(self, tmp_path):
        spec = {
            "factory": COMPANIES_SPEC["factory"],
            "kwargs": dict(COMPANIES_SPEC["kwargs"], enable_cache=False),
        }
        engine = _companies_engine(tmp_path, spec=spec)
        _run_find_ceo(engine)
        first_cost = engine.total_crowd_cost
        engine.checkpoint()
        engine.journal.close()
        _, state = load_latest_snapshot(tmp_path)
        assert state["task_cache"]["entries"] == []

        recovered = QurkEngine.recover(tmp_path).engine
        _run_find_ceo(recovered)
        assert recovered.total_crowd_cost == pytest.approx(2 * first_cost)
        assert recovered.task_manager.stats.cache_answers == 0

    def test_snapshot_entries_with_stored_at_and_confidence_still_recover(self, tmp_path):
        """Cache records once also carried ``stored_at`` and ``confidence``;
        a snapshot holding such records recovers, and the fields are dropped."""
        engine = _companies_engine(tmp_path)
        _run_find_ceo(engine)
        first_cost = engine.total_crowd_cost
        engine.checkpoint()
        engine.journal.close()
        lsn, state = load_latest_snapshot(tmp_path)
        for entry in state["task_cache"]["entries"]:
            entry.update(stored_at=1.0, confidence=0.95)
        write_snapshot(tmp_path, state, lsn=lsn)

        recovered = QurkEngine.recover(tmp_path).engine
        records = recovered.task_cache.state_dict()["entries"]
        assert len(records) == 5
        assert all(list(record) == ["name", "key", "reduced", "original_cost"] for record in records)
        _run_find_ceo(recovered)
        assert recovered.total_crowd_cost == first_cost
