"""Kill-at-K recovery invariants: every crash instant recovers byte-identically.

The invariant under test is the strongest the engine can offer: for ANY
crash instant K (a WAL append, or a crowd event that replay regenerates
and so writes nothing) and ANY fsync policy, killing a durable run at K
and recovering from disk yields an engine whose ``fingerprint_engine``
output equals an uninterrupted, non-durable run of the submissions that
made it into the log.  Determinism turns "recovery looks right" into
"recovery is bit-exact".
"""

import hashlib
import math
import random
from collections import Counter

import pytest

from repro.engine import QurkEngine
from repro.errors import QurkError
from repro.storage.durability import DurabilityConfig
from repro.storage.wal import WriteAheadLog
from repro.testing.crashpoints import (
    PRODUCTS_SQL,
    CrashScenario,
    all_crash_scenarios,
    corrupt_tail,
    crash_instants,
    crash_points,
    faulty_crash_scenario,
    plain_crash_scenario,
    quality_crash_scenario,
    recovered_fingerprint,
    recovered_query_count,
    reference_fingerprint,
    run_durable,
    run_phases,
)

SCENARIOS = {scenario.name: scenario for scenario in all_crash_scenarios()}


def _assert_crash_recovers_exactly(scenario, tmp_path, *, crash_at, fsync):
    run_durable(scenario, tmp_path, fsync=fsync, crash_at=crash_at)
    result = QurkEngine.recover(tmp_path, fsync=fsync)
    n = recovered_query_count(result)
    assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)
    return result


class TestKillAtKSweep:
    """Seeded crash-point schedules over each scenario's full event range."""

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_sweep(self, name, tmp_path):
        scenario = SCENARIOS[name]
        total = len(crash_instants(scenario))
        assert total > 20, "scenario too small to be an interesting sweep"
        rng = random.Random(hash(name) & 0xFFFF)
        for crash_at in crash_points(total, 5, seed=rng.randint(0, 1_000)):
            fsync = rng.choice(("always", "interval", "off"))
            directory = tmp_path / f"k{crash_at}"
            _assert_crash_recovers_exactly(
                scenario, directory, crash_at=crash_at, fsync=fsync
            )

    def test_crash_on_very_first_append(self, tmp_path):
        """K=1 dies inside the first query() — before its group commit.

        The submission was still in the WAL buffer, so recovery yields an
        empty (but consistent) engine; with ``fsync="always"`` the same
        crash point keeps the submission.
        """
        result = _assert_crash_recovers_exactly(
            plain_crash_scenario(), tmp_path / "interval", crash_at=1, fsync="interval"
        )
        assert recovered_query_count(result) == 0
        result = _assert_crash_recovers_exactly(
            plain_crash_scenario(), tmp_path / "always", crash_at=1, fsync="always"
        )
        assert recovered_query_count(result) == 1

    def test_drain_barrier_commits_pending_submissions(self, tmp_path):
        """Crashing right past a drain record never loses its submissions."""
        scenario = plain_crash_scenario()
        # Find the first drain instant, then crash at the instant after it.
        kinds = crash_instants(scenario, fsync="off")
        drain = kinds.index("drain")
        n_before = kinds[:drain].count("query_submitted")
        assert n_before >= 1
        result = _assert_crash_recovers_exactly(
            scenario, tmp_path / "crash", crash_at=drain + 2, fsync="off"
        )
        assert recovered_query_count(result) >= n_before

    def test_crash_beyond_the_end_recovers_the_full_run(self, tmp_path):
        scenario = plain_crash_scenario()
        result = _assert_crash_recovers_exactly(
            scenario, tmp_path, crash_at=10_000, fsync="off"
        )
        assert recovered_query_count(result) == scenario.total_submissions


class TestReplayOnlyLog:
    """The WAL holds only what replay reads; crowd events stay crash instants.

    CI's crash-matrix job runs this class by name.
    """

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_a_durable_run_logs_only_submissions_and_drains(self, name, tmp_path):
        scenario = SCENARIOS[name]
        engine = scenario.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(tmp_path), snapshot_every=None),
            spec=scenario.spec_payload(),
        )
        run_phases(engine, scenario)
        engine.journal.close()
        info, _ = WriteAheadLog.scan(tmp_path / "wal.log")
        expected = []
        for phase in scenario.phases:
            expected += ["query_submitted"] * len(phase) + ["drain"]
        assert [record.type for record in info.records] == expected

    #: Per scenario: how many crash instants a durable run offers, how many
    #: of each kind, and the first 16 hex digits of the sha256 of the kinds
    #: joined by commas — the instants the sweep killed at when every crowd
    #: event was still a WAL record, so every K keeps its moment.
    INSTANTS = {
        "plain-products": (
            161,
            {"query_submitted": 3, "drain": 2, "query_event": 12, "budget_commit": 36,
             "hit_posted": 36, "hit_settled": 36, "answer_delivered": 36},
            "6d628bd81fa9a59f",
        ),
        "cached-companies": (
            53,
            {"query_submitted": 3, "drain": 2, "query_event": 12, "budget_commit": 6,
             "hit_posted": 6, "hit_settled": 6, "answer_delivered": 18},
            "092b7ca3b99260e3",
        ),
        "faulty-products": (
            78,
            {"query_submitted": 2, "drain": 2, "query_event": 8, "budget_commit": 12,
             "hit_posted": 12, "hit_settled": 12, "answer_delivered": 24,
             "budget_release": 6},
            "94e5fee4d50879c8",
        ),
        "quality-products": (
            65,
            {"query_submitted": 2, "drain": 2, "query_event": 8, "budget_commit": 11,
             "hit_posted": 11, "hit_settled": 11, "answer_delivered": 20},
            "3f926808d7a03fb5",
        ),
    }

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_crash_instants_keep_their_kinds_and_order(self, name):
        kinds = crash_instants(SCENARIOS[name])
        total, counts, digest = self.INSTANTS[name]
        assert len(kinds) == total
        assert Counter(kinds) == counts
        assert hashlib.sha256(",".join(kinds).encode()).hexdigest()[:16] == digest

    def test_a_log_with_audit_records_still_recovers(self, tmp_path):
        """Logs written when crowd events were records replay unchanged."""
        scenario = plain_crash_scenario()
        run_durable(scenario, tmp_path, fsync="always")
        wal, _ = WriteAheadLog.open(tmp_path / "wal.log")
        wal.append(
            "hit_posted",
            {"hit_id": "HIT-1", "spec": "isTargetColor", "tasks": 1, "cost": 0.03,
             "shares": {"q3": 1}},
        )
        wal.append(
            "query_event",
            {"query_id": "q3", "event": "completed", "detail": "", "time": 60.0},
        )
        wal.close()
        result = QurkEngine.recover(tmp_path)
        assert [record.type for record in result.records[-2:]] == ["hit_posted", "query_event"]
        assert recovered_query_count(result) == scenario.total_submissions
        assert recovered_fingerprint(result) == reference_fingerprint(
            scenario, scenario.total_submissions
        )


class TestCrashSmoke:
    """The fast fixed-point subset CI's crash-matrix job runs by name."""

    @pytest.mark.parametrize("crash_at", [1, 40, 120])
    def test_fixed_points(self, crash_at, tmp_path):
        _assert_crash_recovers_exactly(
            plain_crash_scenario(), tmp_path, crash_at=crash_at, fsync="interval"
        )

    def test_corruption_case(self, tmp_path):
        scenario = plain_crash_scenario()
        run_durable(scenario, tmp_path, fsync="always")
        corrupt_tail(tmp_path / "wal.log", mode="truncate", seed=5)
        result = QurkEngine.recover(tmp_path)
        assert result.corruption is not None
        assert result.truncated_bytes > 0
        n = recovered_query_count(result)
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)


class TestRefusedSubmissions:
    """A submission refused at ``query()`` and what recovery makes of it.

    CI's crash-matrix job runs this class with the fixed crash points.
    """

    @pytest.mark.parametrize("priority", [0.0, math.nan, math.inf])
    def test_invalid_priority_leaves_no_record(self, priority, tmp_path):
        scenario = plain_crash_scenario()
        engine = scenario.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(tmp_path), fsync="always"),
            spec=scenario.spec_payload(),
        )
        with pytest.raises(QurkError):
            engine.query(PRODUCTS_SQL, priority=priority)
        assert engine.query(PRODUCTS_SQL).query_id == "q1"  # no id was consumed
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        logged = [r.data["query_id"] for r in result.records if r.type == "query_submitted"]
        assert logged == ["q1"]
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, 1)

    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_invalid_budget_leaves_no_record(self, budget, tmp_path):
        """Refused before any side effect: no id, no WAL record, no ledger entry."""
        scenario = plain_crash_scenario()
        engine = scenario.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(tmp_path), fsync="always"),
            spec=scenario.spec_payload(),
        )
        with pytest.raises(QurkError, match="budget"):
            engine.query(PRODUCTS_SQL, budget=budget)
        assert engine.journal.wal.last_lsn == 0
        assert engine.budget_ledger._budgets == {}
        assert engine.query(PRODUCTS_SQL).query_id == "q1"  # no id was consumed
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        logged = [r.data["query_id"] for r in result.records if r.type == "query_submitted"]
        assert logged == ["q1"]
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, 1)

    def test_budget_beyond_64_bits_is_journaled_and_recovers(self, tmp_path):
        """A budget no 64-bit integer holds journals, snapshots and replays exactly."""
        scenario = CrashScenario(
            name="huge-budget",
            factory="repro.testing.crashpoints:build_plain_products_engine",
            kwargs={"n_products": 12, "seed": 13},
            phases=(
                ({"sql": PRODUCTS_SQL, "budget": 2**70, "priority": 1.0},),
                ({"sql": PRODUCTS_SQL, "budget": 2**70 + 1, "priority": 1.0},),
            ),
            checkpoint_after=(0,),
        )
        run_durable(scenario, tmp_path, fsync="always")
        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn is not None
        assert result.replayed_query_ids == ["q2"]
        assert result.engine.budget_ledger.state_dict()["budgets"]["q2"]["limit"] == 2**70 + 1
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, 2)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT nope FROM missing",
            "SELECT name FROM products WHERE nope > 1",
            "SELECT name FROM products WHERE unknownFn(name)",
        ],
    )
    def test_unplannable_statement_leaves_no_trace(self, sql, tmp_path):
        """Refused at planning: no id, no WAL record, no ledger entry, no table."""
        scenario = plain_crash_scenario()
        engine = scenario.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(tmp_path), fsync="always"),
            spec=scenario.spec_payload(),
        )
        tables = engine.database.catalog.table_names()
        with pytest.raises(QurkError):
            engine.query(sql)
        assert engine.database.catalog.table_names() == tables
        assert engine.budget_ledger._budgets == {}
        assert engine.query(PRODUCTS_SQL).query_id == "q1"  # no id was consumed
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        logged = [r.data["query_id"] for r in result.records if r.type == "query_submitted"]
        assert logged == ["q1"]
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, 1)

    def test_a_bad_select_column_still_runs_and_fails(self, tmp_path):
        """Only planning refuses: a SELECT-list column is resolved when the query runs."""
        scenario = plain_crash_scenario()
        engine = scenario.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(tmp_path), fsync="always"),
            spec=scenario.spec_payload(),
        )
        handle = engine.query("SELECT nope FROM products")
        assert handle.query_id == "q1"
        engine.scheduler.drain()
        assert handle.status.value == "failed"
        engine.journal.wal.simulate_crash()
        result = QurkEngine.recover(tmp_path)
        assert result.replayed_query_ids == ["q1"]
        assert result.engine.queries["q1"].status.value == "failed"

    def test_admission_refusal_replays_as_its_outcome(self, tmp_path):
        """The second query overflows a zero-length admission queue; replay agrees."""
        scenario = CrashScenario(
            name="admission-refusal",
            factory="repro.experiments.harness:build_products_engine",
            kwargs={
                "n_products": 12,
                "seed": 13,
                "engine_kwargs": {"max_concurrent_queries": 1, "admission_queue_limit": 0},
            },
            phases=(({"sql": PRODUCTS_SQL}, {"sql": PRODUCTS_SQL}),),
        )
        run_durable(scenario, tmp_path, fsync="always")
        result = QurkEngine.recover(tmp_path)
        assert result.replayed_query_ids == ["q1", "q2"]
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, 2)
        assert result.engine.queries["q2"].status.value == "shed"


class TestCorruptedTails:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_damage_is_detected_and_recovery_is_clean(self, mode, seed, tmp_path):
        scenario = faulty_crash_scenario()
        run_durable(scenario, tmp_path, fsync="always")
        corrupt_tail(tmp_path / "wal.log", mode=mode, seed=seed)
        result = QurkEngine.recover(tmp_path)
        assert result.corruption is not None
        n = recovered_query_count(result)
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)

    def test_double_crash_recover_crash_recover(self, tmp_path):
        """Recovery itself is durable: crash again after recovering."""
        scenario = quality_crash_scenario()
        run_durable(scenario, tmp_path, fsync="interval", crash_at=30)
        first = QurkEngine.recover(tmp_path)
        first.engine.journal.wal.simulate_crash()
        second = QurkEngine.recover(tmp_path)
        n = recovered_query_count(second)
        assert recovered_fingerprint(second) == reference_fingerprint(scenario, n)
        assert recovered_fingerprint(second) == recovered_fingerprint(first)
