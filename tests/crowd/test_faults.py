"""Unit tests for fault injection in the simulated MTurk platform."""

import pytest

from repro.crowd import (
    AssignmentStatus,
    FaultProfile,
    FormField,
    HITContent,
    HITInterface,
    HITItem,
    HITStatus,
    MTurkSimulator,
    PopulationMix,
    SimulationClock,
    WorkerPool,
)
from repro.errors import CrowdError

from support import CallbackOracle


ORACLE = CallbackOracle(
    form=lambda item, field: f"{field.name} of {item.payload['company']}",
    predicate=lambda item: item.payload.get("truth", True),
)


def make_platform(seed=0, faults=None, pool_size=60):
    clock = SimulationClock()
    pool = WorkerPool(size=pool_size, seed=seed, mix=PopulationMix())
    platform = MTurkSimulator(clock, pool, ORACLE, faults=faults)
    return clock, platform


def form_content(company="Acme"):
    return HITContent(
        interface=HITInterface.QUESTION_FORM,
        title="Find the CEO",
        instructions="Find the CEO and phone",
        items=(HITItem("item0", company, {"company": company}),),
        fields=(FormField("CEO"), FormField("Phone")),
    )


class TestFaultProfile:
    def test_default_profile_is_inert(self):
        assert not FaultProfile().enabled
        assert FaultProfile().describe() == "faults off"

    def test_any_knob_enables(self):
        assert FaultProfile(abandonment_rate=0.1).enabled
        assert FaultProfile(duplicate_rate=0.1).enabled
        assert FaultProfile(late_rate=0.1).enabled
        assert FaultProfile(pickup_slowdown=2.0).enabled
        assert FaultProfile(hit_lifetime=60.0).enabled

    def test_validation(self):
        with pytest.raises(CrowdError):
            FaultProfile(abandonment_rate=1.5)
        with pytest.raises(CrowdError):
            FaultProfile(pickup_slowdown=0.0)
        with pytest.raises(CrowdError):
            FaultProfile(hit_lifetime=-1.0)

    def test_inert_profile_matches_no_profile_exactly(self):
        """faults=FaultProfile() must not perturb the cooperative simulation."""

        def run(faults):
            clock, platform = make_platform(seed=3, faults=faults)
            hit = platform.create_hit(form_content(), reward=0.02, max_assignments=3)
            clock.run_until_idle()
            return [
                (a.worker_id, a.accepted_at, a.submitted_at)
                for a in platform.submitted_assignments(hit.hit_id)
            ]

        assert run(None) == run(FaultProfile())


class TestAbandonment:
    def test_abandoned_assignments_are_replaced(self):
        faults = FaultProfile(seed=5, abandonment_rate=0.5, hit_lifetime=48 * 3600.0)
        clock, platform = make_platform(seed=1, faults=faults)
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=4)
        clock.run_until_idle()
        assert platform.stats.assignments_abandoned > 0
        abandoned = [a for a in hit.assignments if a.status is AssignmentStatus.ABANDONED]
        assert len(abandoned) == platform.stats.assignments_abandoned
        # Replacement workers filled the abandoned slots.
        assert hit.status is HITStatus.COMPLETED
        assert len(hit.submitted_assignments) == 4
        # No worker holds two assignments of one HIT.
        workers = [a.worker_id for a in hit.assignments]
        assert len(workers) == len(set(workers))

    def test_abandoned_work_is_never_paid(self):
        faults = FaultProfile(seed=5, abandonment_rate=1.0, hit_lifetime=600.0)
        clock, platform = make_platform(seed=1, faults=faults)
        platform.create_hit(form_content(), reward=0.02, max_assignments=2)
        clock.run_until_idle()
        assert platform.stats.assignments_submitted == 0
        assert platform.total_cost == 0.0


class TestExpiry:
    def test_unpicked_hit_expires_and_fires_listener(self):
        faults = FaultProfile(seed=5, hit_lifetime=30.0, pickup_slowdown=100.0)
        clock, platform = make_platform(seed=1, faults=faults)
        expired = []
        platform.on_hit_expired(lambda hit: expired.append(hit.hit_id))
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=3)
        clock.run_until_idle()
        assert hit.status is HITStatus.EXPIRED
        assert expired == [hit.hit_id]
        assert platform.stats.hits_expired == 1
        assert platform.total_cost == 0.0

    def test_completed_hit_cancels_its_expiry_event(self):
        faults = FaultProfile(seed=5, hit_lifetime=48 * 3600.0)
        clock, platform = make_platform(seed=1, faults=faults)
        expired = []
        platform.on_hit_expired(lambda hit: expired.append(hit.hit_id))
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=2)
        clock.run_until_idle()
        assert hit.status is HITStatus.COMPLETED
        assert expired == []

    def test_manual_expire_fires_listener_once(self):
        clock, platform = make_platform(seed=1)
        expired = []
        platform.on_hit_expired(lambda hit: expired.append(hit.hit_id))
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=1)
        platform.expire_hit(hit.hit_id)
        platform.expire_hit(hit.hit_id)  # idempotent
        assert expired == [hit.hit_id]
        assert platform.stats.hits_expired == 1

    def test_submission_after_expiry_is_dropped_unpaid(self):
        clock, platform = make_platform(seed=1)
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=1)
        platform.expire_hit(hit.hit_id)
        clock.run_until_idle()  # the in-flight submission lands late
        assert platform.stats.late_submissions_dropped == 1
        assert platform.stats.assignments_submitted == 0
        assert platform.total_cost == 0.0


class TestDuplicatesAndLateness:
    def test_duplicates_are_ignored_and_unpaid(self):
        faults = FaultProfile(seed=5, duplicate_rate=1.0, hit_lifetime=48 * 3600.0)
        clock, platform = make_platform(seed=1, faults=faults)
        seen = []
        platform.on_assignment_submitted(lambda hit, a: seen.append(a.assignment_id))
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=3)
        clock.run_until_idle()
        assert platform.stats.duplicate_submissions_ignored == 3
        assert platform.stats.assignments_submitted == 3
        # Listeners fired once per real submission, and each was paid once.
        assert len(seen) == 3
        assert platform.total_cost == pytest.approx(3 * (0.02 + 0.005))
        assert len(hit.submitted_assignments) == 3

    def test_late_submissions_miss_short_deadlines(self):
        faults = FaultProfile(seed=5, late_rate=1.0, hit_lifetime=900.0)
        clock, platform = make_platform(seed=1, faults=faults)
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=2)
        clock.run_until_idle()
        assert hit.status is HITStatus.EXPIRED
        assert platform.stats.late_submissions_dropped == 2
        assert platform.total_cost == 0.0


class TestDeterminism:
    def test_faulty_runs_are_reproducible(self):
        faults = FaultProfile(
            seed=9, abandonment_rate=0.3, duplicate_rate=0.3, late_rate=0.2, hit_lifetime=3600.0
        )

        def run():
            clock, platform = make_platform(seed=2, faults=faults)
            for i in range(4):
                platform.create_hit(form_content(f"Co{i}"), reward=0.02, max_assignments=3)
            clock.run_until_idle()
            stats = platform.stats
            return (
                stats.assignments_submitted,
                stats.assignments_abandoned,
                stats.duplicate_submissions_ignored,
                stats.late_submissions_dropped,
                stats.hits_expired,
                round(platform.total_cost, 9),
            )

        assert run() == run()
