"""Unit tests for the simulated MTurk requester service."""

import pytest

from repro.crowd import (
    AssignmentStatus,
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
from repro.errors import CrowdError, HITError

from support import CallbackOracle


ORACLE = CallbackOracle(
    form=lambda item, field: f"{field.name} of {item.payload['company']}",
    predicate=lambda item: item.payload.get("truth", True),
)


def make_platform(seed=0, mix=None, auto_approve=True):
    clock = SimulationClock()
    pool = WorkerPool(size=60, seed=seed, mix=mix or PopulationMix())
    platform = MTurkSimulator(clock, pool, ORACLE, auto_approve=auto_approve)
    return clock, platform


def form_content(company="Acme"):
    return HITContent(
        interface=HITInterface.QUESTION_FORM,
        title="Find the CEO",
        instructions="Find the CEO and phone",
        items=(HITItem("item0", company, {"company": company}),),
        fields=(FormField("CEO"), FormField("Phone")),
    )


class TestHITCreation:
    def test_create_and_complete_hit(self):
        clock, platform = make_platform()
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=3)
        assert hit.status is HITStatus.OPEN
        assert platform.get_hit(hit.hit_id) is hit
        clock.run_until_idle()
        assert hit.status is HITStatus.COMPLETED
        assert len(platform.submitted_assignments(hit.hit_id)) == 3

    def test_answers_follow_oracle_for_reliable_population(self):
        clock, platform = make_platform(mix=PopulationMix(diligent=1, noisy=0, lazy=0, spammer=0))
        hit = platform.create_hit(form_content("Initech"), reward=0.02, max_assignments=1)
        clock.run_until_idle()
        answers = platform.submitted_assignments(hit.hit_id)[0].answers
        assert answers["item0"]["CEO"] == "CEO of Initech"

    def test_reward_below_minimum_rejected(self):
        _, platform = make_platform()
        with pytest.raises(CrowdError):
            platform.create_hit(form_content(), reward=0.0001)

    def test_unknown_hit_lookup(self):
        _, platform = make_platform()
        with pytest.raises(HITError):
            platform.get_hit("nope")

    def test_completion_takes_simulated_minutes(self):
        clock, platform = make_platform()
        platform.create_hit(form_content(), reward=0.01, max_assignments=1)
        clock.run_until_idle()
        # Pick-up plus work time should be on the order of minutes, not ms.
        assert clock.now > 30.0

    def test_listener_fires_per_assignment(self):
        clock, platform = make_platform()
        seen = []
        platform.on_assignment_submitted(lambda hit, a: seen.append(a.assignment_id))
        platform.create_hit(form_content(), reward=0.02, max_assignments=4)
        clock.run_until_idle()
        assert len(seen) == 4


class TestAccounting:
    def test_auto_approve_pays_reward_plus_fee(self):
        clock, platform = make_platform()
        platform.create_hit(form_content(), reward=0.02, max_assignments=2)
        clock.run_until_idle()
        assert platform.stats.assignments_approved == 2
        assert platform.total_cost == pytest.approx(2 * (0.02 + 0.005))

    def test_manual_approval_flow(self):
        clock, platform = make_platform(auto_approve=False)
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=1)
        clock.run_until_idle()
        assert platform.total_cost == 0.0
        assignment = platform.submitted_assignments(hit.hit_id)[0]
        platform.approve_assignment(assignment.assignment_id)
        assert assignment.status is AssignmentStatus.APPROVED
        assert platform.total_cost > 0

    def test_reject_does_not_pay(self):
        clock, platform = make_platform(auto_approve=False)
        hit = platform.create_hit(form_content(), reward=0.02, max_assignments=1)
        clock.run_until_idle()
        assignment = platform.submitted_assignments(hit.hit_id)[0]
        platform.reject_assignment(assignment.assignment_id)
        assert platform.stats.assignments_rejected == 1
        assert platform.total_cost == 0.0

    def test_unknown_assignment_raises(self):
        _, platform = make_platform()
        with pytest.raises(CrowdError):
            platform.approve_assignment("missing")

    def test_estimate_cost(self):
        _, platform = make_platform()
        assert platform.estimate_cost(0.02, hit_count=10, assignments=3) == pytest.approx(
            10 * 3 * 0.025
        )

    def test_per_worker_statistics_collected(self):
        clock, platform = make_platform()
        platform.create_hit(form_content(), reward=0.02, max_assignments=5)
        clock.run_until_idle()
        assert sum(platform.stats.per_worker_assignments.values()) == 5


class TestLifecycleManagement:
    def test_expired_hit_drops_late_workers(self):
        clock, platform = make_platform()
        # A HIT whose lifetime is shorter than any plausible pick-up delay.
        hit = platform.create_hit(form_content(), reward=0.01, max_assignments=3, lifetime=0.001)
        clock.run_until_idle()
        assert len(hit.assignments) <= 3
        assert hit.status in (HITStatus.OPEN, HITStatus.COMPLETED)

    def test_expire_and_dispose(self):
        clock, platform = make_platform()
        hit = platform.create_hit(form_content(), reward=0.01, max_assignments=1)
        platform.expire_hit(hit.hit_id)
        assert hit.status is HITStatus.EXPIRED
        platform.dispose_hit(hit.hit_id)
        assert hit.status is HITStatus.DISPOSED

    def test_cannot_dispose_open_hit(self):
        _, platform = make_platform()
        hit = platform.create_hit(form_content(), reward=0.01, max_assignments=1)
        with pytest.raises(HITError):
            platform.dispose_hit(hit.hit_id)

    def test_open_hits_close_when_their_assignments_are_in(self):
        clock, platform = make_platform()
        platform.create_hit(form_content(), reward=0.01, max_assignments=2)
        assert len(platform.open_hits()) == 1
        clock.run_until_idle()
        assert len(platform.open_hits()) == 0

    def test_runs_are_reproducible_for_same_seed(self):
        def run(seed):
            clock, platform = make_platform(seed=seed)
            hit = platform.create_hit(form_content(), reward=0.02, max_assignments=3)
            clock.run_until_idle()
            return [
                (a.worker_id, round(a.submitted_at, 6))
                for a in platform.submitted_assignments(hit.hit_id)
            ]

        assert run(42) == run(42)
        assert run(42) != run(43)
