"""Unit tests for the worker pool / marketplace model."""

import pytest

from repro.crowd import (
    HIT,
    HITContent,
    HITInterface,
    HITItem,
    NoisyWorker,
    PopulationMix,
    SpammerWorker,
    WorkerPool,
)
from repro.crowd.worker_pool import REFERENCE_REWARD, REWARD_ELASTICITY
from repro.errors import WorkerError


def mean_accuracy(pool):
    """Mean single-judgement accuracy across the population."""
    return sum(worker.accuracy for worker in pool.workers) / len(pool.workers)


def simple_hit(reward=0.01, items=1, assignments=1):
    content = HITContent(
        interface=HITInterface.BINARY_CHOICE,
        title="t",
        instructions="i",
        items=tuple(HITItem(f"i{k}", "p") for k in range(items)),
    )
    return HIT("h1", content, reward=reward, max_assignments=assignments, created_at=0.0)


class TestPopulationMix:
    def test_normalisation(self):
        mix = PopulationMix(diligent=2, noisy=1, lazy=1, spammer=0)
        assert sum(mix.normalised()) == pytest.approx(1.0)
        assert mix.normalised()[0] == pytest.approx(0.5)

    def test_negative_fraction_rejected(self):
        with pytest.raises(WorkerError):
            PopulationMix(diligent=-1)

    def test_all_zero_rejected(self):
        with pytest.raises(WorkerError):
            PopulationMix(diligent=0, noisy=0, lazy=0, spammer=0)


class TestWorkerPool:
    def test_population_size_and_determinism(self):
        pool_a = WorkerPool(size=50, seed=3)
        pool_b = WorkerPool(size=50, seed=3)
        assert len(pool_a.workers) == 50
        assert [type(w).__name__ for w in pool_a.workers] == [
            type(w).__name__ for w in pool_b.workers
        ]

    def test_different_seeds_differ(self):
        pool_a = WorkerPool(size=200, seed=1)
        pool_b = WorkerPool(size=200, seed=2)
        assert [type(w).__name__ for w in pool_a.workers] != [
            type(w).__name__ for w in pool_b.workers
        ]

    def test_spammer_only_population(self):
        pool = WorkerPool(size=20, mix=PopulationMix(diligent=0, noisy=0, lazy=0, spammer=1))
        assert all(isinstance(w, SpammerWorker) for w in pool.workers)
        assert mean_accuracy(pool) == pytest.approx(0.5)

    def test_noisy_workers_take_the_archetype_accuracy(self):
        pool = WorkerPool(size=20, mix=PopulationMix(diligent=0, noisy=1, lazy=0, spammer=0))
        assert all(isinstance(w, NoisyWorker) for w in pool.workers)
        assert {w.accuracy for w in pool.workers} == {NoisyWorker.accuracy}

    def test_mean_accuracy_of_default_mix_is_high_but_imperfect(self):
        pool = WorkerPool(size=500, seed=11)
        assert 0.8 < mean_accuracy(pool) < 0.99

    def test_select_workers_without_replacement(self):
        pool = WorkerPool(size=30, seed=0)
        chosen = pool.select_workers(simple_hit(assignments=10), 10)
        ids = [w.worker_id for w in chosen]
        assert len(set(ids)) == 10

    def test_select_more_workers_than_pool_falls_back_to_replacement(self):
        pool = WorkerPool(size=3, seed=0)
        chosen = pool.select_workers(simple_hit(), 10)
        assert len(chosen) == 10

    def test_minimum_pool_size_enforced(self):
        with pytest.raises(WorkerError):
            WorkerPool(size=0)

    def test_higher_reward_shortens_mean_pickup(self):
        pool = WorkerPool(size=50, seed=9)
        cheap = [pool.pickup_delay(simple_hit(reward=0.01)) for _ in range(300)]
        pool2 = WorkerPool(size=50, seed=9)
        generous = [pool2.pickup_delay(simple_hit(reward=0.25)) for _ in range(300)]
        assert sum(generous) / len(generous) < sum(cheap) / len(cheap)

    def test_mean_pickup_follows_the_reward_elasticity(self):
        # Same seed, same exponential draws: only the mean differs, by
        # (reward ratio) ** REWARD_ELASTICITY.
        ratio = 4.0
        pool = WorkerPool(size=50, seed=9)
        base = [pool.pickup_delay(simple_hit(reward=REFERENCE_REWARD)) for _ in range(50)]
        pool2 = WorkerPool(size=50, seed=9)
        richer = [pool2.pickup_delay(simple_hit(reward=REFERENCE_REWARD * ratio)) for _ in range(50)]
        for slow, fast in zip(base, richer):
            assert slow / fast == pytest.approx(ratio**REWARD_ELASTICITY)

    def test_bigger_hits_take_longer_to_get_picked_up(self):
        pool = WorkerPool(size=50, seed=9)
        small = [pool.pickup_delay(simple_hit(items=1)) for _ in range(300)]
        pool2 = WorkerPool(size=50, seed=9)
        large = [pool2.pickup_delay(simple_hit(items=100)) for _ in range(300)]
        assert sum(large) > sum(small)

    def test_assignment_rng_is_deterministic_per_id(self):
        pool = WorkerPool(seed=5)
        a = pool.assignment_rng("A1").random()
        b = WorkerPool(seed=5).assignment_rng("A1").random()
        c = pool.assignment_rng("A2").random()
        assert a == b
        assert a != c

    def test_assignment_ids_unique(self):
        pool = WorkerPool()
        ids = {pool.next_assignment_id() for _ in range(100)}
        assert len(ids) == 100
