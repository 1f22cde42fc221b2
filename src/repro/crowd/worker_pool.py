"""Worker populations and marketplace dynamics.

The pool decides *which* simulated worker picks up an assignment and *when*.
Pick-up latency follows the marketplace intuition the paper relies on: HITs
take "several minutes" to complete, and better-paying HITs are picked up
faster.  The population mix (diligent / noisy / lazy / spammer fractions) is
the main knob for the redundancy experiments (E5).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.crowd.hit import HIT
from repro.crowd.workers import (
    DiligentWorker,
    LazyWorker,
    NoisyWorker,
    SpammerWorker,
    WorkerModel,
)
from repro.errors import WorkerError

__all__ = ["PopulationMix", "WorkerPool"]

#: Mean time for a HIT paying :data:`REFERENCE_REWARD` to be accepted.
BASE_PICKUP_SECONDS = 180.0
#: How strongly higher rewards shorten pick-up time.
REWARD_ELASTICITY = 0.5
REFERENCE_REWARD = 0.01


@dataclass(frozen=True)
class PopulationMix:
    """Fractions of each worker archetype in the marketplace.

    The fractions need not sum exactly to 1; they are normalised.  The
    default mix (mostly reliable, some noisy, a few lazy, a small spammer
    tail) is calibrated to make single-assignment accuracy land around 85-90%,
    matching the paper's premise that one answer is not trustworthy enough.
    """

    diligent: float = 0.55
    noisy: float = 0.30
    lazy: float = 0.10
    spammer: float = 0.05

    def __post_init__(self) -> None:
        fractions = (self.diligent, self.noisy, self.lazy, self.spammer)
        if any(f < 0 for f in fractions):
            raise WorkerError("population fractions must be non-negative")
        if sum(fractions) <= 0:
            raise WorkerError("population mix must contain at least one worker type")

    def normalised(self) -> tuple[float, float, float, float]:
        """The four fractions normalised to sum to 1."""
        total = self.diligent + self.noisy + self.lazy + self.spammer
        return (
            self.diligent / total,
            self.noisy / total,
            self.lazy / total,
            self.spammer / total,
        )


@dataclass
class WorkerPool:
    """A population of simulated workers and their marketplace behaviour.

    Parameters
    ----------
    size:
        Number of distinct workers in the pool.
    mix:
        Archetype fractions used to instantiate the population.
    seed:
        Seed for the pool's private random stream (worker creation, pick-up
        times, worker selection).  Answer noise uses per-assignment streams
        derived from this seed so that runs are reproducible.
    """

    size: int = 100
    mix: PopulationMix = field(default_factory=PopulationMix)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.size < 1:
            raise WorkerError("worker pool must contain at least one worker")
        self._rng = random.Random(self.seed)
        self._workers: list[WorkerModel] = self._build_population()
        self._assignment_counter = 0

    # -- population ----------------------------------------------------------

    def _build_population(self) -> list[WorkerModel]:
        diligent, noisy, lazy, spammer = self.mix.normalised()
        workers: list[WorkerModel] = []
        for index in range(self.size):
            draw = self._rng.random()
            worker_id = f"W{index:04d}"
            if draw < diligent:
                workers.append(DiligentWorker(worker_id))
            elif draw < diligent + noisy:
                workers.append(NoisyWorker(worker_id))
            elif draw < diligent + noisy + lazy:
                workers.append(LazyWorker(worker_id))
            else:
                workers.append(SpammerWorker(worker_id))
        return workers

    @property
    def workers(self) -> list[WorkerModel]:
        """The full population (stable order)."""
        return list(self._workers)

    # -- marketplace ---------------------------------------------------------

    def select_workers(self, hit: HIT, count: int) -> list[WorkerModel]:
        """Choose ``count`` distinct workers to complete ``hit``.

        MTurk prevents the same worker from completing more than one
        assignment of a HIT, so selection is without replacement (falling
        back to replacement only if the pool is smaller than ``count``).
        A HIT's ``excluded_workers`` qualification is honoured while enough
        other workers exist, so re-posted tasks get fresh judges.
        """
        if hit.excluded_workers:
            candidates = [
                worker for worker in self._workers if worker.worker_id not in hit.excluded_workers
            ]
            if count <= len(candidates):
                return self._rng.sample(candidates, count)
            # Not enough fresh workers: take every fresh one and fill the
            # remainder from the excluded set — the independence guarantee
            # degrades as little as the pool allows (callers can detect the
            # repeat via duplicate worker ids on the answer list).
            excluded_pool = [
                worker for worker in self._workers if worker.worker_id in hit.excluded_workers
            ]
            fill = min(count - len(candidates), len(excluded_pool))
            return candidates + self._rng.sample(excluded_pool, fill)
        if count <= len(self._workers):
            return self._rng.sample(self._workers, count)
        return [self._rng.choice(self._workers) for _ in range(count)]

    def select_replacement(self, hit: HIT) -> WorkerModel | None:
        """Choose one worker to pick up an assignment returned to the pool.

        Used by the simulator's abandonment fault: the replacement must not
        already hold an assignment of the HIT (the marketplace rule), and
        preferably not be barred by the HIT's exclusion list; ``None`` when
        every worker has already touched the HIT.
        """
        taken = {assignment.worker_id for assignment in hit.assignments}
        candidates = [
            worker
            for worker in self._workers
            if worker.worker_id not in taken and worker.worker_id not in hit.excluded_workers
        ]
        if not candidates:
            candidates = [worker for worker in self._workers if worker.worker_id not in taken]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def pickup_delay(self, hit: HIT) -> float:
        """Sample the time until some worker accepts an assignment of ``hit``.

        Mean delay shrinks with the offered reward (diminishing returns via
        :data:`REWARD_ELASTICITY`) and grows slightly with the amount of work
        in the HIT, since workers preview HITs before accepting long ones.
        """
        reward_ratio = max(hit.reward, 1e-4) / REFERENCE_REWARD
        mean = BASE_PICKUP_SECONDS / (reward_ratio**REWARD_ELASTICITY)
        mean *= 1.0 + 0.02 * max(hit.content.work_units - 1, 0)
        return self._rng.expovariate(1.0 / mean)

    def assignment_rng(self, assignment_id: str) -> random.Random:
        """A private random stream for one assignment's answer noise.

        Derived from a CRC of the assignment id (not ``hash()``, which is
        salted per process) so runs are reproducible across interpreters.
        """
        digest = zlib.crc32(assignment_id.encode("utf-8"))
        return random.Random((self.seed << 32) ^ digest)

    def next_assignment_id(self) -> str:
        """Generate a platform-unique assignment id."""
        self._assignment_counter += 1
        return f"A{self._assignment_counter:06d}"

    # -- durability -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Evolved marketplace state for a snapshot.

        The population itself is *not* captured: it is a pure function of
        ``(size, mix, seed)`` and is rebuilt identically by the engine
        spec.  What evolves during a run is the shared random stream and
        the assignment-id counter.
        """
        return {
            "rng": self._rng.getstate(),
            "assignment_counter": self._assignment_counter,
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.setstate(state["rng"])
        self._assignment_counter = int(state["assignment_counter"])
