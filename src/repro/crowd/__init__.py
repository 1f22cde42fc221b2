"""Simulated Mechanical Turk substrate.

The real MTurk service and its human workers are replaced by an in-process,
discrete-event simulation (see DESIGN.md, "Substitutions"):

* :class:`~repro.crowd.clock.SimulationClock` — simulated time.
* :class:`~repro.crowd.hit.HIT` / :class:`~repro.crowd.hit.HITContent` —
  the requester-facing HIT model, including the Figure 3 interfaces.
* :class:`~repro.crowd.workers.WorkerModel` subclasses — turker behaviour
  (diligent, noisy, lazy, spammer) driven by a ground-truth
  :class:`~repro.crowd.oracle.AnswerOracle`.
* :class:`~repro.crowd.worker_pool.WorkerPool` — population mix and
  marketplace pick-up latency.
* :class:`~repro.crowd.mturk.MTurkSimulator` — the requester API Qurk talks to.
"""

from repro.crowd.clock import ScheduledEvent, SimulationClock
from repro.crowd.faults import FaultProfile
from repro.crowd.quality import (
    GoldQuestion,
    GoldStandardPool,
    QualityConfig,
    WorkerReputation,
)
from repro.crowd.hit import (
    Assignment,
    AssignmentStatus,
    FormField,
    HIT,
    HITContent,
    HITInterface,
    HITItem,
    HITStatus,
)
from repro.crowd.mturk import MTurkSimulator, PlatformStats
from repro.crowd.oracle import AnswerOracle
from repro.crowd.pricing import CENTS, DEFAULT_PRICING, PricingPolicy
from repro.crowd.worker_pool import PopulationMix, WorkerPool
from repro.crowd.workers import (
    DiligentWorker,
    LazyWorker,
    NoisyWorker,
    SpammerWorker,
    WorkerModel,
)

__all__ = [
    "SimulationClock",
    "ScheduledEvent",
    "HIT",
    "HITContent",
    "HITItem",
    "HITInterface",
    "HITStatus",
    "FormField",
    "Assignment",
    "AssignmentStatus",
    "MTurkSimulator",
    "PlatformStats",
    "FaultProfile",
    "QualityConfig",
    "WorkerReputation",
    "GoldQuestion",
    "GoldStandardPool",
    "AnswerOracle",
    "PricingPolicy",
    "DEFAULT_PRICING",
    "CENTS",
    "WorkerPool",
    "PopulationMix",
    "WorkerModel",
    "DiligentWorker",
    "NoisyWorker",
    "LazyWorker",
    "SpammerWorker",
]
