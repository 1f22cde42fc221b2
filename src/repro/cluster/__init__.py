"""Horizontal scale-out: shard-per-process Qurk engines behind a coordinator.

One :class:`~repro.cluster.coordinator.ShardCoordinator` partitions queries
across N worker processes, each running a complete
:class:`~repro.engine.QurkEngine` on its own simulated marketplace.  The
protocol is message-framed JSON (:mod:`repro.cluster.serialization`), spoken
today over multiprocessing pipes and over TCP by the asyncio front end
(:mod:`repro.cluster.server`).
"""

from repro.cluster.coordinator import ClusterQueryHandle, ClusterStats, ShardCoordinator
from repro.cluster.worker import EngineSpec, ShardWorker

__all__ = [
    "ShardCoordinator",
    "ClusterQueryHandle",
    "ClusterStats",
    "EngineSpec",
    "ShardWorker",
]
