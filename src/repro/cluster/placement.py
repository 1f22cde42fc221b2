"""Deterministic query → shard placement.

The coordinator must place queries onto shards so that the same workload on
the same cluster shape lands identically run to run — otherwise N-shard
fingerprints could never be stable.  Two policies are provided:

``round-robin``
    Place by admission order: the *i*-th submitted query goes to shard
    ``i % n``.  Perfectly balanced and trivially reproducible.

``health``
    Round-robin over the shards the coordinator currently considers
    healthy.  The healthy set changes only at explicit, recorded points
    (a crash crossing the coordinator's threshold, or a manual mark), so
    routing is still a pure function of (admission index, healthy set) —
    the same fault script reproduces the same placement.
"""

from __future__ import annotations

from repro.errors import ClusterError

__all__ = [
    "Placement",
    "RoundRobinPlacement",
    "HealthAwarePlacement",
    "make_placement",
]


class Placement:
    """Maps a query (admission index + stable key) to a shard id."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ClusterError(f"a cluster needs at least 1 shard, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, index: int, key: str) -> int:
        raise NotImplementedError


class RoundRobinPlacement(Placement):
    """Admission-order round-robin: query *i* lands on shard ``i % n``."""

    def shard_of(self, index: int, key: str) -> int:
        return index % self.n_shards


class HealthAwarePlacement(Placement):
    """Round-robin restricted to the currently-healthy shards.

    The coordinator owns the health verdicts and feeds them in through
    :meth:`set_healthy`; placement itself stays a pure function of the
    admission index and the healthy set.  With every shard healthy this is
    exactly :class:`RoundRobinPlacement`, which is what keeps default runs
    byte-identical.  If everything is marked unhealthy the full shard set is
    used — a fully-degraded cluster still accepts work rather than failing
    placement.
    """

    def __init__(self, n_shards: int):
        super().__init__(n_shards)
        self._healthy: set[int] = set(range(n_shards))

    def set_healthy(self, shard_id: int, healthy: bool = True) -> None:
        """Record the coordinator's verdict for one shard."""
        if not 0 <= shard_id < self.n_shards:
            raise ClusterError(
                f"shard {shard_id} out of range for {self.n_shards}-shard placement"
            )
        if healthy:
            self._healthy.add(shard_id)
        else:
            self._healthy.discard(shard_id)

    @property
    def healthy_shards(self) -> tuple[int, ...]:
        """Sorted routing pool; every shard when none are marked healthy."""
        if not self._healthy:
            return tuple(range(self.n_shards))
        return tuple(sorted(self._healthy))

    def shard_of(self, index: int, key: str) -> int:
        pool = self.healthy_shards
        return pool[index % len(pool)]


def make_placement(kind: str, n_shards: int) -> Placement:
    """Build the placement policy named ``kind``."""
    if kind == "round-robin":
        return RoundRobinPlacement(n_shards)
    if kind == "health":
        return HealthAwarePlacement(n_shards)
    raise ClusterError(f"unknown placement policy {kind!r} (use 'round-robin' or 'health')")
