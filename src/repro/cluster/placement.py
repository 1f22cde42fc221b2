"""Deterministic query → shard placement.

The coordinator must place queries onto shards so that the same workload on
the same cluster shape lands identically run to run — otherwise N-shard
fingerprints could never be stable.  Two policies are provided:

``round-robin``
    Place by admission order: the *i*-th submitted query goes to shard
    ``i % n``.  Perfectly balanced and trivially reproducible.

``hash``
    Place by a seeded SHA-256 of the query key (its coordinator-assigned
    id), so a query's shard is a pure function of ``(seed, key, n_shards)``
    and does not depend on what else was submitted.  Python's builtin
    ``hash`` is *not* used — it is salted per process, which would break
    cross-run stability.

``health``
    Round-robin over the shards the coordinator currently considers
    healthy.  The healthy set changes only at explicit, recorded points
    (a crash crossing the coordinator's threshold, or a manual mark), so
    routing is still a pure function of (admission index, healthy set) —
    the same fault script reproduces the same placement.
"""

from __future__ import annotations

import hashlib

from repro.errors import ClusterError

__all__ = [
    "Placement",
    "RoundRobinPlacement",
    "HashPlacement",
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


class HashPlacement(Placement):
    """Seeded-hash placement: the shard is a pure function of the key."""

    def __init__(self, n_shards: int, seed: int = 0):
        super().__init__(n_shards)
        self.seed = seed

    def shard_of(self, index: int, key: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.n_shards


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


def make_placement(kind: str, n_shards: int, seed: int = 0) -> Placement:
    """Build the placement policy named ``kind``."""
    if kind == "round-robin":
        return RoundRobinPlacement(n_shards)
    if kind == "hash":
        return HashPlacement(n_shards, seed)
    if kind == "health":
        return HealthAwarePlacement(n_shards)
    raise ClusterError(
        f"unknown placement policy {kind!r} (use 'round-robin', 'hash', or 'health')"
    )
