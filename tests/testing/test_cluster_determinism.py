"""Cluster determinism: 1 shard == in-process engine; N shards stable.

The determinism contract of the shard-per-process runtime:

* A 1-shard cluster produces a fingerprint *byte-identical* to an in-process
  engine built from the same recipe and fed the same queries — the worker's
  ``drain`` op reproduces exactly the chaos harness's driving sequence.
* An N-shard cluster is fingerprint-stable run to run under the same seed,
  because placement is deterministic and every shard is an independent
  same-seed marketplace.

Fingerprints are :func:`repro.testing.chaos.fingerprint_engine` structures
(statuses, result rows, HIT/assignment counters, spend), JSON-stable so they
compare equal across the process boundary.
"""

import pytest

from repro.cluster import EngineSpec, ShardCoordinator, ShardWorker
from repro.cluster.serialization import encode_query
from repro.core.exec.handle import QueryHandle
from repro.errors import ClusterError
from repro.experiments import build_products_engine
from repro.storage.durability import DurabilityConfig
from repro.storage.wal import WriteAheadLog
from repro.testing.chaos import fingerprint_engine

from support import bounded_cluster

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
N_QUERIES = 6
SPEC = EngineSpec(
    factory="repro.experiments.harness:build_products_engine",
    kwargs={"n_products": 10, "filter_batch": 1, "seed": 13},
)


def in_process_fingerprint(n_queries: int = N_QUERIES) -> dict:
    """The same workload driven exactly like a shard worker drives it."""
    engine = build_products_engine(n_products=10, filter_batch=1, seed=13).engine
    handles = [engine.query(FILTER_SQL) for _ in range(n_queries)]
    engine.scheduler.drain()
    engine.clock.run_until_idle()
    statuses = [handle.status.value for handle in handles]
    rows = [[row.to_dict() for row in handle.results()] for handle in handles]
    return fingerprint_engine(engine, statuses, rows)


def cluster_fingerprints(n_shards: int, n_queries: int = N_QUERIES) -> list[dict]:
    with ShardCoordinator(SPEC, n_shards) as cluster:
        cluster.submit_many([{"sql": FILTER_SQL} for _ in range(n_queries)])
        statuses = cluster.drain()
        assert all(status == "completed" for status in statuses.values())
        return cluster.fingerprint()


class TestOneShardEqualsInProcess:
    def test_fingerprints_identical(self):
        (cluster_fp,) = cluster_fingerprints(1)
        assert cluster_fp == in_process_fingerprint()

    def test_in_process_worker_equals_in_process_engine(self):
        """The same equality, without forking: ShardWorker.handle directly."""
        worker = ShardWorker(SPEC, shard_id=0)
        queries = [
            encode_query(FILTER_SQL, query_id=f"cq{i + 1}") for i in range(N_QUERIES)
        ]
        assert worker.handle({"op": "submit_many", "queries": queries})["ok"]
        drained = worker.handle({"op": "drain"})
        assert drained["ok"]
        reply = worker.handle({"op": "fingerprint"})
        assert reply["fingerprint"] == in_process_fingerprint()


class TestNShardStability:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_same_seed_runs_identical(self, n_shards):
        assert cluster_fingerprints(n_shards) == cluster_fingerprints(n_shards)

    def test_shards_split_the_work(self):
        fingerprints = cluster_fingerprints(2)
        per_shard = [len(fp["statuses"]) for fp in fingerprints]
        assert per_shard == [N_QUERIES // 2, N_QUERIES // 2]
        # Every query completed and cost money on its own shard.
        assert all(fp["total_cost"] > 0 for fp in fingerprints)

    def test_cluster_totals_match_in_process_totals(self):
        """Sharding must not change what the crowd does in aggregate."""
        reference = in_process_fingerprint()
        with ShardCoordinator(SPEC, 3) as cluster:
            cluster.submit_many([{"sql": FILTER_SQL} for _ in range(N_QUERIES)])
            cluster.drain()
            stats = cluster.stats()
        assert stats.totals["queries"] == N_QUERIES
        assert stats.totals["hits_created"] == reference["hits_created"]
        assert round(stats.totals["total_cost"], 9) == reference["total_cost"]


class TestPlacement:
    def test_round_robin_is_admission_order(self):
        with ShardCoordinator(SPEC, 3) as cluster:
            handles = cluster.submit_many([{"sql": FILTER_SQL} for _ in range(6)])
            assert [handle.shard for handle in handles] == [0, 1, 2, 0, 1, 2]

    def test_unknown_placement_is_refused(self):
        with pytest.raises(ClusterError, match="hash"):
            ShardCoordinator(SPEC, 2, placement="hash")

    def test_placement_continues_across_submissions(self):
        with ShardCoordinator(SPEC, 3) as cluster:
            shards = [cluster.submit(FILTER_SQL).shard]
            shards += [handle.shard for handle in cluster.submit_many([{"sql": FILTER_SQL}] * 3)]
            shards.append(cluster.submit(FILTER_SQL).shard)
            assert shards == [0, 1, 2, 0, 1]

    def test_health_placement_is_refused(self):
        with pytest.raises(ClusterError, match="only 'round-robin'"):
            ShardCoordinator(SPEC, 2, placement="health")

    def test_a_cluster_needs_a_shard(self):
        with pytest.raises(ClusterError, match="at least 1 shard"):
            ShardCoordinator(SPEC, 0)

    def test_reply_timings_are_class_defaults_an_instance_may_shorten(self):
        cluster = bounded_cluster(SPEC, call_timeout=5.0)
        assert cluster.call_timeout == 5.0
        assert ShardCoordinator.call_timeout == 300.0
        assert ShardCoordinator(SPEC).call_timeout == 300.0
        assert ShardCoordinator.poll_interval == 0.1


class TestWorkerQueries:
    def test_the_worker_maps_cluster_ids_to_engine_handles(self):
        worker = ShardWorker(SPEC, shard_id=0)
        queries = [encode_query(FILTER_SQL, query_id=f"cq{i}") for i in (1, 3)]
        assert worker.handle({"op": "submit_many", "queries": queries})["ok"]
        assert list(worker._queries) == ["cq1", "cq3"]
        assert all(isinstance(handle, QueryHandle) for handle in worker._queries.values())
        assert [handle.query_id for handle in worker._queries.values()] == ["q1", "q2"]

    def test_the_worker_refuses_a_withdraw_op(self):
        worker = ShardWorker(SPEC, shard_id=0)
        reply = worker.handle({"op": "withdraw_pending", "query_ids": ["cq1"]})
        assert not reply["ok"]
        assert "unknown cluster op 'withdraw_pending'" in reply["error"]


    def test_the_stats_reply_does_not_grow_with_finished_queries(self):
        """``stats`` counts queries by status; it keeps no report per query."""
        from repro.storage.codec import dumps
        from repro.workloads.companies import CompaniesWorkload

        spec = EngineSpec(
            "repro.experiments.harness:build_companies_engine",
            {"n_companies": 5, "seed": 11},
        )
        worker = ShardWorker(spec, shard_id=0)
        names = [record.name for record in CompaniesWorkload(5, seed=11).records]
        sql = "SELECT findCEO(companyName).CEO FROM companies WHERE companyName = '{}'"
        sizes = {}
        submitted = 0
        for total in (50, 500):
            queries = [
                encode_query(sql.format(names[i % len(names)]), query_id=f"cq{i + 1}")
                for i in range(submitted, total)
            ]
            assert worker.handle({"op": "submit_many", "queries": queries})["ok"]
            assert worker.handle({"op": "drain"})["ok"]
            submitted = total
            reply = worker.handle({"op": "stats"})
            assert reply["statuses"] == {"completed": total}
            assert "queries" not in reply
            sizes[total] = len(dumps(reply))
        assert abs(sizes[500] - sizes[50]) <= 200, sizes


class TestRefusedBatch:
    """A batch holding an entry its shard cannot plan is admitted nowhere."""

    BATCH = [{"sql": FILTER_SQL}, {"sql": "SELECT x FROM missing"}, {"sql": FILTER_SQL}]

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_refused_entry_admits_none_of_the_batch(self, n_shards):
        with ShardCoordinator(SPEC, n_shards) as cluster:
            with pytest.raises(ClusterError, match="batch entry 1 refused.*unknown table 'missing'"):
                cluster.submit_many(self.BATCH)
            handles = cluster.submit_many([{"sql": FILTER_SQL}] * 2)
            assert [handle.query_id for handle in handles] == ["cq1", "cq2"]
            cluster.drain()
            fingerprints = cluster.fingerprint()
        assert fingerprints == cluster_fingerprints(n_shards, 2)

    def test_a_durable_shard_journals_aliases_for_accepted_statements_only(self, tmp_path):
        durability = DurabilityConfig(directory=str(tmp_path), fsync="always")
        worker = ShardWorker(SPEC, shard_id=0, durability=durability)
        refused = worker.handle(
            {
                "op": "submit_many",
                "queries": [
                    encode_query(entry["sql"], query_id=f"cq{number}")
                    for number, entry in enumerate(self.BATCH, 1)
                ],
            }
        )
        assert refused["refused"]["entry"] == 1
        accepted = worker.handle(
            {"op": "submit_many", "queries": [encode_query(FILTER_SQL, query_id="cq4")]}
        )
        assert accepted["query_ids"] == ["cq4"]
        info, _ = WriteAheadLog.scan(durability.wal_path())
        aliases = [
            (record.data["cluster_id"], record.data["query_id"])
            for record in info.records
            if record.type == "cluster_alias"
        ]
        assert aliases == [("cq4", "q1")]
        worker.engine.journal.close()

        recovered = ShardWorker(SPEC, shard_id=0, durability=durability)
        assert {cid: handle.query_id for cid, handle in recovered._queries.items()} == {
            "cq4": "q1"
        }
        recovered.engine.journal.close()
