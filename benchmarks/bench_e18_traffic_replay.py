"""E18 — traffic amortization: replaying a skewed query trace against the cache.

The paper's Task Cache reuses an answer "even possibly in different queries"
(Section 3).  This experiment measures what that buys under realistic
traffic: a zipfian-overlap trace of point queries (many requesters keep
asking about the same popular companies) replayed cold (cache off) and warm
(cache on), recording the dollars and HITs the cache avoids.

Two scales:

1. **Single engine** — a 10k-query trace over the companies workload,
   zipfian s=1.1 across 50 distinct queries.  Warm vs cold total crowd
   spend and HITs posted; the savings fraction is the headline number.

2. **Cluster** — the same trace split round-robin across N shards.  Without
   sharing, each shard re-buys answers its neighbours already have; with the
   coordinator's answer directory (``share_answers=True``) a task answered
   on shard 0 is a cache hit on shard 1.  The run reports cross-shard hits
   and the spend delta.

The quick pytest gate requires the warm replay to save at least 50% of the
cold replay's HIT spend.
"""

from __future__ import annotations

import bisect
import random

from repro.experiments import build_companies_engine, print_table

SEED = 1801
N_QUERIES = 10_000
N_COMPANIES = 50
ZIPF_S = 1.1

#: Submission happens in waves with a drain between them — matching how the
#: coordinator syncs its answer directory at drain boundaries.
ROUNDS = 8

QUERY_TEMPLATE = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)


def _zipf_trace(n_queries: int, n_companies: int, s: float, seed: int) -> list[int]:
    """Company indices drawn from a zipf(s) popularity distribution.

    Popularity ranks are shuffled onto company indices so 'popular' is not
    correlated with generation order, and sampling is inverse-CDF on a
    seeded RNG — the trace is a pure function of its arguments.
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank**s) for rank in range(1, n_companies + 1)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    order = list(range(n_companies))
    rng.shuffle(order)
    return [
        order[min(bisect.bisect_left(cumulative, rng.random()), n_companies - 1)]
        for _ in range(n_queries)
    ]


def _trace_sql(trace: list[int], records) -> list[str]:
    return [QUERY_TEMPLATE.format(company=records[index].name) for index in trace]


def _replay_single(
    queries: list[str],
    *,
    n_companies: int,
    enable_cache: bool,
    rounds: int,
) -> dict:
    run = build_companies_engine(
        n_companies=n_companies, enable_cache=enable_cache, seed=SEED
    )
    engine = run.engine
    per_round = max(1, len(queries) // rounds)
    submitted = 0
    while submitted < len(queries):
        chunk = queries[submitted : submitted + per_round]
        handles = [engine.query(sql) for sql in chunk]
        submitted += len(chunk)
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        if not all(handle.is_complete for handle in handles):
            raise AssertionError("not every query completed")
    manager = engine.task_manager.stats
    return {
        "total_cost": engine.total_crowd_cost,
        "hits_posted": manager.hits_posted,
        "cache_hits": manager.cache_answers,
        "dollars_saved": engine.task_cache.stats.dollars_saved,
    }


def run_traffic_replay(
    n_queries: int = N_QUERIES,
    n_companies: int = N_COMPANIES,
    zipf_s: float = ZIPF_S,
    rounds: int = ROUNDS,
) -> list[dict]:
    """Cold (cache off) vs warm (cache on) replay of the same trace."""
    trace = _zipf_trace(n_queries, n_companies, zipf_s, SEED)
    workload_probe = build_companies_engine(n_companies=n_companies, seed=SEED)
    queries = _trace_sql(trace, workload_probe.workload.records)
    distinct = len(set(trace))
    rows = []
    cold = warm = None
    for mode, enable_cache in (("cold (cache off)", False), ("warm (cache on)", True)):
        result = _replay_single(
            queries, n_companies=n_companies, enable_cache=enable_cache, rounds=rounds
        )
        if enable_cache:
            warm = result
        else:
            cold = result
        rows.append(
            {
                "mode": mode,
                "queries": n_queries,
                "distinct_queries": distinct,
                "hits_posted": result["hits_posted"],
                "total_cost": round(result["total_cost"], 2),
                "cache_hits": result["cache_hits"],
                "dollars_saved": round(result["dollars_saved"], 2),
            }
        )
    saved_pct = (1 - warm["total_cost"] / cold["total_cost"]) * 100 if cold["total_cost"] else 0.0
    rows.append(
        {
            "mode": "saved warm vs cold",
            "queries": n_queries,
            "distinct_queries": distinct,
            "hits_posted": cold["hits_posted"] - warm["hits_posted"],
            "total_cost": round(cold["total_cost"] - warm["total_cost"], 2),
            "cache_hits": warm["cache_hits"],
            "dollars_saved": round(saved_pct, 1),
        }
    )
    return rows


def _replay_cluster(
    queries: list[str],
    *,
    n_companies: int,
    n_shards: int,
    rounds: int,
    share_answers: bool,
) -> dict:
    from repro.cluster import EngineSpec, ShardCoordinator

    spec = EngineSpec(
        factory="repro.experiments.harness:build_companies_engine",
        kwargs={"n_companies": n_companies, "seed": SEED},
    )
    per_round = max(1, len(queries) // rounds)
    with ShardCoordinator(spec, n_shards=n_shards, share_answers=share_answers) as cluster:
        submitted = 0
        while submitted < len(queries):
            chunk = queries[submitted : submitted + per_round]
            cluster.submit_many([{"sql": sql} for sql in chunk])
            submitted += len(chunk)
            cluster.drain()
        stats = cluster.stats()
    return {
        "total_cost": stats.totals["total_cost"],
        "hits_posted": stats.totals["hits_posted"],
        "cache_hits": stats.totals["cache_answers"],
        "cross_shard_hits": stats.totals["cross_shard_hits"],
        "entries_imported": stats.totals["cache_entries_imported"],
        "directory_entries": stats.answer_directory_entries,
    }


def run_cross_shard_sharing(
    n_queries: int = 2_000,
    n_companies: int = N_COMPANIES,
    zipf_s: float = ZIPF_S,
    n_shards: int = 2,
    rounds: int = 4,
) -> list[dict]:
    """The same sharded trace with and without the coordinator directory."""
    trace = _zipf_trace(n_queries, n_companies, zipf_s, SEED + 1)
    workload_probe = build_companies_engine(n_companies=n_companies, seed=SEED)
    queries = _trace_sql(trace, workload_probe.workload.records)
    rows = []
    for label, share in (("isolated shards", False), ("shared directory", True)):
        result = _replay_cluster(
            queries,
            n_companies=n_companies,
            n_shards=n_shards,
            rounds=rounds,
            share_answers=share,
        )
        rows.append(
            {
                "mode": label,
                "shards": n_shards,
                "queries": n_queries,
                "hits_posted": result["hits_posted"],
                "total_cost": round(result["total_cost"], 2),
                "cache_hits": result["cache_hits"],
                "cross_shard_hits": result["cross_shard_hits"],
                "entries_imported": result["entries_imported"],
                "directory_entries": result["directory_entries"],
            }
        )
    return rows


# -- pytest entry point (quick sizes, with the CI regression gates) ----------

#: Acceptance bar: at zipfian s=1.1 the warm run must avoid at least half of
#: the cold run's HIT spend.
MIN_SAVED_FRACTION = 0.5


def test_e18_traffic_replay_quick():
    results = {
        "replay": run_traffic_replay(n_queries=600, n_companies=30, rounds=4),
        "sharing": run_cross_shard_sharing(n_queries=240, n_companies=16, n_shards=2, rounds=4),
    }
    print_table(
        "E18: zipfian traffic replay, warm vs cold (quick: 600 queries, 30 companies)",
        [
            "mode",
            "queries",
            "distinct_queries",
            "hits_posted",
            "total_cost",
            "cache_hits",
            "dollars_saved",
        ],
        results["replay"],
    )
    print_table(
        "E18: cross-shard answer sharing (2 shards)",
        [
            "mode",
            "hits_posted",
            "total_cost",
            "cache_hits",
            "cross_shard_hits",
            "entries_imported",
            "directory_entries",
        ],
        results["sharing"],
    )

    cold, warm, saved = results["replay"]
    assert cold["hits_posted"] > warm["hits_posted"]
    assert warm["cache_hits"] > 0
    saved_fraction = 1 - warm["total_cost"] / cold["total_cost"]
    assert saved_fraction >= MIN_SAVED_FRACTION, (
        f"warm replay saved only {saved_fraction:.0%} of cold spend "
        f"(bar: {MIN_SAVED_FRACTION:.0%})"
    )
    # The warm run credits exactly the spend delta as cache savings.
    assert warm["dollars_saved"] > 0

    isolated, shared = results["sharing"]
    assert shared["cross_shard_hits"] > 0, "no hit was served from an imported entry"
    assert shared["entries_imported"] > 0
    assert shared["total_cost"] <= isolated["total_cost"]
