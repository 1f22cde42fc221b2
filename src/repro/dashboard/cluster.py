"""Merged dashboard for a sharded cluster (Figure 2, fleet edition).

The per-engine :class:`~repro.dashboard.dashboard.QueryDashboard` renders one
marketplace.  A cluster runs N of them, so the coordinator collects every
shard's rendered panel plus its statistics report and this module stitches
them into one view: a cluster header with cross-shard totals (queries by
status, spend, HITs, batching, memory), then each shard's own dashboard
under a shard banner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle: coordinator imports us
    from repro.cluster.coordinator import ClusterStats

__all__ = ["render_cluster"]


def render_cluster(stats: "ClusterStats", panels: list[dict[str, Any]]) -> str:
    """One text dashboard for the whole cluster.

    ``stats`` is the coordinator's merged :class:`ClusterStats` — its
    ``totals`` hold every engine counter summed across shards, so a header
    line reads any of them by name; ``panels`` are the per-shard
    ``dashboard`` op replies (``{"shard", "text"}``).
    """
    totals = stats.totals
    status_line = (
        ", ".join(f"{count} {status}" for status, count in sorted(stats.statuses.items()))
        or "none"
    )
    lines = [
        f"=== Qurk cluster: {len(stats.per_shard)} shard(s), "
        f"{totals['queries']} query(ies) ===",
        f"queries: {status_line}",
        f"crowd spend: ${totals['total_cost']:.2f}  "
        f"HITs posted: {totals['hits_posted']} "
        f"(cross-query {totals['cross_query_hits']}, "
        f"expired {totals['hits_expired']})",
        f"tasks: {totals['tasks_submitted']} submitted, "
        f"{totals['tasks_completed']} completed, "
        f"{totals['cache_answers']} from cache, "
        f"{totals['model_answers']} from task models",
        f"scheduler: {totals['scheduler_passes']} passes, "
        f"{totals['clock_advances']} clock advances  "
        f"simulated time: {totals['simulated_time']:.1f}s",
        f"memory: {stats.peak_rss_kb_sum} KiB across workers "
        f"(max shard {stats.peak_rss_kb_max} KiB)",
    ]
    overload = (
        totals["queries_rejected"]
        + totals["queries_shed"]
        + totals["deadline_misses"]
        + totals["queries_degraded"]
        + totals["breaker_trips"]
    )
    if overload:
        lines.append(
            f"overload: rejected {totals['queries_rejected']}, "
            f"shed {totals['queries_shed']}, "
            f"deadline misses {totals['deadline_misses']}, "
            f"degraded {totals['queries_degraded']}, "
            f"breaker trips {totals['breaker_trips']}"
        )
    for record in stats.health:
        age = record.get("heartbeat_age")
        age_text = "never" if age is None else f"{age:.1f}s ago"
        lines.append(
            f"health shard {record['shard']}: "
            f"heartbeat {age_text}, "
            f"op latency {record.get('latency_ewma', 0.0) * 1000:.1f}ms, "
            f"{record.get('crashes', 0)} crash(es), "
            f"queue depth {record.get('queue_depth', 0)}"
        )
    for panel in sorted(panels, key=lambda p: p["shard"]):
        lines.append("")
        lines.append(f"--- shard {panel['shard']} ---")
        lines.append(panel["text"].rstrip("\n"))
    return "\n".join(lines)
