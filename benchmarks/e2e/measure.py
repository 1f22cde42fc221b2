"""Measurement helpers: order statistics, CPU time, peak memory, timed blocks.

CPU and memory of *other* processes (the cluster's server and shard
workers) are read from ``/proc``; the benchmark is Linux-only for that
workload and says so rather than reporting zeros elsewhere.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from pathlib import Path
from typing import NamedTuple, Sequence

#: A percentile is reported only with at least this many samples beyond it,
#: so one slow query cannot *be* the tail (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank) of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the requested rank — the caller asked for a tail the
    sample cannot support.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be strictly between 0 and 100, got {p}")
    count = len(samples)
    beyond = count * (100.0 - p) / 100.0
    if beyond < MIN_SAMPLES_BEYOND - 1e-9:
        raise ValueError(
            f"p{p:g} of {count} samples leaves {beyond:.1f} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(samples)
    rank = max(int(-(-count * p // 100)) - 1, 0)  # ceil(count * p / 100) - 1
    return ordered[min(rank, count - 1)]


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """The highest percentile the sample supports, and its value.

    That is the one with exactly :data:`MIN_SAMPLES_BEYOND` samples beyond
    it: p95 of 200 samples, p99.75 of 4,000.  ``(0.0, 0.0)`` where the sample
    supports none (quick runs).
    """
    count = len(samples)
    if count <= MIN_SAMPLES_BEYOND:
        return 0.0, 0.0
    p = 100.0 * (count - MIN_SAMPLES_BEYOND) / count
    return p, percentile(samples, p)


def process_cpu_seconds(pid: int) -> float:
    """user + system CPU seconds ``pid`` has used so far.

    Another process is read from ``/proc/<pid>/stat`` (clock-tick
    resolution); this one from ``time.process_time`` (nanoseconds).
    """
    if pid == os.getpid():
        return time.process_time()
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces; fields are counted after its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLOCK_TICKS


def process_peak_rss_kb(pid: int) -> int:
    """High-water resident set of ``pid`` in KiB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def process_rss_kb(pid: int) -> int:
    """Resident set of ``pid`` right now, in KiB."""
    pages = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def own_peak_rss_kb() -> int:
    """This process's peak resident set in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Block(NamedTuple):
    """One slice of a timed window: a fixed run of the trace's ops.

    The same seed gives the same trace, so block ``k`` of one repetition is
    the same work as block ``k`` of another.
    """

    verified: int  # queries of the block that passed the output check
    wall_s: float
    cpu_s: float  # user + system CPU of the program's processes
    latencies_ms: list[float]  # of the verified queries


def least_disturbed(repetitions: Sequence[Sequence[Block]], cost) -> list[Block]:
    """Per block position, the repetition whose ``cost(block)`` per verified query is least.

    The shared host this runs on slows a vCPU down by up to 1.45x for a
    second or two at a time, and by less for minutes at a time, whatever the
    guest is doing; CPU time stretches with wall time.  A single window
    carries whichever mix it got, which is nearly all of the run-to-run
    spread (counts and memory repeat exactly).  The host only ever *adds*
    time, so of several repetitions of the same block the cheapest is the one
    least was added to; the blocks so chosen, laid end to end, are the window
    as it runs undisturbed.

    A block in which no query was verified costs infinitely much per query:
    it is chosen only where every repetition failed, and then counts its
    time and no queries.
    """

    def per_query(block: Block) -> float:
        return cost(block) / block.verified if block.verified else float("inf")

    return [min(instances, key=per_query) for instances in zip(*repetitions)]


def window_metrics(repetitions: Sequence[Sequence[Block]]) -> dict[str, float]:
    """The three timed end-to-end metrics of same-seed repetitions of one window.

    Throughput and latency are read from the least wall time at each block
    position, CPU per query from the least CPU time (when the program sleeps
    most of a block away, as the cluster does, the two are not the same
    instance).  One repetition is simply its whole window; a window in which
    every query failed reports zeros.
    """
    by_wall = least_disturbed(repetitions, lambda block: block.wall_s)
    by_cpu = least_disturbed(repetitions, lambda block: block.cpu_s)
    if not any(block.verified for block in by_wall):
        return {"queries_per_s": 0.0, "query_p50_ms": 0.0, "cpu_ms_per_query": 0.0}
    return {
        "queries_per_s": sum(b.verified for b in by_wall) / sum(b.wall_s for b in by_wall),
        "query_p50_ms": statistics.median(ms for b in by_wall for ms in b.latencies_ms),
        "cpu_ms_per_query": sum(b.cpu_s for b in by_cpu) * 1e3 / sum(b.verified for b in by_cpu),
    }


def load_average() -> float:
    """1-minute load average (0.0 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0
