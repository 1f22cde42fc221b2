"""Order statistics refuse what the sample cannot support."""

from __future__ import annotations

import pytest

import measure


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))
    assert measure.percentile(samples, 95) == 190  # 10 samples beyond: allowed
    with pytest.raises(ValueError, match="need at least 10"):
        measure.percentile(samples[:199], 95)
    with pytest.raises(ValueError):
        measure.percentile(samples, 99)
    assert measure.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(list(range(19)), 50)


def test_the_tail_is_the_highest_percentile_the_sample_supports():
    assert measure.tail(list(range(200))) == (95.0, 189)
    assert measure.tail(list(range(4000))) == (99.75, 3989)
    percentile, value = measure.tail(list(range(140)))  # 92.857...: not a round number
    assert value == 129 and 92.8 < percentile < 92.9
    assert measure.tail([1.0] * 5) == (0.0, 0.0)  # quick runs support none


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        measure.percentile([1, 2, 3], 100)


def test_each_block_is_read_from_its_least_disturbed_repetition():
    block = measure.Block
    first = [block(10, 1.0, 0.9, [100.0] * 10), block(10, 3.0, 2.0, [300.0] * 10), block(0, 0.1, 0.1, [])]
    second = [block(10, 2.0, 0.8, [200.0] * 10), block(8, 2.0, 1.8, [250.0] * 8), block(0, 0.1, 0.1, [])]
    # Wall, position 0: 0.1 s/query beats 0.2.  Position 1: 8 verified in 2 s
    # (0.25 s/query) beats 10 in 3 s (0.3).  Position 2 verified nothing
    # anywhere: its time counts, its queries do not.
    assert measure.least_disturbed([first, second], lambda b: b.wall_s) == [first[0], second[1], first[2]]
    # CPU is chosen on its own: 0.08 s/query beats 0.09, then 0.2 beats 0.225.
    assert measure.least_disturbed([first, second], lambda b: b.cpu_s) == [second[0], first[1], first[2]]
    timed = measure.window_metrics([first, second])
    assert timed["queries_per_s"] == 18 / 3.1
    assert timed["query_p50_ms"] == 100.0  # of the 18 latencies in the wall-chosen blocks
    assert timed["cpu_ms_per_query"] == (0.8 + 2.0 + 0.1) * 1e3 / 20
    alone = measure.window_metrics([first])
    assert alone["queries_per_s"] == 20 / 4.1 and alone["cpu_ms_per_query"] == 3.0 * 1e3 / 20  # one repetition: its whole window
    assert measure.window_metrics([[first[2]]])["queries_per_s"] == 0.0


def test_cpu_and_memory_readers_see_this_process():
    import os

    assert measure.process_cpu_seconds(os.getpid()) > 0
    assert measure.process_peak_rss_kb(os.getpid()) > 1000
    assert measure.own_peak_rss_kb() > 1000
