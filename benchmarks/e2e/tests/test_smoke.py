"""End-to-end smoke at ``--quick`` size, and that nothing is left behind."""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import measure
import metrics
from conftest import E2E, REPO

RUN = [sys.executable, str(E2E / "run.py")]


def test_quick_suite_runs_all_four_workloads(leaves_nothing_behind):
    done = subprocess.run(RUN + ["--quick"], capture_output=True, text=True, cwd=REPO, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in metrics.WORKLOADS:
        assert f"== {workload}:" in done.stdout
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert metric.name in done.stdout, f"{metric.name} not printed"
    assert "0 failed, output check ok" in done.stdout
    assert "verdict: ok" in done.stdout
    assert not (E2E / "HISTORY.jsonl").read_text().count('"size": "quick"')


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_mode_prints_the_contract_json_over_real_tcp(trace, leaves_nothing_behind):
    done = subprocess.run(
        RUN + ["--workload", "cluster_tcp_mixed", "--seed", "2", "--seconds", "10",
               "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=REPO, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report.pop("size") == "quick"  # quick output is tagged; full-size output is not
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(report["metrics"]) == [m.name for m in table]
    for metric in table:
        assert report["metrics"][metric.name]["unit"] == metric.unit
    if trace:
        assert report["metrics"]["cluster.serialization.frames_per_query"]["value"] > 0
        assert report["metrics"]["cluster.messages.round_trips_per_query"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in report["metrics"].values())


def test_without_the_program_it_refuses_and_prints_no_result(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist; it must fail, not invent numbers.
    import shutil

    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lookup_warm", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _rep_args(workload: str, **overrides) -> argparse.Namespace:
    defaults = dict(workload=workload, seed=1, seconds=4.0, size="quick", trace=0, spawned_at=None)
    return argparse.Namespace(**{**defaults, **overrides})


@pytest.mark.parametrize("workload", ["lookup_warm", "cluster_tcp_mixed"])
def test_a_failing_query_is_counted_and_cleaned_up_after(workload, monkeypatch, leaves_nothing_behind):
    import datagen
    import rep

    generator = "lookup_trace" if workload == "lookup_warm" else "mixed_trace"
    original = getattr(datagen, generator)

    def poisoned(*args, **kwargs):
        warm, timed = original(*args, **kwargs)
        timed[3] = datagen.Op("lookup", "SELECT nothing FROM nowhere", (0,))
        return warm, timed

    monkeypatch.setattr(datagen, generator, poisoned)
    result = rep.run(_rep_args(workload))
    assert result["failed"] == 1 and result["correct"] is False
    assert result["attempted"] == rep.timed_ops(rep.SIZES[workload]["quick"], 4.0)  # the rest still ran
    assert sum(block.verified for block in result["blocks"]) == result["attempted"] - 1
    assert measure.window_metrics([result["blocks"]])["queries_per_s"] > 0


def test_ctrl_c_leaves_no_server_worker_or_wal_directory(leaves_nothing_behind):
    # Full size, so the interrupt lands while the server is up and loading.
    child = subprocess.Popen(
        RUN + ["--workload", "cluster_tcp_mixed", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )  # fmt: skip
    deadline = time.time() + 30
    while time.time() < deadline:  # wait until a server process exists
        if any("serve.py" in line for line in __import__("conftest").benchmark_processes()):
            break
        time.sleep(0.1)
    else:
        child.kill()
        pytest.fail("the cluster server never started")
    os.killpg(child.pid, signal.SIGINT)  # what a terminal's Ctrl-C does
    stdout, _ = child.communicate(timeout=60)
    assert child.returncode == 130
    assert stdout.strip() == b""  # no result line from an interrupted run
    time.sleep(0.5)
