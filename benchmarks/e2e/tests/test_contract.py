"""``BENCHMARK.json`` and the harness say the same thing."""

from __future__ import annotations

import json
import re

import metrics
import run
from conftest import REPO

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS  # the suite measures what the driver measures
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 30 < 3420, "the driver's runs would not fit its time cap at ~30 s each"


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)


def test_the_file_matches_the_harness_vocabulary():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == metrics.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m[:3]) for m in metrics.PER_LAYER
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
