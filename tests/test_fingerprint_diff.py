"""The moved-field report: ``tools/fingerprint_diff.py`` on small fixture pairs.

Each pair is two ``run_all.py``-shaped outputs that differ in one way the tool
must report: a field added, a field removed, a field changed, a list whose
order changed.  Identical outputs report nothing and exit 0.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    path = ROOT / "tools" / "fingerprint_diff.py"
    spec = importlib.util.spec_from_file_location("fingerprint_diff", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fingerprint_diff = _load_tool()

BASE = {
    "ran": ["bench_e13_engine_overhead", "bench_e9_sort"],
    "benchmarks": {
        "bench_e13_engine_overhead": {
            "status": "ok",
            "experiments": {
                "run_concurrent_overhead_experiment": {
                    "results": [{"queries": 16, "scheduler_passes": 7}]
                },
                "run_engine_overhead_experiment": {
                    "results": [{"rows": 100000, "executor_passes": 34}]
                },
            },
        },
        "bench_e9_sort": {
            "status": "ok",
            "experiments": {"run_sort_experiment": {"results": {"order": ["a", "b", "c"]}}},
        },
    },
}


def run(tmp_path, capsys, new):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(BASE, indent=2))
    new_path.write_text(json.dumps(new, indent=2))
    status = fingerprint_diff.main([str(old_path), str(new_path)])
    return status, capsys.readouterr().out.splitlines()


def changed(edit):
    new = copy.deepcopy(BASE)
    edit(new["benchmarks"])
    return new


def test_identical_outputs_report_nothing(tmp_path, capsys):
    assert run(tmp_path, capsys, copy.deepcopy(BASE)) == (0, [])


def test_a_changed_field(tmp_path, capsys):
    def edit(benchmarks):
        experiments = benchmarks["bench_e13_engine_overhead"]["experiments"]
        experiments["run_concurrent_overhead_experiment"]["results"][0]["scheduler_passes"] = 5

    assert run(tmp_path, capsys, changed(edit)) == (
        1,
        [
            "bench_e13_engine_overhead / run_concurrent_overhead_experiment / "
            "results[0].scheduler_passes: 7 → 5"
        ],
    )


def test_an_added_and_a_removed_field(tmp_path, capsys):
    def edit(benchmarks):
        experiments = benchmarks["bench_e13_engine_overhead"]["experiments"]
        del experiments["run_engine_overhead_experiment"]["results"][0]["executor_passes"]
        benchmarks["bench_e9_sort"]["overrides"] = {"n": 4}

    status, lines = run(tmp_path, capsys, changed(edit))
    assert status == 1
    assert lines == [
        "bench_e13_engine_overhead / run_engine_overhead_experiment / "
        "results[0].executor_passes: 34 → (absent)",
        "bench_e9_sort / - / overrides.n: (absent) → 4",
    ]


def test_a_list_whose_order_changed_prints_each_moved_position(tmp_path, capsys):
    def edit(benchmarks):
        benchmarks["bench_e9_sort"]["experiments"]["run_sort_experiment"]["results"]["order"] = [
            "b",
            "a",
            "c",
        ]

    status, lines = run(tmp_path, capsys, changed(edit))
    assert status == 1
    assert lines == [
        'bench_e9_sort / run_sort_experiment / results.order[0]: "a" → "b"',
        'bench_e9_sort / run_sort_experiment / results.order[1]: "b" → "a"',
    ]


def test_a_type_change_is_a_move_and_lines_group_by_module(tmp_path, capsys):
    def edit(benchmarks):
        benchmarks["bench_e9_sort"]["status"] = "error"
        experiments = benchmarks["bench_e13_engine_overhead"]["experiments"]
        experiments["run_engine_overhead_experiment"]["results"][0]["rows"] = 100000.0

    status, lines = run(tmp_path, capsys, changed(edit))
    assert status == 1
    assert [line.split(" / ")[0] for line in lines] == [
        "bench_e13_engine_overhead",
        "bench_e9_sort",
    ]
    assert lines[0].endswith("results[0].rows: 100000 → 100000.0")


@pytest.mark.parametrize("argv", [[], ["one.json"]])
def test_it_wants_two_files(argv, capsys):
    assert fingerprint_diff.main(argv) == 2
