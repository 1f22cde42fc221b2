"""Run the e1–e19 experiments and print their results as JSON on stdout.

The ``bench_e*.py`` modules are pytest files, but each one keeps its workload
in plain ``run_*`` functions; this driver imports those functions directly
and prints what they return.  The experiments run on the simulated clock, so
the output is a fingerprint: the same seed gives the same HITs, dollars and
rows on every host.  Wall-clock performance is measured by the end-to-end
benchmark (``benchmarks/e2e``), not here.

Usage::

    python benchmarks/run_all.py            # all experiments
    python benchmarks/run_all.py e8 e11     # only the named experiments
    python benchmarks/run_all.py --quick    # CI smoke subset at reduced sizes

Progress goes to stderr.  The exit status is 1 when any experiment raised.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: The ``--quick`` smoke subset: one cheap end-to-end caching experiment, the
#: adaptive re-planning experiment, the engine-overhead pipelines, the
#: worker quality-control experiment, the control-plane scaling curve,
#: the sharded scale-out curve, the durability experiments, the
#: traffic-replay amortization check and the overload burst, so plan-layer,
#: data-plane, quality-control, control-plane, cluster-runtime, durability,
#: answer-tier and overload regressions surface in CI without paying for the
#: full sweep.
QUICK_SELECTORS = ("e2", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19")

#: Quick-mode size overrides for benchmarks whose full curve is minutes
#: long; keys are module stems, values are kwargs for every ``run_*``
#: function that accepts them.  E16 spawns worker processes per level, so
#: CI boxes (often 1-2 CPUs) run a scaled-down curve — the full 1/2/4/8
#: sweep at 1,024 queries stays the default for `run_all.py e16`.
QUICK_OVERRIDES = {
    "bench_e16_scale_out": {
        "shard_counts": (1, 2),
        "n_queries": 128,
        "tasks_per_query": 10,
    },
    # Halved e15 sizes; the full 64x40 workload stays the default for
    # `run_all.py e17`.
    "bench_e17_durability": {
        "n_queries": 32,
        "tasks_per_query": 20,
        "query_counts": (8, 32),
        "intervals": (None, 16),
        "batches": 4,
    },
    # The quick pytest gate's trace sizes; the 10k-query replay stays the
    # default for `run_all.py e18`.
    "bench_e18_traffic_replay": {
        "n_queries": 600,
        "n_companies": 30,
        "rounds": 4,
    },
    # The quick pytest gate's burst size; the full 32-query burst on
    # capacity 8 stays the default for `run_all.py e19`.
    "bench_e19_overload": {
        "n_queries": 16,
        "capacity": 4,
        "queue_limit": 8,
    },
}


def discover(selectors: list[str]) -> list[Path]:
    modules = sorted(BENCH_DIR.glob("bench_*.py"))
    if not selectors:
        return modules
    wanted = []
    for module in modules:
        tag = module.stem.split("_")[1]  # bench_e8_batching -> e8
        if tag in selectors or module.stem in selectors:
            wanted.append(module)
    return wanted


def run_module(path: Path, overrides: dict | None = None) -> dict:
    module = importlib.import_module(path.stem)
    runners = {
        name: fn
        for name, fn in vars(module).items()
        if name.startswith("run_") and callable(fn)
    }
    entry: dict = {"status": "ok", "experiments": {}}
    if overrides:
        entry["overrides"] = dict(overrides)
    for name, fn in sorted(runners.items()):
        kwargs = {}
        if overrides:
            accepted = inspect.signature(fn).parameters
            kwargs = {key: value for key, value in overrides.items() if key in accepted}
        try:
            result = fn(**kwargs)
        except Exception as error:  # keep the sweep going; record the failure
            entry["status"] = "error"
            entry["experiments"][name] = {"error": f"{type(error).__name__}: {error}"}
            continue
        entry["experiments"][name] = {"results": result}
    if not runners:
        entry["status"] = "skipped"
        entry["reason"] = "no run_* functions found"
    return entry


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    if quick:
        argv = [arg for arg in argv if arg != "--quick"] + list(QUICK_SELECTORS)
    modules = discover(argv)
    if not modules:
        print(f"no benchmarks match {argv!r}", file=sys.stderr)
        return 2
    summary: dict = {"ran": [path.stem for path in modules], "benchmarks": {}}
    failures = 0
    for path in modules:
        print(f"running {path.stem} ...", file=sys.stderr, flush=True)
        overrides = QUICK_OVERRIDES.get(path.stem) if quick else None
        entry = run_module(path, overrides)
        summary["benchmarks"][path.stem] = entry
        if entry["status"] == "error":
            failures += 1
    print(json.dumps(summary, indent=2, default=str))
    print(f"{len(modules)} benchmark module(s), {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
