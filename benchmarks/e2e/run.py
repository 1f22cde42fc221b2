"""The benchmark of record: four workloads, five end-to-end metrics, per-layer attribution.

Three ways in, one instrument:

``python benchmarks/e2e/run.py [--seed N] [--record]``
    The suite.  Per workload: three untraced repetitions of the same seed,
    read together (below), and one traced repetition for the per-layer
    metrics.  Checks every output, and that same-seed repetitions of the
    embedded workloads agree byte for byte on HIT counts, crowd dollars and
    row digests.

``python benchmarks/e2e/run.py --aa``
    The suite's untraced part twice, interleaved repetition by repetition;
    prints each end-to-end metric's relative gap beside its bound and exits
    non-zero on a breach.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run, for the benchmark driver: prints one JSON object as its last
    line with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
    end-to-end metrics untraced, the per-layer metrics traced).

Every repetition is a fresh ``rep.py`` process under ``PYTHONHASHSEED=0``
whose window is cut into blocks of fixed ops.  The three repetitions of a
run do identical work, so the timed metrics are read from the cheapest
instance of each block (``measure.least_disturbed``): what the shared host
added to one repetition it rarely added to the same block of all three.
``setup_s`` and ``peak_rss_mb`` are the median of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
HISTORY = HERE / "HISTORY.jsonl"

import measure  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    MAX_TRACE_OVERHEAD,
    MIN_COVERAGE_CLUSTER,
    MIN_COVERAGE_EMBEDDED,
    PER_LAYER,
    WORKLOADS,
)

#: Untraced repetitions per run; ``--seconds`` is shared out among their windows.
REPETITIONS = 3
DEFAULT_SECONDS = 12.0
EMBEDDED = ("lookup_warm", "analytic_local", "crowd_durable")
#: Three repetitions that each hit this still end inside the driver's 180 s.
REP_TIMEOUT_S = 55


class RepetitionFailed(RuntimeError):
    """A ``rep.py`` child exited non-zero or printed no result."""


def run_rep(workload: str, seed: int, window_seconds: float, size: str, trace: int = 0) -> dict:
    """One ``rep.py`` child; its last stdout line, parsed."""
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(window_seconds),
        "--size", size,
        "--trace", str(trace),
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = child.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        # Ctrl-C or a timeout: the child owns a server and WAL directories
        # and cleans them up on SIGINT; give it the chance, then insist.
        child.send_signal(signal.SIGINT)
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RepetitionFailed(f"{workload} seed {seed}: rep.py exited with {child.returncode}")
    rep = json.loads(lines[-1])
    rep["blocks"] = [measure.Block(*block) for block in rep["blocks"]]
    return rep


def end_to_end_of(reps: list[dict]) -> dict[str, float]:
    """The five end-to-end metrics of one run's same-seed repetitions."""
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        **measure.window_metrics([rep["blocks"] for rep in reps]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def determinism_audit(workload: str, reps: list[dict]) -> list[str]:
    """Same seed, embedded engine: HIT counts, dollars and rows must be identical."""
    if workload not in EMBEDDED:
        return []
    audits = {json.dumps(rep["audit"], sort_keys=True) for rep in reps}
    if len(audits) > 1:
        return [f"{workload}: same-seed repetitions disagree: {sorted(audits)}"]
    return []


# ---------------------------------------------------------------------------
# Driver mode: one run
# ---------------------------------------------------------------------------


def traced_rep(workload: str, seed: int, window_seconds: float, size: str, untraced: list[dict]) -> dict:
    """The traced repetition; ``trace.overhead_ratio`` is its window over the untraced median."""
    traced = run_rep(workload, seed, window_seconds, size, trace=1)
    traced["per_layer"]["trace.overhead_ratio"] = traced["window_s"] / statistics.median(
        rep["window_s"] for rep in untraced
    )
    return traced


def trace_verdict(workload: str, layer: dict) -> list[str]:
    """What the traced repetition got wrong about itself, if anything."""
    problems = []
    floor = MIN_COVERAGE_EMBEDDED if workload in EMBEDDED else MIN_COVERAGE_CLUSTER
    if layer["trace.overhead_ratio"] > MAX_TRACE_OVERHEAD:
        problems.append(f"trace.overhead_ratio {layer['trace.overhead_ratio']:.2f} > {MAX_TRACE_OVERHEAD}")
    if layer["trace.coverage"] < floor:
        problems.append(f"trace.coverage {layer['trace.coverage']:.2f} < {floor}")
    return problems


def driver_run(args) -> int:
    """One run as the benchmark driver calls it; the contract's JSON last."""
    window_seconds = args.seconds / REPETITIONS
    if args.trace:
        untraced = [run_rep(args.workload, args.seed, window_seconds, args.size)]
        traced = traced_rep(args.workload, args.seed, window_seconds, args.size, untraced)
        reps, values, table = untraced + [traced], traced["per_layer"], PER_LAYER
        if args.size == "full":
            for problem in trace_verdict(args.workload, values):
                print(f"warning: {problem}", file=sys.stderr)
    else:
        repetitions = REPETITIONS if args.size == "full" else 1
        reps = [run_rep(args.workload, args.seed, window_seconds, args.size) for _ in range(repetitions)]
        values, table = end_to_end_of(reps), END_TO_END
    disagreements = determinism_audit(args.workload, reps)
    for problem in disagreements:
        print(f"error: {problem}", file=sys.stderr)
    correct = all(rep["correct"] for rep in reps) and not disagreements
    report = {
        "correct": correct,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }
    if args.size != "full":
        report["size"] = args.size
    print(json.dumps(report))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------


def summarize(reps: list[dict]) -> dict[str, dict[str, float]]:
    """Each end-to-end metric of the run, with the single repetitions' min and max beside it."""
    value = end_to_end_of(reps)
    singles = [end_to_end_of([rep]) for rep in reps]
    return {
        metric.name: {
            "value": value[metric.name],
            "min": min(single[metric.name] for single in singles),
            "max": max(single[metric.name] for single in singles),
        }
        for metric in END_TO_END
    }


def print_workload(workload: str, reps: list[dict], summary: dict, traced: dict) -> None:
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    verdict = "ok" if all(rep["correct"] for rep in reps) else "FAILED"
    print(f"\n== {workload}: {WORKLOADS[workload]}")
    print(
        f"   {len(reps)} untraced repetitions, {attempted} queries attempted, {failed} failed, "
        f"output check {verdict}; window {statistics.median(r['window_s'] for r in reps):.2f} s "
        f"in {len(reps[0]['blocks'])} blocks"
    )
    for metric in END_TO_END:
        s = summary[metric.name]
        samples = f"  ({reps[0]['attempted']} samples)" if metric.name == "query_p50_ms" else ""
        print(
            f"   {metric.name:<18} {s['value']:>12.4f} {metric.unit:<4} "
            f"[single repetitions {s['min']:.4f} .. {s['max']:.4f}]  {metric.better} is better, "
            f"bound {metric.bound:.0%}{samples}"
        )
    audit = reps[0]["audit"]
    print(
        f"   audit: {audit['hits_created']} HITs, ${float(audit['crowd_usd']):.2f}, "
        f"rows sha256 {audit['row_digest'][:16]}"
        + (
            f", crowd answers agree with ground truth {reps[0]['crowd_answer_agreement']:.1%}"
            if "crowd_answer_agreement" in reps[0]
            else ""
        )
    )
    print(f"   per layer (traced repetition, {traced['attempted']} queries, {traced['failed']} failed):")
    for metric in PER_LAYER:
        print(f"     {metric.name:<42} {traced['per_layer'][metric.name]:>14.4f} {metric.unit}")


def environment() -> dict:
    """Where a result was measured; enough to tell two history lines apart."""
    import importlib.metadata

    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without git metadata
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "orjson": version("orjson"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def suite(args) -> int:
    problems: list[str] = []
    record = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        **environment(),
        "workloads": {},
    }
    window_seconds = args.seconds / REPETITIONS
    print(f"e2e benchmark: seed {args.seed}, size {args.size}, {REPETITIONS} x {window_seconds:g} s windows, "
          f"load average {measure.load_average():.2f} on {os.cpu_count()} cores")
    repetitions = REPETITIONS if args.size == "full" else 1
    for workload in WORKLOADS:
        reps = [run_rep(workload, args.seed, window_seconds, args.size) for _ in range(repetitions)]
        summary = summarize(reps)
        traced = traced_rep(workload, args.seed, window_seconds, args.size, reps)
        print_workload(workload, reps, summary, traced)
        problems += determinism_audit(workload, reps + [traced])
        if args.size == "full":  # quick windows are too short for their timings to mean anything
            problems += [f"{workload}: {p}" for p in trace_verdict(workload, traced["per_layer"])]
        for rep in reps + [traced]:
            if not rep["correct"]:
                problems.append(f"{workload}: output check failed ({rep['failed']} of {rep['attempted']})")
        record["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": sum(rep["attempted"] for rep in reps),
            "failed": sum(rep["failed"] for rep in reps),
            "audit": reps[0]["audit"],
            "per_layer": traced["per_layer"],
        }
    print()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"verdict: {'FAILED' if problems else 'ok'} ({len(problems)} problem(s))")
    if args.record:
        if args.size != "full":
            print("--record ignored: only full-size results are recorded")
        else:
            with open(HISTORY, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"recorded to {HISTORY.relative_to(REPO)}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# A/A mode
# ---------------------------------------------------------------------------


def aa(args) -> int:
    """Two runs of the same code, their repetitions interleaved, must agree within bounds."""
    load = measure.load_average()
    noisy = load > (os.cpu_count() or 1) / 2
    report = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
        "load_average_at_start": load,
        "noisy_host": noisy,
        **environment(),
        "workloads": {},
    }
    print(f"A/A: two interleaved sets of {REPETITIONS} repetitions, seed {args.seed}; "
          f"load average {load:.2f}{' (noisy_host)' if noisy else ''}")
    window_seconds = args.seconds / REPETITIONS
    breaches = 0
    for workload in WORKLOADS:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for _ in range(REPETITIONS):
            for one in sets:  # A, B, A, B, ...: drift lands on both sets alike
                one.append(run_rep(workload, args.seed, window_seconds, "full"))
        a, b = (end_to_end_of(one) for one in sets)
        failed = sum(rep["failed"] for one in sets for rep in one)
        audit = determinism_audit(workload, sets[0] + sets[1])
        print(f"\n== {workload}: {failed} failed ops"
              + (f"; {audit[0]}" if audit else "; same-seed audit identical" if workload in EMBEDDED else ""))
        rows = {}
        for metric in END_TO_END:
            first, second = a[metric.name], b[metric.name]
            gap = abs(second - first) / first
            breach = gap > metric.bound
            breaches += breach
            rows[metric.name] = {"a": first, "b": second, "gap": gap, "bound": metric.bound}
            print(f"   {metric.name:<18} A {first:>12.4f}  B {second:>12.4f}  gap {gap:>6.2%}  "
                  f"bound {metric.bound:.0%}  {'BREACH' if breach else 'ok'}")
        breaches += bool(audit) + bool(failed)
        report["workloads"][workload] = {"metrics": rows, "failed": failed, "audit_identical": not audit}
    report["breaches"] = breaches
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "aa_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nA/A verdict: {'FAILED' if breaches else 'ok'} ({breaches} breach(es)); "
          f"report in {(OUT / 'aa_report.json').relative_to(REPO)}")
    return 1 if breaches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="one run of one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds the op counts are sized for, shared out among the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", dest="size", action="store_const", const="quick", default="full",
                        help="tiny sizes, one repetition; for tests only, never recorded or compared")
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--record", action="store_true", help="append the result to HISTORY.jsonl")
    args = parser.parse_args()
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: the program under test is not at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return driver_run(args)
        return aa(args) if args.aa else suite(args)
    except RepetitionFailed as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
