"""Harness tests: ``python -m pytest benchmarks/e2e/tests`` (not part of tier-1)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for path in (E2E, E2E / "tests", REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def benchmark_processes() -> list[str]:
    """Command lines of live processes started from the benchmark's directory.

    Shard workers are forks of ``serve.py`` and keep its command line, so
    one scan finds load generators, servers and workers alike.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue  # the process ended while we were looking
        if str(E2E) in cmdline and "pytest" not in cmdline and state != "Z":
            found.append(f"{entry.name}: {cmdline.strip()}")
    return found


@pytest.fixture
def leaves_nothing_behind():
    """Fails the test if it leaks a process or a WAL directory."""
    before = set(benchmark_processes())
    yield
    leaked = [p for p in benchmark_processes() if p not in before]
    assert not leaked, f"orphaned benchmark processes: {leaked}"
    wal = E2E / "out" / "wal"
    assert not wal.exists() or not any(wal.iterdir()), f"WAL directories left in {wal}"
