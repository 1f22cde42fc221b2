"""Mutation probe: which small changes to one module do its tests not notice?

For one module, each mutant makes one change: a comparison operator flips
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``, ``in``/``not
in``), ``and``/``or`` swap, ``+``/``-`` swap, or an integer constant moves
by one either way.  ``--functions`` limits the mutants to the named
functions (methods included, with whatever is nested in them).

Each mutant runs on a temporary copy of the project, never on the checkout:
``src/``, ``pyproject.toml`` and the top-level folder (or file) of each
listed test path are copied once, the mutated module is written into the
copy (``ast.unparse``, so comments are gone), and ``pytest -x`` runs the listed
tests there with bytecode caching off.  The copy is checked first with the
module unparsed but unmutated; if those tests do not pass, nothing is
reported.  A mutant that the tests fail on, or that runs more than five times
as long as the unmutated copy (ten seconds at least), is killed.  The
survivors are printed as ``module:line old → new``, then a count line.
Report only: the exit status is 0 whatever survives.

Usage::

    python tools/mutants.py src/repro/core/exec/scheduler.py \\
        --functions _run pump drain run_until wait \\
        --tests tests/core/test_scheduler.py tests/core/test_scheduler_drivers.py
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_COMPARE_FLIPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
_BOOL_FLIPS = {ast.And: ast.Or, ast.Or: ast.And}
_BINOP_FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Is: "is",
    ast.IsNot: "is not",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.And: "and",
    ast.Or: "or",
    ast.Add: "+",
    ast.Sub: "-",
}
#: The address-space cap of one test run, so a runaway mutant fails alone.
MEMORY_LIMIT_BYTES = 4 << 30


@dataclass(frozen=True)
class Mutant:
    """One change: the ``index``-th mutable site in walk order, ``variant``."""

    index: int
    variant: int
    line: int
    old: str
    new: str


def _sites(tree: ast.Module, functions: set[str] | None) -> list[ast.AST]:
    """The nodes a mutant may change, in a fixed walk order."""
    if functions is None:
        scopes = [tree]
    else:
        scopes = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in functions
        ]
        missing = functions - {scope.name for scope in scopes}
        if missing:
            raise SystemExit(f"no function named {', '.join(sorted(missing))}")
    seen: set[int] = set()
    sites = []
    for scope in scopes:
        for node in ast.walk(scope):
            if id(node) not in seen and _variants(node):
                seen.add(id(node))
                sites.append(node)
    return sites


def _variants(node: ast.AST) -> list[tuple[int, str, str]]:
    """``(line, old, new)`` for each mutant of ``node``, in variant order."""
    if isinstance(node, ast.Compare):
        return [
            (right.lineno, _SYMBOLS[type(op)], _SYMBOLS[_COMPARE_FLIPS[type(op)]])
            for op, right in zip(node.ops, node.comparators)
        ]
    if isinstance(node, ast.BoolOp):
        return [(node.lineno, _SYMBOLS[type(node.op)], _SYMBOLS[_BOOL_FLIPS[type(node.op)]])]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOP_FLIPS:
        op = type(node.op)
        return [(node.right.lineno, _SYMBOLS[op], _SYMBOLS[_BINOP_FLIPS[op]])]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return [(node.lineno, repr(node.value), repr(node.value + delta)) for delta in (1, -1)]
    return []


def _apply(node: ast.AST, variant: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[variant] = _COMPARE_FLIPS[type(node.ops[variant])]()
    elif isinstance(node, ast.BoolOp):
        node.op = _BOOL_FLIPS[type(node.op)]()
    elif isinstance(node, ast.BinOp):
        node.op = _BINOP_FLIPS[type(node.op)]()
    else:
        node.value += 1 if variant == 0 else -1


def enumerate_mutants(source: str, functions: set[str] | None = None) -> list[Mutant]:
    """Every mutant of ``source``, limited to ``functions`` when given."""
    mutants = []
    for index, node in enumerate(_sites(ast.parse(source), functions)):
        for variant, (line, old, new) in enumerate(_variants(node)):
            mutants.append(Mutant(index, variant, line, old, new))
    return mutants


def mutate(source: str, mutant: Mutant, functions: set[str] | None = None) -> str:
    """``source`` with ``mutant`` applied, as ``ast.unparse`` writes it."""
    tree = ast.parse(source)
    _apply(_sites(tree, functions)[mutant.index], mutant.variant)
    return ast.unparse(tree)


def _copy_project(root: Path, tests: list[str], into: Path) -> None:
    """Copy ``src/``, the top-level entry of each test path and the pytest config."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    names = {"src", "pyproject.toml", "conftest.py"} | {Path(test).parts[0] for test in tests}
    for name in sorted(names):
        if (root / name).is_dir():
            shutil.copytree(root / name, into / name, ignore=ignore)
        elif (root / name).is_file():
            shutil.copy2(root / name, into / name)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _tests_pass(project: Path, tests: list[str], timeout: float | None) -> bool:
    env = dict(os.environ, PYTHONPATH=str(project / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command,
            cwd=project,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def run(
    module: str,
    tests: list[str],
    *,
    functions: set[str] | None = None,
    root: Path = ROOT,
) -> tuple[list[Mutant], int]:
    """Run every mutant of ``module``; return the survivors and the mutant count."""
    source = (root / module).read_text()
    mutants = enumerate_mutants(source, functions)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        project = Path(scratch)
        _copy_project(root, tests, project)
        target = project / module
        target.write_text(ast.unparse(ast.parse(source)))
        started = time.perf_counter()
        if not _tests_pass(project, tests, None):
            raise SystemExit(f"the tests fail on the unmutated copy of {module}")
        timeout = max(10.0, 5 * (time.perf_counter() - started))
        for mutant in mutants:
            target.write_text(mutate(source, mutant, functions))
            if _tests_pass(project, tests, timeout):
                survivors.append(mutant)
    return survivors, len(mutants)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to --root")
    parser.add_argument("--tests", nargs="+", required=True, help="test files, relative to --root")
    parser.add_argument("--functions", nargs="+", help="mutate only inside these functions")
    parser.add_argument("--root", type=Path, default=ROOT, help="the project root")
    args = parser.parse_args(argv)
    functions = set(args.functions) if args.functions else None
    survivors, total = run(args.module, args.tests, functions=functions, root=args.root)
    for mutant in survivors:
        print(f"{args.module}:{mutant.line} {mutant.old} → {mutant.new}")
    print(f"{total} mutants: {total - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
