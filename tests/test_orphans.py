"""The orphan gate: ``tools/orphans.py`` on this tree, and on small fixture trees.

The tree itself must have no orphan outside ``tools/orphans_allowlist.txt``
and no allowlisted name that something now reaches.  The fixture trees pin
what the tool counts as a use, so a tool that counted too much (a docstring)
or too little (the worker's ``_op_`` dispatch, a factory string) fails here.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("orphans", ROOT / "tools" / "orphans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


orphans = _load_tool()


def test_every_orphan_in_the_tree_is_allowlisted_and_every_entry_is_an_orphan():
    report, problems = orphans.check(ROOT)
    assert problems == []
    allowed, _ = orphans.read_allowlist(ROOT / orphans.ALLOWLIST)
    assert len(allowed) < 25
    assert set(allowed.values()) <= orphans.REASONS


LIB = '''
"""A library whose docstring names documented_only."""


def used():
    return 1


def documented_only():
    """Only docstrings and comments name this function."""


def recursive(n):
    return recursive(n - 1) if n else 0


def factory():
    return "built by name"


def patched_only():
    return called_by_patched_only()


def called_by_patched_only():
    return 2


def reexported():
    return 3


def test_only():
    return 4


class Worker:
    def handle(self, op):
        return getattr(self, f"_op_{op}")()

    def _op_ping(self):
        return "pong"

    def unused_method(self):
        return self.unused_method()
'''

TREE = {
    "src/repro/__init__.py": "from repro.lib import reexported, used\n\n__all__ = ['reexported', 'used']\n",
    "src/repro/lib.py": LIB,
    "src/repro/testing/__init__.py": "",
    "src/repro/testing/helpers.py": "def helper():\n    return 5\n\n\ndef unused_helper():\n    return 6\n",
    "examples/demo.py": (
        '"""repro.lib:documented_only"""\n\n'
        "from repro import used  # documented_only is named in this comment\n"
        "from repro.lib import Worker\n\n"
        "SPEC = 'repro.lib:factory'\n"
        "print(used(), Worker().handle('ping'), 'documented_only')\n"
    ),
    "benchmarks/e2e/tracer.py": (
        "def install(tracer, lib):\n"
        "    for name in ('patched_only',):\n"
        "        tracer.patch(lib, name, 'layer')\n"
    ),
    "tests/test_lib.py": (
        "from repro.lib import documented_only, test_only\n"
        "from repro.testing.helpers import helper\n\n\n"
        "def test_it():\n"
        "    assert helper() and test_only() and documented_only() is None\n"
    ),
}


@pytest.fixture
def tree(tmp_path):
    for name, text in TREE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def report_of(root):
    return orphans.Codebase(root).report()


def test_a_docstring_or_comment_mention_keeps_nothing_alive(tree):
    assert "repro.lib:documented_only" in report_of(tree).orphans


def test_self_references_re_exports_and_tests_outside_testing_are_not_uses(tree):
    found = report_of(tree).orphans
    assert "repro.lib:recursive" in found
    assert "repro.lib:Worker.unused_method" in found
    assert "repro.lib:reexported" in found
    assert "repro.lib:test_only" in found


def test_imports_through_a_package_and_the_two_dynamic_forms_are_uses(tree):
    found = report_of(tree).orphans
    assert "repro.lib:used" not in found
    assert "repro.lib:Worker._op_ping" not in found
    assert "repro.lib:factory" not in found


def test_tests_call_into_the_testing_package(tree):
    found = report_of(tree).orphans
    assert "repro.testing.helpers:helper" not in found
    assert "repro.testing.helpers:unused_helper" in found


def test_what_only_the_tracer_patches_is_kept_by_the_instrument(tree):
    report = report_of(tree)
    kept = ["repro.lib:called_by_patched_only", "repro.lib:patched_only"]
    assert report.instrument == kept
    assert not set(kept) & set(report.orphans)


def test_the_allowlist_is_checked_both_ways(tree):
    (tree / "tools").mkdir()
    listed = "repro.lib:documented_only paper-feature\nrepro.lib:used public-api\n"
    (tree / orphans.ALLOWLIST).write_text(listed)
    _, problems = orphans.check(tree)
    assert "allowlisted but no longer an orphan: repro.lib:used" in problems
    assert "orphan not in the allowlist: repro.lib:recursive" in problems
    assert not any("documented_only" in problem for problem in problems)


def test_an_allowlisted_definition_keeps_what_it_calls(tree):
    (tree / "tools").mkdir()
    (tree / orphans.ALLOWLIST).write_text("repro.lib:recursive public-api\n")
    source = (tree / "src/repro/lib.py").read_text()
    (tree / "src/repro/lib.py").write_text(
        source.replace("return recursive(n - 1) if n else 0", "return test_only()")
    )
    report, problems = orphans.check(tree)
    assert "repro.lib:recursive" in report.orphans
    assert "repro.lib:test_only" not in report.orphans
    assert "orphan not in the allowlist: repro.lib:recursive" not in problems


def test_an_unknown_reason_is_refused(tree):
    (tree / "tools").mkdir()
    (tree / orphans.ALLOWLIST).write_text("repro.lib:documented_only still-useful\n")
    _, problems = orphans.check(tree)
    assert any("reason one of" in problem for problem in problems)


def test_a_reused_method_name_keeps_every_method_of_that_name_alive(tree):
    lib = tree / "src/repro/lib.py"
    lib.write_text(
        lib.read_text()
        + "\n\nclass Other:\n"
        + "    def handle(self, op):\n        return op\n\n"
        + "    def __repr__(self):\n        return 'Other'\n\n"
        + "    def spare(self):\n        return 7\n"
    )
    demo = tree / "examples/demo.py"
    demo.write_text(demo.read_text() + "from repro.lib import Other\n\nprint(Other())\n")
    found = report_of(tree).orphans
    # ``Worker().handle(...)`` reaches ``Other.handle`` too: resolution is by name.
    assert "repro.lib:Other.handle" not in found
    assert "repro.lib:Other.__repr__" not in found
    assert "repro.lib:Other.spare" in found


def test_a_dead_class_is_reported_once_without_its_members(tree):
    lib = tree / "src/repro/lib.py"
    unused = "\n\nclass Unused:\n    def handle(self, op):\n        return op\n"
    lib.write_text(lib.read_text() + unused)
    found = report_of(tree).orphans
    assert "repro.lib:Unused" in found
    assert not [key for key in found if key.startswith("repro.lib:Unused.")]


def test_the_command_fails_until_every_orphan_is_listed(tree, capsys):
    assert orphans.main([str(tree)]) == 1
    assert "NOT ALLOWLISTED" in capsys.readouterr().out
    (tree / "tools").mkdir()
    listed = "".join(f"{key} public-api\n" for key in report_of(tree).orphans)
    (tree / orphans.ALLOWLIST).write_text(listed)
    assert orphans.main([str(tree)]) == 0
    out = capsys.readouterr().out
    assert "NOT ALLOWLISTED" not in out and "error:" not in out
    assert "  repro.lib:patched_only\n" in out
