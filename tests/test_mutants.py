"""The mutation probe, ``tools/mutants.py``, on a tiny fixture project.

The fixture has one mutant its test kills (``+`` → ``-`` in ``double``) and
one it cannot see (``<`` → ``<=`` in ``clamp``, equal at the boundary), so
the probe must report exactly the second, and nothing once ``--functions``
leaves only the first.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


mutants = _load_tool()

MODULE = '''
"""A fixture module."""


def double(x):
    return x + x


def clamp(value, low):
    # A comment the unparsed copy drops.
    if value < low:
        return low
    return value
'''

TESTS = """
from tinymod import clamp, double


def test_double():
    assert double(3) == 6


def test_clamp():
    assert clamp(1, 5) == 5
    assert clamp(7, 5) == 7
"""


def _project(tmp_path: Path) -> Path:
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tinymod.py").write_text(textwrap.dedent(MODULE))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tinymod.py").write_text(textwrap.dedent(TESTS))
    return tmp_path


def test_enumerates_each_operator_and_constant_mutant():
    source = "def f(a, b):\n    return a < b and a + 2 in b\n"
    found = [(m.old, m.new) for m in mutants.enumerate_mutants(source)]
    assert sorted(found) == sorted(
        [("and", "or"), ("<", "<="), ("in", "not in"), ("+", "-"), ("2", "3"), ("2", "1")]
    )
    mutant = next(m for m in mutants.enumerate_mutants(source) if m.new == "not in")
    assert mutants.mutate(source, mutant) == "def f(a, b):\n    return a < b and a + 2 not in b"


def test_reports_the_surviving_mutant_and_leaves_the_project_alone(tmp_path, capsys):
    project = _project(tmp_path)
    original = (project / "src" / "tinymod.py").read_text()
    argv = ["src/tinymod.py", "--tests", "tests/test_tinymod.py", "--root", str(project)]
    assert mutants.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    line = original.splitlines().index("    if value < low:") + 1
    assert lines == [f"src/tinymod.py:{line} < → <=", "2 mutants: 1 killed, 1 survived"]
    assert (project / "src" / "tinymod.py").read_text() == original


def test_functions_limit_the_mutants(tmp_path, capsys):
    project = _project(tmp_path)
    argv = ["src/tinymod.py", "--tests", "tests/test_tinymod.py", "--root", str(project)]
    assert mutants.main([*argv, "--functions", "double"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 mutants: 1 killed, 0 survived"]
