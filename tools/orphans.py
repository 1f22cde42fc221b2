"""List the ``src/`` definitions that no code reaches: dead code, found by a tool.

Parses ``src/``, ``examples/`` and ``benchmarks/`` with :mod:`ast` and prints
every ``src/`` function, method, property and class that no code reference
reaches.  ``tests/`` is read only for ``repro.testing``'s callers (below).  A reference is a name load, an attribute
access or an import.  These are not uses: a package ``__init__``'s
re-export, an ``__all__`` entry, a definition's references to itself,
docstrings and comments.  Reaching is transitive: code that only dead code
calls is dead too, and so is every member of a dead class.

How a reference finds its definition:

- A module-level name resolves through the module's import bindings,
  following package re-exports, to the function or class it names.
- A method, property or nested class resolves by attribute name: any
  ``x.name`` (or ``getattr(x, "name")``) reaches every class member called
  ``name``.  That is conservative: a reused method name keeps the method
  alive.  Dunder methods live as long as their class.
- Two dynamic forms are known.  ``getattr(x, f"_op_{op}")`` reaches every
  member whose name starts with ``_op_`` (the cluster worker's dispatch),
  and a ``"package.module:function"`` string reaches that function (engine
  factories).
- Definitions under ``repro.testing`` also count ``tests/`` as callers.

The end-to-end tracer (``benchmarks/e2e/tracer.py``) patches methods by
name.  A definition that only those patches keep alive is printed in a
class of its own, "kept alive only by the instrument", worked out from
the tracer's ``patch`` calls.

Every other orphan must be listed in ``tools/orphans_allowlist.txt``, one
``module:qualname reason`` a line, the reason one of ``mturk-api``,
``paper-feature``, ``safety-observer`` or ``public-api``.  A listed
definition counts as reached, so what only it calls is not listed.  The exit status
is 1 when an orphan is not listed, a listed name is no longer an orphan,
or a reason is not one of those::

    python tools/orphans.py              # this checkout
    python tools/orphans.py path/to/tree # any tree with the same layout
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

TESTING_PACKAGE = "repro.testing"
INSTRUMENT = "benchmarks/e2e/tracer.py"
ALLOWLIST = "tools/orphans_allowlist.txt"
REASONS = frozenset({"mturk-api", "paper-feature", "safety-observer", "public-api"})
_FACTORY = re.compile(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)")
_ROOT = "<root>"
_TESTS = "<tests>"


@dataclass
class Definition:
    module: str
    qualname: str
    owner: str | None  # the enclosing class's key, for a class member

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


@dataclass
class Module:
    name: str
    tree: ast.Module
    is_package: bool
    bindings: dict[str, tuple] = field(default_factory=dict)


@dataclass
class Report:
    orphans: list[str]
    instrument: list[str]


def _module_name(path: Path, src: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(src).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    return ".".join(parts[:-1] if is_package else parts), is_package


def _docstrings(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _import_base(module: Module, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = module.name.split(".")
    package = package[: len(package) - node.level + (1 if module.is_package else 0)]
    return ".".join(package + ([node.module] if node.module else []))


class Codebase:
    """The ``src/`` definitions of one tree and the references that reach them."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: dict[str, Module] = {}
        self.definitions: dict[str, Definition] = {}
        self.members: dict[str, list[str]] = defaultdict(list)
        self.by_name: dict[str, list[str]] = defaultdict(list)
        self.class_members: dict[str, list[str]] = defaultdict(list)
        self.edges: dict[str, set[str]] = defaultdict(set)
        src = root / "src"
        for path in sorted(src.rglob("*.py")):
            name, is_package = _module_name(path, src)
            self.modules[name] = Module(name, ast.parse(path.read_bytes(), str(path)), is_package)
        for module in self.modules.values():
            self._define(module)
        for module in self.modules.values():
            _References(self, module, src=True).run()
        for directory, source in (("examples", _ROOT), ("benchmarks", _ROOT), ("tests", _TESTS)):
            for path in sorted((root / directory).rglob("*.py")):
                module = Module(path.stem, ast.parse(path.read_bytes(), str(path)), False)
                self._bind_imports(module)
                _References(self, module, src=False, source=source).run()

    # -- definitions and bindings ------------------------------------------

    def _define(self, module: Module) -> None:
        def add(node, qualname: str, owner: str | None) -> None:
            definition = Definition(module.name, qualname, owner)
            self.definitions[definition.key] = definition
            self.by_name[definition.name].append(definition.key)
            if owner is not None:
                self.members[definition.name].append(definition.key)
                self.class_members[owner].append(definition.key)
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        add(child, f"{qualname}.{child.name}", definition.key)

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                add(node, node.name, None)
                module.bindings[node.name] = ("def", f"{module.name}:{node.name}")
        self._bind_imports(module)

    def _bind_imports(self, module: Module) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.bindings[alias.asname] = ("module", alias.name)
                    else:
                        head = alias.name.partition(".")[0]
                        module.bindings[head] = ("module", head)
            elif isinstance(node, ast.ImportFrom):
                base = _import_base(module, node)
                for alias in node.names:
                    module.bindings[alias.asname or alias.name] = ("from", base, alias.name)

    def resolve(self, module_name: str, name: str, seen: frozenset = frozenset()):
        """``("def", key)``, ``("module", name)`` or None for ``module_name.name``."""
        if f"{module_name}.{name}" in self.modules:
            return ("module", f"{module_name}.{name}")
        module = self.modules.get(module_name)
        if module is None or (module_name, name) in seen:
            return None
        return self.follow(module.bindings.get(name), seen | {(module_name, name)})

    def follow(self, binding, seen: frozenset = frozenset()):
        if binding is None or binding[0] == "def":
            return binding
        if binding[0] == "module":
            return binding if binding[1] in self.modules else None
        return self.resolve(binding[1], binding[2], seen)

    # -- reachability -------------------------------------------------------

    def alive(self, extra_roots: set[str] = frozenset()) -> set[str]:
        """Every definition some live reference reaches."""
        reached: set[str] = set()
        alive: set[str] = set()
        pending = list(self.edges[_ROOT] | extra_roots)
        pending += [key for key in self.edges[_TESTS] if _in_testing(key)]
        while pending:
            key = pending.pop()
            if key in reached:
                continue
            reached.add(key)
            owner = self.definitions[key].owner
            if owner is None or owner in alive:
                pending += self._activate(key, reached, alive)
        return alive

    def _activate(self, key: str, reached: set[str], alive: set[str]) -> list[str]:
        """Mark ``key`` alive; return what it reaches in turn."""
        if key in alive:
            return []
        alive.add(key)
        found = list(self.edges[key])
        for member in self.class_members.get(key, ()):
            name = self.definitions[member].name
            if member in reached or (name.startswith("__") and name.endswith("__")):
                reached.add(member)
                found += self._activate(member, reached, alive)
        return found

    def report(self, kept: set[str] = frozenset()) -> Report:
        """Orphans and instrument-only definitions; ``kept`` are allowlisted.

        A kept definition is a root, so what only it reaches is not an
        orphan; it is itself an orphan while nothing else reaches it.
        """
        patched = instrument_names(self.root / INSTRUMENT)
        instrument = {key for name in patched for key in self.by_name.get(name, ())}
        kept = kept & set(self.definitions)
        orphans = set(self._outermost(self.alive(instrument | kept)))
        orphans |= {key for key in kept if key not in self.alive(instrument | kept - {key})}
        only_instrument = set(self._outermost(self.alive(kept))) - orphans
        return Report(sorted(orphans), sorted(only_instrument))

    def _outermost(self, alive: set[str]) -> list[str]:
        dead = set(self.definitions) - alive
        return [key for key in dead if self.definitions[key].owner not in dead]


def _in_testing(key: str) -> bool:
    module = key.partition(":")[0]
    return module == TESTING_PACKAGE or module.startswith(TESTING_PACKAGE + ".")


class _References(ast.NodeVisitor):
    """Adds one file's references to ``codebase.edges``, by source definition."""

    def __init__(self, codebase: Codebase, module: Module, *, src: bool, source: str = _ROOT):
        self.codebase = codebase
        self.module = module
        self.src = src
        self.source = source
        self.qualname = ""  # of the enclosing definition
        self.docstrings = _docstrings(module.tree)

    def run(self) -> None:
        self.visit(self.module.tree)

    def reach(self, keys) -> None:
        self.codebase.edges[self.source].update(keys)

    def reach_member(self, name: str) -> None:
        self.reach(self.codebase.members.get(name, ()))

    def reach_resolved(self, target) -> None:
        if target and target[0] == "def":
            self.reach([target[1]])

    def _enter(self, node, outer: list[ast.AST]) -> None:
        """Visit ``outer`` (evaluated where ``node`` is defined), then its body."""
        for child in outer:
            self.visit(child)
        saved = self.source, self.qualname
        qualname = f"{self.qualname}.{node.name}" if self.qualname else node.name
        key = f"{self.module.name}:{qualname}"
        if self.src and key in self.codebase.definitions:
            self.source, self.qualname = key, qualname
        for child in ast.iter_child_nodes(node):
            if child not in outer:
                self.visit(child)
        self.source, self.qualname = saved

    def visit_FunctionDef(self, node) -> None:
        args = node.args
        self._enter(node, node.decorator_list + args.defaults + [d for d in args.kw_defaults if d])

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self._enter(node, node.decorator_list + node.bases + node.keywords)

    def visit_ImportFrom(self, node) -> None:
        if self.module.is_package:
            return  # a re-export is not a use
        base = _import_base(self.module, node)
        for alias in node.names:
            self.reach_resolved(self.codebase.resolve(base, alias.name))

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reach_resolved(self.codebase.follow(self.module.bindings.get(node.id)))

    def _module_of(self, node) -> str | None:
        if isinstance(node, ast.Name):
            target = self.codebase.follow(self.module.bindings.get(node.id))
        elif isinstance(node, ast.Attribute):
            base = self._module_of(node.value)
            target = base and self.codebase.resolve(base, node.attr)
        else:
            return None
        return target[1] if target and target[0] == "module" else None

    def visit_Attribute(self, node) -> None:
        base = self._module_of(node.value)
        if base is not None:
            self.reach_resolved(self.codebase.resolve(base, node.attr))
        elif isinstance(node.ctx, ast.Load):
            self.reach_member(node.attr)
        self.visit(node.value)

    def visit_Call(self, node) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("getattr", "hasattr") and len(node.args) > 1:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.reach_member(name.value)
            elif isinstance(name, ast.JoinedStr) and name.values:
                prefix = name.values[0]
                if isinstance(prefix, ast.Constant):
                    self.reach(
                        key
                        for member, keys in self.codebase.members.items()
                        if member.startswith(prefix.value)
                        for key in keys
                    )
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if not isinstance(node.value, str) or id(node) in self.docstrings:
            return
        match = _FACTORY.fullmatch(node.value)
        if match:
            self.reach_resolved(self.codebase.resolve(*match.groups()))


def instrument_names(path: Path) -> set[str]:
    """Attribute names the tracer's ``patch``/``patch_listener`` calls replace."""
    if not path.exists():
        return set()
    names: set[str] = set()
    loops: dict[str, set[str]] = {}

    def strings(node) -> set[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, ast.Name):
            return loops.get(node.id, set())
        return set()

    def walk(node) -> None:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                loops[node.target.id] = set().union(*map(strings, node.iter.elts))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("patch", "patch_listener")
            and len(node.args) > 1
        ):
            names.update(strings(node.args[1]))
        for child in ast.iter_child_nodes(node):
            walk(child)

    walk(ast.parse(path.read_bytes(), str(path)))
    return names


def read_allowlist(path: Path) -> tuple[dict[str, str], list[str]]:
    """``{key: reason}`` and the lines that are not ``module:qualname reason``."""
    entries: dict[str, str] = {}
    errors: list[str] = []
    if not path.exists():
        return entries, errors
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, reason = line.partition(" ")
        if ":" not in key or reason.strip() not in REASONS:
            errors.append(f"{path.name}:{number}: expected 'module:qualname <reason>', "
                          f"reason one of {', '.join(sorted(REASONS))}: {line}")
        entries[key] = reason.strip()
    return entries, errors


def check(root: Path) -> tuple[Report, list[str]]:
    """The tree's report and every way it disagrees with its allowlist."""
    allowed, problems = read_allowlist(root / ALLOWLIST)
    report = Codebase(root).report(set(allowed))
    problems += [f"orphan not in the allowlist: {key}" for key in report.orphans
                 if key not in allowed]
    problems += [f"allowlisted but no longer an orphan: {key}" for key in sorted(allowed)
                 if key not in report.orphans]
    return report, problems


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    report, problems = check(root)
    allowed, _ = read_allowlist(root / ALLOWLIST)
    print(f"{len(report.orphans)} orphans (no code reference reaches them):")
    for key in report.orphans:
        print(f"  {key}  [{allowed.get(key, 'NOT ALLOWLISTED')}]")
    print(f"{len(report.instrument)} kept alive only by the instrument ({INSTRUMENT}):")
    for key in report.instrument:
        print(f"  {key}")
    for problem in problems:
        print(f"error: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
