"""Print the fields that moved between two ``benchmarks/run_all.py`` outputs.

The e1–e19 output is a fingerprint: HITs, dollars, rows and simulated
seconds.  A change that moves it lists every moved field, and a plain
``diff`` of two 900-line JSON files is a poor way to read them.  This tool
prints one line per moved field, grouped by module::

    module / experiment / path: old → new

``path`` runs from the experiment's entry (``results[0].scheduler_passes``);
a module's own fields (``status``, ``overrides``) print ``-`` for the
experiment.  A field only one side has reads ``(absent)`` on the other.
Lists compare by position, so a list whose order changed prints each
position that moved.  Values print as JSON, so ``1`` and ``1.0`` differ.
The exit status is 0 when nothing moved and 1 when something did::

    python tools/fingerprint_diff.py benchmarks/full_fingerprint.json new.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Iterator

ABSENT = "(absent)"


def leaves(value: Any, path: str = "") -> Iterator[tuple[str, Any]]:
    """Yield ``(path, value)`` for every scalar, or empty container, under ``value``."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def fields(output: dict) -> dict[tuple[str, str, str], str]:
    """Every leaf of one ``run_all.py`` output, keyed ``(module, experiment, path)``."""
    found = {}
    for module, entry in output["benchmarks"].items():
        for key, value in entry.items():
            if key == "experiments":
                for experiment, result in value.items():
                    for path, leaf in leaves(result):
                        found[(module, experiment, path)] = json.dumps(leaf)
            else:
                for path, leaf in leaves(value, key):
                    found[(module, "-", path)] = json.dumps(leaf)
    return found


def moved(old: dict, new: dict) -> list[str]:
    """One ``module / experiment / path: old → new`` line per moved field."""
    before, after = fields(old), fields(new)
    keys = list(before) + [key for key in after if key not in before]
    keys.sort(key=lambda key: key[0])  # stable: document order within a module
    return [
        f"{' / '.join(key)}: {before.get(key, ABSENT)} → {after.get(key, ABSENT)}"
        for key in keys
        if before.get(key) != after.get(key)
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: fingerprint_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    lines = moved(old, new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
