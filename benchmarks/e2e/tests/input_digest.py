"""One digest over every generator's output for a seed; also runnable as a script.

``test_datagen`` runs this file under several ``PYTHONHASHSEED`` values to
show the generated inputs do not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import datagen  # noqa: E402

NAMES = [f"Company {i}" for i in range(30)]
PRICES = [(3.0 + i * 0.07, f"p-{i:04d}") for i in range(3000)]


def input_digest(seed: int) -> str:
    parts = [
        datagen.items_columns(500, 10, seed),
        datagen.lookup_trace(40, 80, NAMES, seed),
        datagen.analytic_trace(10, 40, 500, seed),
        datagen.crowd_trace(1, 2, 16, PRICES, seed),
        datagen.mixed_trace(10, 40, NAMES, PRICES, 500, seed),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


if __name__ == "__main__":
    print(input_digest(int(sys.argv[1])))
