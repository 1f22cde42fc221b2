"""The generated inputs are pure functions of the seed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import datagen
from input_digest import NAMES, PRICES, input_digest


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert input_digest(7) == input_digest(7)
    assert input_digest(7) != input_digest(8)


def test_inputs_do_not_depend_on_the_hash_seed():
    script = Path(__file__).with_name("input_digest.py")
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        out = subprocess.run(
            [sys.executable, str(script), "7"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(out.stdout.strip())
    assert digests == {input_digest(7)}


def test_every_seed_gets_the_same_amount_of_work():
    for seed in (1, 2, 3):
        _, timed = datagen.analytic_trace(10, 100, 500, seed)
        kinds = [op.kind for op in timed]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "groupby": 30, "topk": 20, "join": 30, "point": 20,
        }  # fmt: skip
        _, waves = datagen.crowd_trace(1, 3, 16, PRICES, seed)
        for wave in waves:
            assert sorted(op.kind for op in wave) == ["compare"] * 2 + ["filter"] * 11 + ["rating"] * 3


def test_lookup_warm_up_covers_every_company():
    warm, _ = datagen.lookup_trace(40, 80, NAMES, 5)
    assert {op.expect[0] for op in warm} == set(range(len(NAMES)))


def test_price_windows_are_disjoint_and_exact():
    windows = datagen.PriceWindows([(1.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d"), (4.0, "e")])
    low, high, names = windows.take(1)
    assert (low, high, names) == (1.0, 2.0, ("a", "b"))  # a tie is never split
    low, high, names = windows.take(1)
    assert (low, high, names) == (2.0, 3.0, ("c",))
