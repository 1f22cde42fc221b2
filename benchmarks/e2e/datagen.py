"""Seeded inputs: table contents and query traces, pure functions of the seed.

Everything the program under test sees is generated here — base-table
columns for the factory, and per-workload lists of :class:`Op` (SQL text plus
the parameters the output check needs).  Nothing in this module reads a
clock, the environment or builtin ``hash``; string seeds go through
``random.Random(str)``, which hashes with SHA-512 and so ignores
``PYTHONHASHSEED``.

Traces are *stratified*, not sampled independently: a phase is a sequence of
equal-sized blocks, every block holds the same number of queries of each
class, and across the phase each class takes one selectivity from each equal
slice of its band, in a seed-dependent order against seed-dependent data.
The work per run — and where in a class's latency range the median query
falls — is therefore a property of the workload rather than of the seed.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, NamedTuple, Sequence

N_CATEGORIES = 100
PRICE_RANGE = 100_000
ZIPF_S = 1.1

LOOKUP_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)
GROUPBY_SQL = (
    "SELECT category, count(id) AS n, avg(score) AS mean_score "
    "FROM items WHERE price > {threshold} GROUP BY category"
)
TOPK_SQL = (
    "SELECT id, score FROM items WHERE price > {threshold} ORDER BY score DESC LIMIT 100"
)
JOIN_SQL = (
    "SELECT items.id, categories.weight FROM items, categories "
    "WHERE items.category = categories.name AND items.price > {threshold}"
)
POINT_SQL = "SELECT id, category, price FROM items WHERE id = {item_id}"
_WINDOW = "price >= {low!r} AND price < {high!r}"
FILTER_SQL = "SELECT name FROM products WHERE " + _WINDOW + " AND isTargetColor(name)"
RATING_SQL = "SELECT name FROM products WHERE " + _WINDOW + " ORDER BY rateSize(name)"
COMPARE_SQL = "SELECT name FROM products WHERE " + _WINDOW + " ORDER BY biggerItem(name)"


class Op(NamedTuple):
    """One generated query: its class, its SQL, and what the check needs."""

    kind: str
    sql: str
    expect: tuple[Any, ...]


class ItemsData(NamedTuple):
    """Column-major contents of ``items`` and ``categories``."""

    ids: list[int]
    categories: list[str]
    prices: list[int]
    scores: list[float]
    category_names: list[str]
    category_weights: list[float]


def items_columns(n_items: int, n_categories: int, seed: int) -> ItemsData:
    """The ``items``/``categories`` tables for ``seed``.

    ``score`` is a shuffled permutation scaled into [0, 1) so every value is
    distinct: an ``ORDER BY score`` has exactly one right answer.
    """
    rng = random.Random(f"items:{seed}")
    ranks = list(range(n_items))
    rng.shuffle(ranks)
    return ItemsData(
        ids=list(range(n_items)),
        categories=[f"c{rng.randrange(n_categories)}" for _ in range(n_items)],
        prices=[rng.randrange(PRICE_RANGE) for _ in range(n_items)],
        scores=[rank / n_items for rank in ranks],
        category_names=[f"c{i}" for i in range(n_categories)],
        category_weights=[1.0 + i / n_categories for i in range(n_categories)],
    )


def _stratified(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` values covering [low, high) one per equal stratum, shuffled."""
    width = (high - low) / max(count, 1)
    values = [low + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(values)
    return values


def _block_kinds(rng: random.Random, n_ops: int, composition: Sequence[str]) -> list[list[str]]:
    """Class labels for ``n_ops`` ops, in blocks that are each ``composition`` shuffled.

    The last block is cut short when ``n_ops`` is not a multiple of the
    block size.
    """
    blocks = []
    for start in range(0, n_ops, len(composition)):
        kinds = list(composition)
        rng.shuffle(kinds)
        blocks.append(kinds[: n_ops - start])
    return blocks


def zipf_indices(rng: random.Random, count: int, population: int, s: float = ZIPF_S) -> list[int]:
    """``count`` zipf(s) draws over ``population`` ids.

    The *rank* sequence is the same for every seed (its generator is seeded
    with a constant); the seed only decides which id holds which rank.  How
    often the trace returns to an id it has already asked about — what the
    Task Cache's hit ratio and the number of cold crowd purchases depend on
    — is therefore a property of the workload, not of the seed.
    """
    weights = [1.0 / rank**s for rank in range(1, population + 1)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    order = list(range(population))
    rng.shuffle(order)
    ranks = random.Random(f"zipf-ranks:{population}:{s}")
    return [
        order[min(bisect.bisect_left(cumulative, ranks.random()), population - 1)]
        for _ in range(count)
    ]


def _lookup(company_names: Sequence[str], index: int) -> Op:
    return Op("lookup", LOOKUP_SQL.format(company=company_names[index]), (index,))


def lookup_trace(
    n_warm: int, n_timed: int, company_names: Sequence[str], seed: int
) -> tuple[list[Op], list[Op]]:
    """Warm-up and timed zipfian ``findCEO`` point lookups.

    The warm-up first asks about every company once, so all crowd answers
    are bought before the timed window and every timed lookup is a task
    cache hit whatever the seed drew.
    """
    rng = random.Random(f"lookup:{seed}")
    cover = list(range(len(company_names)))
    rng.shuffle(cover)
    draws = zipf_indices(rng, max(n_warm - len(cover), 0) + n_timed, len(company_names))
    indices = cover + draws
    ops = [_lookup(company_names, index) for index in indices]
    n_warm = max(n_warm, len(cover))
    return ops[:n_warm], ops[n_warm:]


#: Selectivity bands, as the share of ``items`` a query's ``price >`` keeps.
_GROUPBY_KEEP = (0.2, 0.8)
_TOPK_KEEP = (0.02, 0.2)
_JOIN_KEEP = (0.04, 0.10)


def _analytic_ops(
    rng: random.Random, kinds: Sequence[str], n_items: int, join_keep: tuple[float, float]
) -> list[Op]:
    bands = {"groupby": _GROUPBY_KEEP, "topk": _TOPK_KEEP, "join": join_keep}
    sql = {"groupby": GROUPBY_SQL, "topk": TOPK_SQL, "join": JOIN_SQL}
    thresholds = {
        kind: [
            int(PRICE_RANGE * (1.0 - keep))
            for keep in _stratified(rng, kinds.count(kind), *band)
        ]
        for kind, band in bands.items()
    }
    points = [int(x) for x in _stratified(rng, kinds.count("point"), 0, n_items)]
    ops = []
    for kind in kinds:
        if kind == "point":
            item_id = points.pop()
            ops.append(Op("point", POINT_SQL.format(item_id=item_id), (item_id,)))
        else:
            threshold = thresholds[kind].pop()
            ops.append(Op(kind, sql[kind].format(threshold=threshold), (threshold,)))
    return ops


#: One block of ``analytic_local``: 30% group-by, 20% top-k, 30% join, 20% point.
ANALYTIC_BLOCK = ("groupby",) * 3 + ("topk",) * 2 + ("join",) * 3 + ("point",) * 2


def analytic_trace(n_warm: int, n_timed: int, n_items: int, seed: int) -> tuple[list[Op], list[Op]]:
    """Crowd-free SQL over ``items`` ⋈ ``categories`` in blocks of :data:`ANALYTIC_BLOCK`."""
    rng = random.Random(f"analytic:{seed}")
    warm, timed = (
        _analytic_ops(
            rng,
            [kind for kinds in _block_kinds(rng, n_ops, ANALYTIC_BLOCK) for kind in kinds],
            n_items,
            _JOIN_KEEP,
        )
        for n_ops in (n_warm, n_timed)
    )
    return warm, timed


class PriceWindows:
    """Disjoint price windows over the products table, each handed out once.

    ``product_prices`` is ``[(price, name), ...]``.  Windows are cut at
    boundaries between *distinct* prices so ``price >= low AND price < high``
    selects exactly the named products, and no product is ever in two
    windows — every crowd task a window generates is a cache miss.
    """

    def __init__(self, product_prices: Sequence[tuple[float, str]]):
        self._sorted = sorted(product_prices)
        self._cursor = 0

    def take(self, size: int) -> tuple[float, float, tuple[str, ...]]:
        """The next window of at least ``size`` products: (low, high, names)."""
        rows = self._sorted
        start = self._cursor
        end = start + size
        if end >= len(rows):
            raise ValueError(
                f"products table too small: window of {size} at {start} of {len(rows)}"
            )
        while rows[end][0] == rows[end - 1][0]:
            end += 1
            if end >= len(rows):
                raise ValueError("products table too small for another price window")
        self._cursor = end
        names = tuple(name for _, name in rows[start:end])
        return rows[start][0], rows[end][0], names


#: Products per crowd query window; the comparison sort is quadratic in its
#: input, so its window is cut down to keep all three classes near 40 HITs.
FILTER_WINDOW = 40
RATING_WINDOW = 40
COMPARE_WINDOW = 9
_CROWD_SQL = {"filter": FILTER_SQL, "rating": RATING_SQL, "compare": COMPARE_SQL}
_CROWD_WINDOW = {"filter": FILTER_WINDOW, "rating": RATING_WINDOW, "compare": COMPARE_WINDOW}


def _crowd_op(kind: str, windows: PriceWindows, size: int) -> Op:
    low, high, names = windows.take(size)
    return Op(kind, _CROWD_SQL[kind].format(low=low, high=high), (names,))


def crowd_trace(
    n_warm_waves: int,
    n_timed_waves: int,
    wave_size: int,
    product_prices: Sequence[tuple[float, str]],
    seed: int,
) -> tuple[list[list[Op]], list[list[Op]]]:
    """Waves of cold crowd queries: ~70% filters, ~20% rating sorts, ~10% comparison sorts.

    Every wave has the same class composition, shuffled within the wave.
    """
    rng = random.Random(f"crowd:{seed}")
    windows = PriceWindows(product_prices)
    n_rating = round(wave_size * 0.2)
    n_compare = max(round(wave_size * 0.1), 1) if wave_size >= 4 else 0
    composition = (
        ["filter"] * (wave_size - n_rating - n_compare)
        + ["rating"] * n_rating
        + ["compare"] * n_compare
    )
    waves = []
    for _ in range(n_warm_waves + n_timed_waves):
        kinds = list(composition)
        rng.shuffle(kinds)
        waves.append([_crowd_op(kind, windows, _CROWD_WINDOW[kind]) for kind in kinds])
    return waves[:n_warm_waves], waves[n_warm_waves:]


#: The cluster's cold crowd filters are small (~8 HITs) so one query's crowd
#: work fits inside a few pump slices.
MIXED_FILTER_WINDOW = 8
#: The cluster join ships ~4k rows: 6-10% of the per-shard 50k items.
_MIXED_JOIN_KEEP = (0.06, 0.10)
#: One block of ``cluster_tcp_mixed``: 55% zipf lookups, 15% group-by, 15% join,
#: 15% cold crowd filters.
MIXED_BLOCK = ("lookup",) * 11 + ("groupby",) * 3 + ("join",) * 3 + ("filter",) * 3


def mixed_trace(
    n_warm: int,
    n_timed: int,
    company_names: Sequence[str],
    product_prices: Sequence[tuple[float, str]],
    n_items: int,
    seed: int,
) -> tuple[list[Op], list[Op]]:
    """The TCP mix, in blocks of :data:`MIXED_BLOCK`."""
    rng = random.Random(f"mixed:{seed}")
    windows = PriceWindows(product_prices)
    phases = []
    for n_ops in (n_warm, n_timed):
        kinds = [kind for block in _block_kinds(rng, n_ops, MIXED_BLOCK) for kind in block]
        lookups = zipf_indices(rng, kinds.count("lookup"), len(company_names))
        local = iter(
            _analytic_ops(
                rng, [k for k in kinds if k in ("groupby", "join")], n_items, _MIXED_JOIN_KEEP
            )
        )
        ops = []
        for kind in kinds:
            if kind == "lookup":
                ops.append(_lookup(company_names, lookups.pop()))
            elif kind == "filter":
                ops.append(_crowd_op("filter", windows, MIXED_FILTER_WINDOW))
            else:
                ops.append(next(local))
        phases.append(ops)
    return phases[0], phases[1]
