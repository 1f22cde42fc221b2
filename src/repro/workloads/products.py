"""A products workload for filter / sort / batching / redundancy experiments.

The paper's introduction motivates crowd work with data-processing tasks such
as labelling images and extracting attributes that are "easier to express to
humans than to computers".  This workload provides a table of products whose
colour and visual size are known only to humans (ground truth) while machines
see a noisy feature vector — the substrate for the crowd filter, crowd sort,
batching (E8), redundancy (E5) and Task Model (E6) experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.tasks.spec import (
    ComparisonResponse,
    Parameter,
    RatingResponse,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.crowd.hit import HITItem
from repro.crowd.quality import GoldQuestion
from repro.crowd.oracle import AnswerOracle
from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.oracles import payload_value

__all__ = ["ProductRecord", "ProductsOracle", "ProductsWorkload"]

_COLORS = ("red", "blue", "green", "black", "white", "yellow")
_CATEGORIES = ("mug", "lamp", "chair", "backpack", "headphones", "kettle", "notebook")


@dataclass(frozen=True)
class ProductRecord:
    """Ground truth for one product."""

    name: str
    category: str
    color: str
    size: float  # latent "visual size" score in [0, 100]
    price: float
    color_features: tuple[float, ...]  # noisy machine-visible colour embedding


class ProductsOracle(AnswerOracle):
    """Workers judge product colour (filter) and relative size (sort)."""

    def __init__(self, records: dict[str, ProductRecord], target_color: str = "red"):
        self._records = records
        self.target_color = target_color

    def _record(self, payload: dict) -> ProductRecord:
        name = payload_value(payload, "name")
        if name is None or name not in self._records:
            raise WorkloadError(f"worker shown unknown product {name!r}")
        return self._records[name]

    def predicate_answer(self, item: HITItem) -> bool:
        return self._record(item.payload).color == self.target_color

    def comparison_answer(self, item: HITItem) -> str:
        left = self._record(item.payload.get("left", {}))
        right = self._record(item.payload.get("right", {}))
        return "left" if left.size >= right.size else "right"

    def rating_answer(self, item: HITItem) -> float:
        record = self._record(item.payload)
        low, high = 1, 7
        return low + (high - low) * record.size / 100.0


@dataclass
class ProductsWorkload:
    """Synthetic products table plus TASK specs for filtering and sorting."""

    n_products: int = 40
    target_color: str = "red"
    target_fraction: float = 0.3
    feature_noise: float = 0.15
    seed: int = 43
    records: list[ProductRecord] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_products < 1:
            raise WorkloadError("need at least one product")
        if not 0.0 < self.target_fraction < 1.0:
            raise WorkloadError("target_fraction must be strictly between 0 and 1")
        rng = random.Random(self.seed)
        color_axes = {color: index for index, color in enumerate(_COLORS)}
        self.records = []
        for index in range(self.n_products):
            if rng.random() < self.target_fraction:
                color = self.target_color
            else:
                color = rng.choice([c for c in _COLORS if c != self.target_color])
            features = [0.0] * len(_COLORS)
            features[color_axes[color]] = 1.0
            noisy = tuple(value + rng.gauss(0.0, self.feature_noise) for value in features)
            self.records.append(
                ProductRecord(
                    name=f"{rng.choice(_CATEGORIES)}-{index:03d}",
                    category=rng.choice(_CATEGORIES),
                    color=color,
                    size=rng.uniform(0.0, 100.0),
                    price=round(rng.uniform(3.0, 120.0), 2),
                    color_features=noisy,
                )
            )

    # -- storage -----------------------------------------------------------------------------

    def schema(self) -> Schema:
        return Schema.of(
            ("name", DataType.STRING),
            ("category", DataType.STRING),
            ("price", DataType.FLOAT),
        )

    def build_table(self, name: str = "products") -> Table:
        """Materialise the products base table (colour/size stay ground truth only)."""
        table = Table(name, self.schema())
        table.insert_many([(record.name, record.category, record.price) for record in self.records])
        return table

    def install(self, database: Database, name: str = "products") -> Table:
        table = self.build_table(name)
        database.catalog.register(table, replace=True)
        return table

    # -- crowd wiring --------------------------------------------------------------------------

    def by_name(self) -> dict[str, ProductRecord]:
        return {record.name: record for record in self.records}

    def oracle(self) -> ProductsOracle:
        return ProductsOracle(self.by_name(), target_color=self.target_color)

    def color_filter_spec(
        self, *, price: float = 0.01, assignments: int = 3, batch_size: int = 1
    ) -> TaskSpec:
        """``isColor(name)`` — a Filter task asking whether the product is the target colour."""
        features = self.by_name()

        def extractor(payload: dict) -> list[float] | None:
            name = payload_value(payload, "name")
            record = features.get(name)
            if record is None:
                return None
            return list(record.color_features) + [1.0]

        return TaskSpec(
            name="isTargetColor",
            task_type=TaskType.FILTER,
            text=f"Look at the product called %s. Is it {self.target_color}?",
            response=YesNoResponse(),
            parameters=(Parameter("name", "String"),),
            returns=(),
            price=price,
            assignments=assignments,
            batch_size=batch_size,
            feature_extractor=extractor,
        )

    def size_compare_spec(
        self, *, price: float = 0.01, assignments: int = 3, batch_size: int = 1
    ) -> TaskSpec:
        """``biggerItem(a, b)`` — a Rank task comparing the visual size of two products."""
        return TaskSpec(
            name="biggerItem",
            task_type=TaskType.RANK,
            text="Which of the two products shown looks physically larger?",
            response=ComparisonResponse("A", "B"),
            parameters=(Parameter("left", "Item"), Parameter("right", "Item")),
            returns=(),
            price=price,
            assignments=assignments,
            batch_size=batch_size,
        )

    def size_rating_spec(
        self, *, price: float = 0.01, assignments: int = 3, batch_size: int = 1
    ) -> TaskSpec:
        """``rateSize(item)`` — a Rank task rating the visual size of one product (1-7)."""
        return TaskSpec(
            name="rateSize",
            task_type=TaskType.RANK,
            text="Rate how physically large the product shown is, from 1 (tiny) to 7 (huge).",
            response=RatingResponse((1, 7)),
            parameters=(Parameter("item", "Item"),),
            returns=(),
            price=price,
            assignments=assignments,
            batch_size=batch_size,
        )

    def gold_questions(self, count: int = 6) -> list[GoldQuestion]:
        """Gold-standard probes for ``isTargetColor`` quality control.

        Drawn from the workload's own records (so the oracle can answer
        them), alternating between target-colour and other-colour products to
        catch both yes-spammers and no-spammers.
        """
        targets = [r for r in self.records if r.color == self.target_color]
        others = [r for r in self.records if r.color != self.target_color]
        questions: list[GoldQuestion] = []
        for index in range(count):
            source = targets if index % 2 == 0 and targets else others
            if not source:
                source = targets or others
            record = source[(index // 2) % len(source)]
            questions.append(
                GoldQuestion(
                    prompt=(
                        f"Look at the product called {record.name}. "
                        f"Is it {self.target_color}?"
                    ),
                    payload={"name": record.name, "_task": "isTargetColor"},
                    expected=record.color == self.target_color,
                )
            )
        return questions

    # -- evaluation -------------------------------------------------------------------------------

    def true_target_names(self) -> set[str]:
        """Names of products whose true colour is the target colour."""
        return {record.name for record in self.records if record.color == self.target_color}

    def true_size_order(self) -> list[str]:
        """Product names ordered by true visual size, largest first."""
        return [r.name for r in sorted(self.records, key=lambda r: r.size, reverse=True)]

    def filter_accuracy(self, rows: list[Row], *, name_column: str = "products.name") -> dict[str, float]:
        """Precision/recall of a crowd filter's output against ground truth."""
        truth = self.true_target_names()
        reported = {row[name_column] for row in rows}
        true_positives = len(reported & truth)
        precision = true_positives / len(reported) if reported else 1.0
        recall = true_positives / len(truth) if truth else 1.0
        return {"precision": precision, "recall": recall}

    @staticmethod
    def rank_correlation(true_order: list[str], observed_order: list[str]) -> float:
        """Spearman rank correlation between two orderings of the same names."""
        if len(true_order) < 2 or set(true_order) != set(observed_order):
            return 0.0
        n = len(true_order)
        true_rank = {name: rank for rank, name in enumerate(true_order)}
        observed_rank = {name: rank for rank, name in enumerate(observed_order)}
        d_squared = sum((true_rank[name] - observed_rank[name]) ** 2 for name in true_order)
        return 1.0 - (6.0 * d_squared) / (n * (n * n - 1))
