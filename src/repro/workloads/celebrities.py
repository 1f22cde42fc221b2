"""The celebrities / spotted-stars workload (Query 2 of the paper).

"Suppose we have a celebrities table with pictures of celebrities, and a
spottedstars table with submitted celebrity pictures.  We want to identify
each submitted celebrity."  This module generates the two tables of synthetic
images, the ground-truth match relation, the ``samePerson`` TASK definition
(Task 2), worker-facing payload functions, a feature-distance pre-filter, and
scoring helpers (precision / recall of the crowd join).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.tasks.spec import JoinColumnsResponse, Parameter, TaskSpec, TaskType, YesNoResponse
from repro.crowd.hit import HITItem
from repro.crowd.oracle import AnswerOracle
from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.images import ImageGenerator, SyntheticImage
from repro.workloads.oracles import payload_value

__all__ = ["CelebrityOracle", "CelebrityWorkload", "SAMEPERSON_TASK_TEXT"]

_CELEBRITY_NAMES = (
    "Ada Starlight", "Bo Ricci", "Cleo Vance", "Dev Winters", "Echo Blaze",
    "Fay Monroe", "Gio Sterling", "Hana Frost", "Iris Noble", "Jax Rivera",
    "Kit Aurora", "Lux Hart", "Mia Falcon", "Nico Storm", "Opal Reign",
    "Pax Jett", "Quin Ember", "Rio Sol", "Sky Valen", "Tess Wilde",
    "Uma Crest", "Vik Onyx", "Wren Lark", "Xan Pierce", "Yara Dune", "Zed Colt",
)

#: The Text field of Task 2 in the paper.
SAMEPERSON_TASK_TEXT = (
    "Drag a picture of any <b>Celebrity</b> in the left column to their "
    "matching picture in the <b>Spotted Star</b> column to the right."
)


def _image_from(payload: dict, column: str) -> SyntheticImage:
    value = payload_value(payload, column)
    if value is None:
        value = payload_value(payload, "image")
    if not isinstance(value, SyntheticImage):
        raise WorkloadError("samePerson HIT item does not carry a synthetic image")
    return value


class CelebrityOracle(AnswerOracle):
    """Workers recognise whether two photos show the same person."""

    def pair_matches(self, left: HITItem, right: HITItem) -> bool:
        return _image_from(left.payload, "image").identity == _image_from(
            right.payload, "image"
        ).identity

    def predicate_answer(self, item: HITItem) -> bool:
        left = _image_from(item.payload.get("left", {}), "image")
        right = _image_from(item.payload.get("right", {}), "image")
        return left.identity == right.identity


@dataclass
class CelebrityWorkload:
    """Two image tables with a known match relation.

    Parameters
    ----------
    n_celebrities:
        Rows in the ``celebrities`` table (one photo per distinct celebrity).
    n_spotted:
        Rows in the ``spottedstars`` table.
    match_fraction:
        Fraction of spotted photos that actually show one of the celebrities;
        the rest depict unknown people and should join with nothing.
    feature_noise:
        Noise of the synthetic image embeddings (drives how useful the
        machine-visible features are for pre-filters and the Task Model).
    seed:
        Master seed for the workload.
    """

    n_celebrities: int = 20
    n_spotted: int = 20
    match_fraction: float = 0.7
    feature_noise: float = 0.08
    seed: int = 31
    celebrity_images: list[tuple[str, SyntheticImage]] = field(init=False)
    spotted_images: list[tuple[int, SyntheticImage]] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_celebrities < 1 or self.n_spotted < 1:
            raise WorkloadError("both tables need at least one row")
        if not 0.0 <= self.match_fraction <= 1.0:
            raise WorkloadError("match_fraction must be in [0, 1]")
        rng = random.Random(self.seed)
        generator = ImageGenerator(noise=self.feature_noise, seed=self.seed + 1)
        self.celebrity_images = []
        for index in range(self.n_celebrities):
            name = _CELEBRITY_NAMES[index % len(_CELEBRITY_NAMES)]
            if index >= len(_CELEBRITY_NAMES):
                name = f"{name} {index // len(_CELEBRITY_NAMES) + 1}"
            image = generator.image_of(index, image_id=f"celeb-{index}", caption=name)
            self.celebrity_images.append((name, image))
        self.spotted_images = []
        for index in range(self.n_spotted):
            if rng.random() < self.match_fraction:
                identity = rng.randrange(self.n_celebrities)
            else:
                identity = self.n_celebrities + index  # an unknown person
            image = generator.image_of(
                identity, image_id=f"spot-{index}", caption=f"submitted photo {index}"
            )
            self.spotted_images.append((index, image))

    # -- storage --------------------------------------------------------------------------

    def celebrities_schema(self) -> Schema:
        return Schema.of(("name", DataType.STRING), ("image", DataType.IMAGE))

    def spotted_schema(self) -> Schema:
        return Schema.of(("id", DataType.INTEGER), ("image", DataType.IMAGE))

    def build_tables(self) -> tuple[Table, Table]:
        """Materialise the ``celebrities`` and ``spottedstars`` tables."""
        celebrities = Table("celebrities", self.celebrities_schema())
        celebrities.insert_many(self.celebrity_images)
        spotted = Table("spottedstars", self.spotted_schema())
        spotted.insert_many(self.spotted_images)
        return celebrities, spotted

    def install(self, database: Database) -> tuple[Table, Table]:
        """Create and register both tables in ``database``."""
        celebrities, spotted = self.build_tables()
        database.catalog.register(celebrities, replace=True)
        database.catalog.register(spotted, replace=True)
        return celebrities, spotted

    # -- crowd wiring -----------------------------------------------------------------------

    def oracle(self) -> CelebrityOracle:
        """The oracle simulated workers consult for samePerson HITs."""
        return CelebrityOracle()

    def sameperson_spec(
        self,
        *,
        interface: str = "columns",
        price: float = 0.02,
        assignments: int = 3,
        left_per_hit: int = 3,
        right_per_hit: int = 3,
        batch_size: int = 1,
    ) -> TaskSpec:
        """The Task 2 definition from the paper as a :class:`TaskSpec`.

        ``interface`` chooses the response type: ``"columns"`` gives the
        two-column JoinColumns interface of Figure 3, ``"pairs"`` a plain
        yes/no question per pair.
        """
        if interface == "columns":
            response = JoinColumnsResponse(
                "Celebrity", "Spotted Star", left_per_hit=left_per_hit, right_per_hit=right_per_hit
            )
        elif interface == "pairs":
            response = YesNoResponse()
        else:
            raise WorkloadError(f"unknown samePerson interface {interface!r}")
        return TaskSpec(
            name="samePerson",
            task_type=TaskType.JOIN_PREDICATE,
            text=SAMEPERSON_TASK_TEXT,
            response=response,
            parameters=(Parameter("celebs", "Image[]"), Parameter("spotted", "Image[]")),
            returns=(),
            price=price,
            assignments=assignments,
            batch_size=batch_size,
            feature_extractor=pair_feature_extractor,
        )

    # -- payload / prefilter helpers -------------------------------------------------------------

    @staticmethod
    def left_payload(row: Row) -> dict:
        """Payload for a celebrities row: the image plus a display label."""
        image = row["image"]
        return {"image": image, "label": row["name"]}

    @staticmethod
    def right_payload(row: Row) -> dict:
        """Payload for a spottedstars row."""
        image = row["image"]
        return {"image": image, "label": f"spotted #{row['id']}"}

    @staticmethod
    def feature_prefilter(threshold: float = 0.6):
        """A machine pre-filter: skip pairs whose feature distance exceeds ``threshold``."""

        def prefilter(left: Row, right: Row) -> bool:
            return left["image"].distance(right["image"]) <= threshold

        return prefilter

    # -- evaluation ----------------------------------------------------------------------------------

    def true_matches(self) -> set[tuple[str, int]]:
        """Ground-truth (celebrity name, spotted id) pairs."""
        matches = set()
        for name, celeb_image in self.celebrity_images:
            for spot_id, spot_image in self.spotted_images:
                if celeb_image.identity == spot_image.identity:
                    matches.add((name, spot_id))
        return matches

    def cross_product_size(self) -> int:
        """Size of the naive cross product (the cost the paper warns about)."""
        return self.n_celebrities * self.n_spotted

    def score_results(
        self, rows: list[Row], *, name_column: str = "celebrities.name", id_column: str = "spottedstars.id"
    ) -> dict[str, float]:
        """Precision/recall/F1 of crowd join output against ground truth."""
        truth = self.true_matches()
        reported = {(row[name_column], row[id_column]) for row in rows}
        true_positives = len(reported & truth)
        precision = true_positives / len(reported) if reported else 1.0
        recall = true_positives / len(truth) if truth else 1.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        return {"precision": precision, "recall": recall, "f1": f1, "matches": float(len(reported))}


def pair_feature_extractor(payload: dict) -> list[float] | None:
    """Feature vector for the Task Model: |left - right| per dimension plus distance."""
    left = payload.get("left", {})
    right = payload.get("right", {})
    try:
        left_image = _image_from(left, "image")
        right_image = _image_from(right, "image")
    except WorkloadError:
        return None
    diffs = [abs(a - b) for a, b in zip(left_image.features, right_image.features)]
    return diffs + [left_image.distance(right_image), 1.0]
