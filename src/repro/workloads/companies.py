"""The companies workload (Query 1 of the paper).

"Query 1 finds the CEO's name and phone number for a list of companies."
This module generates a synthetic ``companies`` table together with the
ground-truth directory of CEOs and phone numbers that simulated workers
consult, the ``findCEO`` TASK definition, and scoring helpers used by tests
and benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.tasks.spec import FormResponse, Parameter, ReturnField, TaskSpec, TaskType
from repro.crowd.hit import FormField, HITItem
from repro.crowd.oracle import AnswerOracle
from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.workloads.oracles import payload_value

__all__ = ["CompanyRecord", "CompaniesOracle", "CompaniesWorkload", "FINDCEO_TASK_TEXT"]

_INDUSTRIES = (
    "software",
    "manufacturing",
    "retail",
    "biotech",
    "finance",
    "energy",
    "logistics",
    "media",
)

_FIRST_NAMES = (
    "Alex", "Blair", "Casey", "Dana", "Evan", "Frankie", "Gray", "Harper",
    "Indra", "Jordan", "Kai", "Lee", "Morgan", "Noor", "Oak", "Parker",
    "Quinn", "Riley", "Sasha", "Tatum",
)

_LAST_NAMES = (
    "Adler", "Bennett", "Chen", "Diaz", "Ellis", "Fischer", "Gupta", "Hale",
    "Ivanov", "Jensen", "Khan", "Larsen", "Moreau", "Nakamura", "Okafor",
    "Price", "Quispe", "Rossi", "Singh", "Tanaka",
)

#: The Text field of Task 1 in the paper.
FINDCEO_TASK_TEXT = (
    "Find the CEO and the CEO's phone number for the company %s"
)


@dataclass(frozen=True)
class CompanyRecord:
    """Ground truth for one company."""

    name: str
    industry: str
    employees: int
    ceo: str
    phone: str


class CompaniesOracle(AnswerOracle):
    """Simulated-worker knowledge of the company directory."""

    def __init__(self, directory: dict[str, CompanyRecord], *, seed: int = 23):
        self._directory = directory
        self._rng = random.Random(seed)

    def _record(self, item: HITItem) -> CompanyRecord:
        company = payload_value(item.payload, "companyName") or payload_value(
            item.payload, "company"
        )
        if company is None or company not in self._directory:
            raise WorkloadError(f"worker shown unknown company {company!r}")
        return self._directory[company]

    def form_answer(self, item: HITItem, form_field: FormField) -> str:
        record = self._record(item)
        if form_field.name.lower() == "ceo":
            return record.ceo
        if form_field.name.lower() == "phone":
            return record.phone
        raise WorkloadError(f"unexpected findCEO form field {form_field.name!r}")

    def plausible_wrong_form_answer(self, item: HITItem, form_field: FormField) -> str:
        # A careless worker confuses the company with another one in the
        # directory (or just types a placeholder).
        other = self._rng.choice(list(self._directory.values()))
        if form_field.name.lower() == "ceo":
            return other.ceo
        if form_field.name.lower() == "phone":
            return other.phone
        return "unknown"


@dataclass
class CompaniesWorkload:
    """Synthetic companies table plus ground truth, TASK spec and scoring.

    Parameters
    ----------
    n_companies:
        Number of companies to generate.
    seed:
        Seed controlling names, sizes and ground-truth CEOs.
    """

    n_companies: int = 50
    seed: int = 17
    records: list[CompanyRecord] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_companies < 1:
            raise WorkloadError("need at least one company")
        rng = random.Random(self.seed)
        self.records = []
        for index in range(self.n_companies):
            first = rng.choice(_FIRST_NAMES)
            last = rng.choice(_LAST_NAMES)
            name = f"{rng.choice(_LAST_NAMES)} {rng.choice(('Corp', 'Inc', 'Labs', 'Group'))} {index}"
            phone = f"617-555-{rng.randint(0, 9999):04d}"
            self.records.append(
                CompanyRecord(
                    name=name,
                    industry=rng.choice(_INDUSTRIES),
                    employees=rng.randint(5, 20_000),
                    ceo=f"{first} {last}",
                    phone=phone,
                )
            )

    # -- storage ----------------------------------------------------------------------

    def schema(self) -> Schema:
        return Schema.of(
            ("companyName", DataType.STRING),
            ("industry", DataType.STRING),
            ("employees", DataType.INTEGER),
        )

    def build_table(self, name: str = "companies") -> Table:
        """Materialise the companies base table."""
        table = Table(name, self.schema())
        table.insert_many(
            [(record.name, record.industry, record.employees) for record in self.records]
        )
        return table

    def install(self, database: Database, name: str = "companies") -> Table:
        """Create and register the companies table in ``database``."""
        table = self.build_table(name)
        database.catalog.register(table, replace=True)
        return table

    # -- crowd wiring -----------------------------------------------------------------------

    def directory(self) -> dict[str, CompanyRecord]:
        """Ground-truth directory keyed by company name."""
        return {record.name: record for record in self.records}

    def oracle(self) -> CompaniesOracle:
        """The oracle simulated workers consult for findCEO HITs."""
        return CompaniesOracle(self.directory(), seed=self.seed + 1)

    def findceo_spec(
        self,
        *,
        price: float = 0.02,
        assignments: int = 3,
        batch_size: int = 1,
    ) -> TaskSpec:
        """The Task 1 definition from the paper as a :class:`TaskSpec`."""
        return TaskSpec(
            name="findCEO",
            task_type=TaskType.QUESTION,
            text=FINDCEO_TASK_TEXT,
            response=FormResponse((("CEO", "String"), ("Phone", "String"))),
            parameters=(Parameter("companyName", "String"),),
            returns=(ReturnField("CEO", "String"), ReturnField("Phone", "String")),
            price=price,
            assignments=assignments,
            batch_size=batch_size,
        )

    # -- evaluation ------------------------------------------------------------------------------

    def score_results(self, rows: list[Row], *, company_column: str, ceo_column: str) -> float:
        """Fraction of result rows whose CEO matches the ground truth."""
        if not rows:
            return 0.0
        directory = self.directory()
        correct = 0
        for row in rows:
            record = directory.get(row[company_column])
            if record is not None and row[ceo_column] == record.ceo:
                correct += 1
        return correct / len(rows)
