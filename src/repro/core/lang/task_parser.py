"""Parser for the TASK definition language (Task 1 / Task 2 in the paper).

.. code-block:: text

    TASK findCEO(String companyName)
    RETURNS (String CEO, String Phone):
        TaskType: Question
        Text: "Find the CEO and the CEO's phone number for the company %s", companyName
        Response: Form(("CEO", String), ("Phone", String))
        Price: 0.02
        Assignments: 3

    TASK samePerson(Image[] celebs, Image[] spotted)
    RETURNS BOOL:
        TaskType: JoinPredicate
        Text: "Drag a picture of any Celebrity ..."
        Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)

``Price``, ``Assignments``, ``BatchSize`` and ``Combiner`` are optional tuning
fields beyond the paper's examples; they map onto the corresponding
:class:`~repro.core.tasks.spec.TaskSpec` attributes.
"""

from __future__ import annotations

from repro.core.lang.lexer import Token, TokenCursor, TokenType
from repro.core.tasks.spec import (
    ComparisonResponse,
    FormResponse,
    JoinColumnsResponse,
    Parameter,
    RatingResponse,
    ResponseSpec,
    ReturnField,
    TaskSpec,
    TaskType,
    YesNoResponse,
)
from repro.errors import ParseError

__all__ = ["parse_task", "parse_tasks"]


def parse_task(text: str) -> TaskSpec:
    """Parse a single TASK definition."""
    specs = parse_tasks(text)
    if len(specs) != 1:
        raise ParseError(f"expected exactly one TASK definition, found {len(specs)}")
    return specs[0]


def parse_tasks(text: str) -> list[TaskSpec]:
    """Parse one or more TASK definitions from ``text``."""
    return _TaskParser(text).parse_all()


class _TaskParser(TokenCursor):
    # -- token helpers ------------------------------------------------------------

    def _expect_ident(self, value: str | None = None) -> Token:
        token = self._peek()
        if token.type is not TokenType.IDENT or (
            value is not None and token.value.upper() != value.upper()
        ):
            expected = value or "an identifier"
            raise self._error(f"expected {expected}, found {token.value!r}")
        return self._advance()

    # -- grammar ----------------------------------------------------------------------

    def parse_all(self) -> list[TaskSpec]:
        specs = []
        while self._peek().type is not TokenType.EOF:
            specs.append(self._task())
        if not specs:
            raise self._error("no TASK definition found")
        return specs

    def _task(self) -> TaskSpec:
        self._expect_ident("TASK")
        name = self._expect_ident().value
        parameters = self._parameters()
        self._expect_ident("RETURNS")
        returns = self._returns()
        self._expect_symbol(":")
        fields = self._fields()

        task_type_text = fields.get("tasktype")
        if task_type_text is None:
            raise self._error(f"TASK {name}: missing TaskType field")
        task_type = TaskType.from_string(task_type_text)
        text_value, _text_args = fields.get("text", ("", ()))
        response = fields.get("response")
        if response is None:
            response = self._default_response(task_type)
        spec_kwargs = {}
        if "price" in fields:
            spec_kwargs["price"] = float(fields["price"])
        if "assignments" in fields:
            spec_kwargs["assignments"] = int(fields["assignments"])
        if "batchsize" in fields:
            spec_kwargs["batch_size"] = int(fields["batchsize"])
        if "combiner" in fields:
            spec_kwargs["combiner"] = fields["combiner"]
        return TaskSpec(
            name=name,
            task_type=task_type,
            text=text_value,
            response=response,
            parameters=tuple(parameters),
            returns=tuple(returns),
            **spec_kwargs,
        )

    @staticmethod
    def _default_response(task_type: TaskType) -> ResponseSpec:
        if task_type in (TaskType.FILTER, TaskType.JOIN_PREDICATE):
            return YesNoResponse()
        if task_type is TaskType.RANK:
            return ComparisonResponse()
        if task_type is TaskType.RATING:
            return RatingResponse()
        raise ParseError(f"TaskType {task_type.value} requires an explicit Response field")

    def _parameters(self) -> list[Parameter]:
        self._expect_symbol("(")
        parameters: list[Parameter] = []
        if not self._peek().matches(TokenType.SYMBOL, ")"):
            parameters.append(self._parameter())
            while self._accept_symbol(","):
                parameters.append(self._parameter())
        self._expect_symbol(")")
        return parameters

    def _parameter(self) -> Parameter:
        type_name = self._expect_ident().value
        if self._accept_symbol("["):
            self._expect_symbol("]")
            type_name += "[]"
        name = self._expect_ident().value
        return Parameter(name=name, type_name=type_name)

    def _returns(self) -> list[ReturnField]:
        token = self._peek()
        if token.matches(TokenType.IDENT, "BOOL"):
            self._advance()
            return []
        self._expect_symbol("(")
        fields = [self._return_field()]
        while self._accept_symbol(","):
            fields.append(self._return_field())
        self._expect_symbol(")")
        return fields

    def _return_field(self) -> ReturnField:
        type_name = self._expect_ident().value
        name = self._expect_ident().value
        return ReturnField(name=name, type_name=type_name)

    # -- TASK body fields -----------------------------------------------------------------

    def _fields(self) -> dict:
        fields: dict = {}
        while self._peek().type is TokenType.IDENT and self._peek(1).matches(TokenType.SYMBOL, ":"):
            key_token = self._advance()
            key = key_token.value.lower()
            if key == "task":
                # The start of the next TASK definition, not a field.
                self.position -= 1
                break
            self._expect_symbol(":")
            if key == "tasktype":
                fields[key] = self._expect_ident().value
            elif key == "text":
                fields[key] = self._text_field()
            elif key == "response":
                fields[key] = self._response_field()
            elif key in ("price", "assignments", "batchsize"):
                fields[key] = self._number()
            elif key == "combiner":
                fields[key] = self._expect_ident().value
            else:
                raise self._error(f"unknown TASK field {key_token.value!r}", key_token)
        return fields

    def _number(self) -> str:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise self._error(f"expected a number, found {token.value!r}")
        self._advance()
        return token.value

    def _text_field(self) -> tuple[str, tuple[str, ...]]:
        parts: list[str] = []
        token = self._peek()
        if token.type is not TokenType.STRING:
            raise self._error("Text field must start with a string literal")
        while self._peek().type is TokenType.STRING:
            parts.append(self._advance().value)
        args: list[str] = []
        while self._accept_symbol(","):
            args.append(self._expect_ident().value)
        return "".join(parts), tuple(args)

    def _response_field(self) -> ResponseSpec:
        kind = self._expect_ident().value.lower()
        if kind == "form":
            return self._form_response()
        if kind == "yesno":
            return YesNoResponse()
        if kind == "joincolumns":
            return self._join_columns_response()
        if kind == "comparison":
            return ComparisonResponse()
        if kind == "rating":
            return self._rating_response()
        raise self._error(f"unknown Response type {kind!r}")

    def _form_response(self) -> FormResponse:
        self._expect_symbol("(")
        fields: list[tuple[str, str]] = []
        fields.append(self._form_field())
        while self._accept_symbol(","):
            fields.append(self._form_field())
        self._expect_symbol(")")
        return FormResponse(tuple(fields))

    def _form_field(self) -> tuple[str, str]:
        self._expect_symbol("(")
        name_token = self._peek()
        if name_token.type is TokenType.STRING:
            self._advance()
            name = name_token.value
        else:
            name = self._expect_ident().value
        self._expect_symbol(",")
        type_name = self._expect_ident().value
        self._expect_symbol(")")
        return name, type_name

    def _join_columns_response(self) -> JoinColumnsResponse:
        self._expect_symbol("(")
        left_label = self._label()
        self._expect_symbol(",")
        self._expect_ident()  # the left table-valued argument name
        self._expect_symbol(",")
        right_label = self._label()
        self._expect_symbol(",")
        self._expect_ident()  # the right table-valued argument name
        left_per_hit = 3
        right_per_hit = 3
        if self._accept_symbol(","):
            left_per_hit = int(self._number())
            self._expect_symbol(",")
            right_per_hit = int(self._number())
        self._expect_symbol(")")
        return JoinColumnsResponse(
            left_label, right_label, left_per_hit=left_per_hit, right_per_hit=right_per_hit
        )

    def _label(self) -> str:
        token = self._peek()
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        return self._expect_ident().value

    def _rating_response(self) -> RatingResponse:
        if self._accept_symbol("("):
            low = int(self._number())
            self._expect_symbol(",")
            high = int(self._number())
            self._expect_symbol(")")
            return RatingResponse((low, high))
        return RatingResponse()
