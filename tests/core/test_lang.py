"""Unit tests for the lexer, SQL parser and TASK-definition parser."""

import pytest

from repro.core.lang import parse_select, parse_task, parse_tasks, tokenize
from repro.core.lang.lexer import TokenType
from repro.core.tasks.spec import (
    FormResponse,
    JoinColumnsResponse,
    RatingResponse,
    TaskType,
    YesNoResponse,
)
from repro.errors import ParseError
from repro.storage.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    FieldAccess,
    FunctionCall,
    Literal,
    Not,
)


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a.b, 'text' 3.5 >= -- comment\n)")
        values = [(t.type, t.value) for t in tokens[:-1]]
        assert (TokenType.IDENT, "SELECT") in values
        assert (TokenType.STRING, "text") in values
        assert (TokenType.NUMBER, "3.5") in values
        assert (TokenType.OPERATOR, ">=") in values
        assert values[-1] == (TokenType.SYMBOL, ")")
        assert tokens[-1].type is TokenType.EOF

    def test_positions_are_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("a @ b")


class TestSQLParser:
    def test_query_1_from_the_paper(self):
        statement = parse_select(
            "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
            "FROM companies"
        )
        assert [t.name for t in statement.from_tables] == ["companies"]
        assert isinstance(statement.select_items[0].expression, ColumnRef)
        second = statement.select_items[1].expression
        assert isinstance(second, FieldAccess) and second.field == "CEO"
        assert isinstance(second.base, FunctionCall) and second.base.name == "findCEO"

    def test_query_2_from_the_paper(self):
        statement = parse_select(
            "SELECT celebrities.name, spottedstars.id "
            "FROM celebrities, spottedstars "
            "WHERE samePerson(celebrities.image, spottedstars.image)"
        )
        assert len(statement.from_tables) == 2
        where = statement.where
        assert isinstance(where, FunctionCall) and where.name == "samePerson"
        assert [str(a) for a in where.args] == ["celebrities.image", "spottedstars.image"]

    def test_aliases_group_order_limit_budget(self):
        statement = parse_select(
            "SELECT category, count(name) AS n FROM products p "
            "WHERE price < 100 AND NOT isTargetColor(name) "
            "GROUP BY category ORDER BY n DESC LIMIT 5 BUDGET 2.50"
        )
        assert statement.from_tables[0].alias == "p"
        assert statement.group_by == ("category",)
        assert statement.limit == 5
        assert statement.budget == pytest.approx(2.5)
        assert statement.order_by[0].ascending is False
        where = statement.where
        assert isinstance(where, BooleanOp) and where.op == "and"
        assert isinstance(where.right, Not)

    def test_order_by_without_a_direction_sorts_descending(self):
        statement = parse_select("SELECT name FROM products ORDER BY price, name ASC")
        assert [item.ascending for item in statement.order_by] == [False, True]

    def test_expression_precedence_and_literals(self):
        statement = parse_select("SELECT a FROM t WHERE a + 2 * 3 = 7 OR b = TRUE AND c = NULL")
        where = statement.where
        assert isinstance(where, BooleanOp) and where.op == "or"
        left = where.left
        assert isinstance(left, Comparison)
        assert isinstance(where.right, BooleanOp) and where.right.op == "and"

    def test_string_and_negative_literals(self):
        statement = parse_select("SELECT a FROM t WHERE name = 'Acme' AND delta = -3")
        conjuncts = statement.where
        assert isinstance(conjuncts, BooleanOp)
        assert isinstance(conjuncts.left.right, Literal)
        assert conjuncts.left.right.value == "Acme"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_select("SELECT FROM t")
        with pytest.raises(ParseError):
            parse_select("SELECT a")
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t WHERE")
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t extra garbage here ,")

    def test_trailing_semicolon_ok(self):
        assert parse_select("SELECT a FROM t;").limit is None


TASK1 = """
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
    TaskType: Question
    Text: "Find the CEO and the CEO's phone number for the company %s", companyName
    Response: Form(("CEO", String), ("Phone", String))
    Price: 0.02
    Assignments: 3
    BatchSize: 2
    Combiner: FieldwiseMajority
"""

TASK2 = """
TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS BOOL:
    TaskType: JoinPredicate
    Text: "Drag a picture of any Celebrity in the left column to their matching picture"
    Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted, 4, 4)
"""


class TestTaskParser:
    def test_task_1_from_the_paper(self):
        spec = parse_task(TASK1)
        assert spec.name == "findCEO"
        assert spec.task_type is TaskType.QUESTION
        assert isinstance(spec.response, FormResponse)
        assert [name for name, _ in spec.response.fields] == ["CEO", "Phone"]
        assert spec.parameters[0].name == "companyName"
        assert [field.name for field in spec.returns] == ["CEO", "Phone"]
        assert spec.price == pytest.approx(0.02)
        assert spec.assignments == 3
        assert spec.batch_size == 2
        assert spec.combiner == "FieldwiseMajority"
        assert spec.render_text("Acme").endswith("company Acme")

    def test_task_2_from_the_paper(self):
        spec = parse_task(TASK2)
        assert spec.task_type is TaskType.JOIN_PREDICATE
        assert spec.returns_bool
        response = spec.response
        assert isinstance(response, JoinColumnsResponse)
        assert response.left_label == "Celebrity"
        assert response.left_per_hit == 4
        assert [p.type_name for p in spec.parameters] == ["Image[]", "Image[]"]

    def test_multiple_tasks_in_one_text(self):
        specs = parse_tasks(TASK1 + "\n" + TASK2)
        assert [s.name for s in specs] == ["findCEO", "samePerson"]

    def test_default_responses_for_filter_and_rank(self):
        spec = parse_task(
            "TASK isRed(String name) RETURNS BOOL:\n"
            "    TaskType: Filter\n"
            "    Text: \"Is %s red?\", name\n"
        )
        assert isinstance(spec.response, YesNoResponse)
        rating = parse_task(
            "TASK rateIt(String name) RETURNS BOOL:\n"
            "    TaskType: Rating\n"
            "    Text: \"Rate it\"\n"
            "    Response: Rating(1, 5)\n"
        )
        assert isinstance(rating.response, RatingResponse)
        assert rating.response.scale == (1, 5)

    def test_missing_tasktype_is_an_error(self):
        with pytest.raises(ParseError):
            parse_task("TASK broken(String a) RETURNS BOOL:\n    Text: \"hi\"\n")

    def test_question_without_response_is_an_error(self):
        with pytest.raises(ParseError):
            parse_task(
                "TASK q(String a) RETURNS (String B):\n    TaskType: Question\n    Text: \"x %s\", a\n"
            )

    def test_unknown_field_is_an_error(self):
        with pytest.raises(ParseError):
            parse_task(TASK1 + "    Wibble: 3\n")

    def test_parse_task_rejects_multiple_definitions(self):
        with pytest.raises(ParseError):
            parse_task(TASK1 + TASK2)
