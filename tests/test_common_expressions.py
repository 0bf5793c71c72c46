"""Tests for the shared expression AST and its SQL NULL semantics."""

from __future__ import annotations

import pytest

from repro.common.errors import ExecutionError
from repro.common.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    columns_satisfiable_by,
    conjunction,
    evaluate_predicate,
    split_conjuncts,
)
from repro.common.schema import Row, Schema


SCHEMA = Schema([("age", "integer"), ("race", "text"), ("stay", "float")])


def row(age, race, stay):
    return Row(SCHEMA, (age, race, stay))


class TestBasicEvaluation:
    def test_literal_and_column(self):
        r = row(64, "white", 3.5)
        assert Literal(5).evaluate(r) == 5
        assert ColumnRef("race").evaluate(r) == "white"

    def test_arithmetic(self):
        r = row(64, "white", 3.5)
        expr = BinaryOp("+", ColumnRef("age"), Literal(1))
        assert expr.evaluate(r) == 65
        assert BinaryOp("*", ColumnRef("stay"), Literal(2)).evaluate(r) == 7.0
        assert BinaryOp("%", ColumnRef("age"), Literal(10)).evaluate(r) == 4

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError):
            BinaryOp("/", Literal(1), Literal(0)).evaluate(row(1, "x", 1.0))

    def test_comparisons(self):
        r = row(64, "white", 3.5)
        assert BinaryOp(">", ColumnRef("age"), Literal(60)).evaluate(r) is True
        assert BinaryOp("=", ColumnRef("race"), Literal("white")).evaluate(r) is True
        assert BinaryOp("!=", ColumnRef("race"), Literal("white")).evaluate(r) is False

    def test_like(self):
        r = row(64, "hispanic", 3.5)
        assert BinaryOp("like", ColumnRef("race"), Literal("his%")).evaluate(r) is True
        assert BinaryOp("like", ColumnRef("race"), Literal("h_spanic")).evaluate(r) is True
        assert BinaryOp("like", ColumnRef("race"), Literal("white%")).evaluate(r) is False

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExecutionError):
            BinaryOp("<=>", Literal(1), Literal(2))


class TestNullSemantics:
    def test_null_propagates_through_arithmetic_and_comparison(self):
        r = row(None, "white", 3.5)
        assert BinaryOp("+", ColumnRef("age"), Literal(1)).evaluate(r) is None
        assert BinaryOp(">", ColumnRef("age"), Literal(10)).evaluate(r) is None

    def test_three_valued_and_or(self):
        r = row(None, "white", 3.5)
        null_cmp = BinaryOp(">", ColumnRef("age"), Literal(10))
        true_cmp = BinaryOp("=", ColumnRef("race"), Literal("white"))
        false_cmp = BinaryOp("=", ColumnRef("race"), Literal("black"))
        assert BinaryOp("and", null_cmp, false_cmp).evaluate(r) is False
        assert BinaryOp("and", null_cmp, true_cmp).evaluate(r) is None
        assert BinaryOp("or", null_cmp, true_cmp).evaluate(r) is True
        assert BinaryOp("or", null_cmp, false_cmp).evaluate(r) is None

    def test_is_null(self):
        r = row(None, "white", 3.5)
        assert IsNull(ColumnRef("age")).evaluate(r) is True
        assert IsNull(ColumnRef("age"), negated=True).evaluate(r) is False
        assert IsNull(ColumnRef("race")).evaluate(r) is False

    def test_evaluate_predicate_treats_null_as_false(self):
        r = row(None, "white", 3.5)
        assert evaluate_predicate(BinaryOp(">", ColumnRef("age"), Literal(10)), r) is False
        assert evaluate_predicate(None, r) is True


class TestOtherNodes:
    def test_unary(self):
        r = row(64, "white", 3.5)
        assert UnaryOp("not", BinaryOp(">", ColumnRef("age"), Literal(60))).evaluate(r) is False
        assert UnaryOp("-", ColumnRef("stay")).evaluate(r) == -3.5
        assert UnaryOp("not", IsNull(ColumnRef("age"))).evaluate(r) is True

    def test_in_list(self):
        r = row(64, "white", 3.5)
        assert InList(ColumnRef("race"), ("white", "black")).evaluate(r) is True
        assert InList(ColumnRef("race"), ("asian",), negated=True).evaluate(r) is True
        assert InList(ColumnRef("age"), (1, 2)).evaluate(row(None, "x", 1.0)) is None

    def test_in_list_holding_a_null_is_three_valued(self):
        """A value absent from a list that holds a NULL might equal it: the
        answer is NULL under IN and NOT IN alike (it was False / True)."""
        r = row(64, "white", 3.5)
        for negated, found in ((False, True), (True, False)):
            stay = InList(ColumnRef("stay"), (1.5, None), negated=negated)
            race = InList(ColumnRef("race"), ("white", None), negated=negated)
            assert stay.evaluate(r) is None
            assert stay.compile(SCHEMA)(r.values) is None
            assert race.evaluate(r) is found
            assert race.compile(SCHEMA)(r.values) is found
        assert UnaryOp("not", InList(ColumnRef("stay"), (1.5, None))).evaluate(r) is None

    def test_case_when(self):
        expr = CaseWhen(
            branches=(
                (BinaryOp(">=", ColumnRef("age"), Literal(65)), Literal("senior")),
                (BinaryOp(">=", ColumnRef("age"), Literal(18)), Literal("adult")),
            ),
            default=Literal("minor"),
        )
        assert expr.evaluate(row(70, "x", 1.0)) == "senior"
        assert expr.evaluate(row(30, "x", 1.0)) == "adult"
        assert expr.evaluate(row(10, "x", 1.0)) == "minor"

    def test_functions(self):
        r = row(64, "white", 2.25)
        assert FunctionCall("sqrt", (ColumnRef("stay"),)).evaluate(r) == 1.5
        assert FunctionCall("upper", (ColumnRef("race"),)).evaluate(r) == "WHITE"
        assert FunctionCall("coalesce", (ColumnRef("age"), Literal(0))).evaluate(r) == 64
        assert FunctionCall("coalesce", (ColumnRef("age"), Literal(0))).evaluate(row(None, "x", 1.0)) == 0
        with pytest.raises(ExecutionError):
            FunctionCall("no_such_fn", ()).evaluate(r)


class TestPredicateHelpers:
    def test_conjunction_and_split_are_inverse(self):
        parts = [
            BinaryOp(">", ColumnRef("age"), Literal(10)),
            BinaryOp("<", ColumnRef("stay"), Literal(5)),
            IsNull(ColumnRef("race"), negated=True),
        ]
        joined = conjunction(parts)
        assert split_conjuncts(joined) == parts
        assert conjunction([]) is None
        assert split_conjuncts(None) == []

    def test_referenced_columns(self):
        expr = BinaryOp("and",
                        BinaryOp(">", ColumnRef("age"), Literal(10)),
                        BinaryOp("=", ColumnRef("race"), Literal("white")))
        assert expr.referenced_columns() == {"age", "race"}

    def test_columns_satisfiable_by(self):
        expr = BinaryOp(">", ColumnRef("age"), Literal(10))
        assert columns_satisfiable_by(expr, SCHEMA) is True
        assert columns_satisfiable_by(BinaryOp(">", ColumnRef("zzz"), Literal(1)), SCHEMA) is False

    def test_to_sql_rendering(self):
        expr = BinaryOp("and",
                        BinaryOp(">=", ColumnRef("age"), Literal(65)),
                        BinaryOp("=", ColumnRef("race"), Literal("o'brien")))
        text = expr.to_sql()
        assert "age" in text and ">=" in text and "''" in text
