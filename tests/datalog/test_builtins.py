"""Tests for arithmetic and comparisons, including the total order."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datalog.atoms import Comparison
from repro.datalog.atoms import COMPARISON_OPS
from repro.datalog.builtins import (
    COMPARISON_CHECKS,
    NATIVE_COMPARISONS,
    compare_values,
    eval_comparison,
    eval_expr,
    order_key,
)
from repro.datalog.terms import Const, Struct, Var
from repro.errors import EvaluationError


class TestEvalExpr:
    def test_constants_and_vars(self):
        assert eval_expr(Const(3), {}) == 3
        assert eval_expr(Var("X"), {"X": 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(EvaluationError):
            eval_expr(Var("X"), {})

    @pytest.mark.parametrize(
        "functor,args,expected",
        [
            ("+", (2, 3), 5),
            ("-", (2, 3), -1),
            ("*", (2, 3), 6),
            ("/", (6, 4), 1.5),
            ("//", (7, 2), 3),
            ("mod", (7, 2), 1),
            ("max", (2, 9), 9),
            ("min", (2, 9), 2),
        ],
    )
    def test_binary_operators(self, functor, args, expected):
        term = Struct(functor, (Const(args[0]), Const(args[1])))
        assert eval_expr(term, {}) == expected

    def test_nested_expression(self):
        term = Struct("+", (Var("A"), Struct("*", (Var("B"), Const(2)))))
        assert eval_expr(term, {"A": 1, "B": 3}) == 7

    def test_non_arithmetic_functor_grounds(self):
        term = Struct("t", (Const("a"), Const("b")))
        assert eval_expr(term, {}) == ("t", "a", "b")

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            eval_expr(Struct("/", (Const(1), Const(0))), {})

    def test_type_error_raises(self):
        with pytest.raises(EvaluationError):
            eval_expr(Struct("+", (Const("a"), Const(1))), {})


class TestTotalOrder:
    def test_kind_ordering(self):
        # None < numbers < strings < tuples
        assert compare_values(None, 0) == -1
        assert compare_values(3, "a") == -1
        assert compare_values("z", ("t",)) == -1

    def test_within_kind_native_order(self):
        assert compare_values(2, 10) == -1
        assert compare_values("abc", "abd") == -1
        assert compare_values((1, 2), (1, 3)) == -1

    def test_mixed_tuples_compare(self):
        # Tuples containing different kinds must still compare.
        assert compare_values((1, "a"), ("b", 0)) in (-1, 1)

    @given(st.integers(), st.integers())
    def test_agrees_with_int_order(self, a, b):
        expected = -1 if a < b else (0 if a == b else 1)
        assert compare_values(a, b) == expected

    value_strategy = st.recursive(
        st.one_of(st.integers(-50, 50), st.text(max_size=3), st.none()),
        lambda children: st.tuples(children, children),
        max_leaves=5,
    )

    @given(value_strategy, value_strategy, value_strategy)
    def test_order_is_transitive(self, a, b, c):
        values = sorted([a, b, c], key=order_key)
        assert compare_values(values[0], values[1]) <= 0
        assert compare_values(values[1], values[2]) <= 0
        assert compare_values(values[0], values[2]) <= 0

    @given(value_strategy, value_strategy)
    def test_order_is_antisymmetric(self, a, b):
        assert compare_values(a, b) == -compare_values(b, a)

    @given(
        st.one_of(
            st.tuples(st.integers(), st.integers()),
            st.tuples(st.text(max_size=3), st.text(max_size=3)),
        )
    )
    def test_native_comparisons_agree_on_ints_and_strings(self, pair):
        # Compiled plans compare two ints or two strs natively; the total
        # order must give the same answer there.
        a, b = pair
        for op in COMPARISON_OPS:
            expected = COMPARISON_CHECKS[op](compare_values(a, b))
            assert NATIVE_COMPARISONS[op](a, b) == expected, op


class TestEvalComparison:
    def test_plain_comparison(self):
        comp = Comparison("<", Var("X"), Var("Y"))
        assert eval_comparison(comp, {"X": 1, "Y": 2}) == {"X": 1, "Y": 2}
        assert eval_comparison(comp, {"X": 2, "Y": 1}) is None

    def test_assignment_binds_left(self):
        comp = Comparison("=", Var("I"), Struct("+", (Var("J"), Const(1))))
        assert eval_comparison(comp, {"J": 4}) == {"J": 4, "I": 5}

    def test_assignment_binds_right(self):
        comp = Comparison("=", Struct("+", (Var("J"), Const(1))), Var("I"))
        out = eval_comparison(comp, {"J": 4})
        assert out == {"J": 4, "I": 5}

    def test_assignment_checks_when_both_bound(self):
        comp = Comparison("=", Var("I"), Var("J"))
        assert eval_comparison(comp, {"I": 1, "J": 1}) is not None
        assert eval_comparison(comp, {"I": 1, "J": 2}) is None

    def test_assignment_matches_structure(self):
        comp = Comparison("=", Struct("", (Var("A"), Var("B"))), Var("P"))
        out = eval_comparison(comp, {"P": (1, 2)})
        assert out == {"P": (1, 2), "A": 1, "B": 2}

    def test_both_unbound_raises(self):
        comp = Comparison("=", Var("X"), Var("Y"))
        with pytest.raises(EvaluationError):
            eval_comparison(comp, {})

    def test_inequality_on_tuples(self):
        comp = Comparison(
            "!=",
            Struct("", (Var("A"), Var("B"))),
            Struct("", (Var("C"), Var("D"))),
        )
        assert eval_comparison(comp, {"A": 1, "B": 2, "C": 1, "D": 2}) is None
        assert eval_comparison(comp, {"A": 1, "B": 2, "C": 1, "D": 3}) is not None

    def test_unknown_operator_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Comparison("~", Var("X"), Var("Y"))
