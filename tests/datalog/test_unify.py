"""Tests for matching and grounding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.terms import Const, Struct, Var
from repro.datalog.unify import (
    compile_ground,
    compile_match,
    ground_term,
    is_bound,
    match_args,
    match_term,
    substitute_term,
)
from repro.errors import EvaluationError


class TestMatchTerm:
    def test_unbound_var_binds(self):
        assert match_term(Var("X"), 5, {}) == {"X": 5}

    def test_bound_var_must_agree(self):
        assert match_term(Var("X"), 5, {"X": 5}) == {"X": 5}
        assert match_term(Var("X"), 6, {"X": 5}) is None

    def test_input_substitution_not_mutated(self):
        subst = {}
        match_term(Var("X"), 1, subst)
        assert subst == {}

    def test_wildcard_matches_without_binding(self):
        assert match_term(Var("_anon"), 99, {}) == {}

    def test_const_matches_equal_value(self):
        assert match_term(Const("a"), "a", {}) == {}
        assert match_term(Const("a"), "b", {}) is None

    def test_functor_struct_matches_tagged_tuple(self):
        term = Struct("t", (Var("X"), Var("Y")))
        assert match_term(term, ("t", 1, 2), {}) == {"X": 1, "Y": 2}
        assert match_term(term, ("u", 1, 2), {}) is None
        assert match_term(term, ("t", 1), {}) is None
        assert match_term(term, 42, {}) is None

    def test_tuple_struct_matches_plain_tuple(self):
        term = Struct("", (Var("X"), Const(2)))
        assert match_term(term, (7, 2), {}) == {"X": 7}
        assert match_term(term, (7, 3), {}) is None

    def test_nested_struct_matching(self):
        term = Struct("t", (Struct("t", (Var("A"), Var("B"))), Var("C")))
        value = ("t", ("t", "x", "y"), "z")
        assert match_term(term, value, {}) == {"A": "x", "B": "y", "C": "z"}

    def test_repeated_variable_enforces_equality(self):
        term = Struct("", (Var("X"), Var("X")))
        assert match_term(term, (1, 1), {}) == {"X": 1}
        assert match_term(term, (1, 2), {}) is None

    def test_match_args(self):
        args = (Var("X"), Const("b"))
        assert match_args(args, ("a", "b"), {}) == {"X": "a"}
        assert match_args(args, ("a", "c"), {}) is None


class TestGrounding:
    def test_ground_const_and_var(self):
        assert ground_term(Const(3), {}) == 3
        assert ground_term(Var("X"), {"X": "v"}) == "v"

    def test_unbound_raises(self):
        with pytest.raises(EvaluationError):
            ground_term(Var("X"), {})

    def test_ground_structs(self):
        term = Struct("t", (Var("X"), Const(1)))
        assert ground_term(term, {"X": "a"}) == ("t", "a", 1)
        tup = Struct("", (Var("X"), Const(1)))
        assert ground_term(tup, {"X": "a"}) == ("a", 1)

    def test_is_bound_ignores_nothing(self):
        assert is_bound(Var("X"), {"X": 1})
        assert not is_bound(Var("X"), {})
        assert not is_bound(Var("_w"), {})  # wildcards never ground

    def test_substitute_partial(self):
        term = Struct("t", (Var("X"), Var("Y")))
        out = substitute_term(term, {"X": 1})
        assert out == Struct("t", (Const(1), Var("Y")))


# -- compiled matching and grounding against the reference ---------------------

#: Equal-comparing values of different types (``1 == 1.0 == True``), so a
#: compiled match that bound the wrong occurrence shows in the ``repr``.
_LEAVES = st.sampled_from([1, 1.0, True, 0, "a", "b", "t"])
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.tuples(st.just("t"), inner, inner),
    max_leaves=6,
)
_TERMS = st.recursive(
    st.sampled_from(["X", "Y", "Z", "_", "_w"]).map(Var)
    | _LEAVES.map(Const)
    | st.just(Const((1, "a"))),
    lambda inner: st.builds(
        Struct, st.sampled_from(["", "t", "u"]), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=6,
)
_ARGS = st.lists(_TERMS, max_size=4).map(tuple)


def _ground_value(term, draw, env):
    """A value *term* matches: fresh draws for wildcards, one draw per
    named variable."""
    if isinstance(term, Var):
        if term.name.startswith("_"):
            return draw(_VALUES)
        if term.name not in env:
            env[term.name] = draw(_VALUES)
        return env[term.name]
    if isinstance(term, Const):
        return term.value
    parts = tuple(_ground_value(arg, draw, env) for arg in term.args)
    return parts if term.is_tuple else (term.functor, *parts)


def _twin(value, draw):
    """*value* or an equal value of another type."""
    if value == 1 and not isinstance(value, tuple):
        return draw(st.sampled_from([1, 1.0, True]))
    return value


def _outcome(thunk):
    try:
        return repr(thunk())
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


class TestCompiledAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(args=_ARGS, data=st.data())
    def test_compile_match_equals_match_args(self, args, data):
        matcher = compile_match(args)
        matching = tuple(_ground_value(arg, data.draw, {}) for arg in args)
        facts = [
            matching,
            tuple(_twin(value, data.draw) for value in matching),
            matching[:-1],
            matching + (data.draw(_VALUES),),
            data.draw(st.lists(_VALUES, max_size=5).map(tuple)),
        ]
        for fact in facts:
            # repr: None included, and 1 / 1.0 / True and key order told apart.
            assert repr(matcher(fact)) == repr(match_args(args, fact, {}))

    @settings(max_examples=300, deadline=None)
    @given(args=_ARGS, data=st.data())
    def test_compile_ground_equals_ground_term(self, args, data):
        names = sorted({v.name for arg in args for v in arg.variables()})
        subst = {
            name: data.draw(_VALUES) for name in names if data.draw(st.integers(0, 3))
        }
        grounder = compile_ground(args)
        assert _outcome(lambda: grounder(subst)) == _outcome(
            lambda: tuple(ground_term(arg, subst) for arg in args)
        )

    def test_compiled_match_returns_a_fresh_substitution(self):
        for args in [(Var("X"), Var("Y")), (Var("X"), Const(1)), (Const(1),)]:
            matcher = compile_match(args)
            first = matcher((1, 1))
            first["I"] = 5
            assert "I" not in matcher((1, 1))
