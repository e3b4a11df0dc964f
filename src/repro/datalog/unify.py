"""Matching of AST terms against ground values, and grounding.

Because evaluation is bottom-up, full unification (variables on both
sides) is never needed: the engine only ever *matches* a rule term against
a ground value from a relation, extending a substitution, or *grounds* a
term under a complete substitution.

A substitution is a plain ``dict`` mapping variable names to ground
values.

:func:`compile_match` and :func:`compile_ground` decide once, from the
terms alone, what :func:`match_args` and :func:`ground_term` decide on
every call, and return closures that run only the result: hot loops that
match or ground one argument list many times (the greedy engine's
candidates, heads and choice goals) build them once per rule.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.datalog.terms import Const, Struct, Term, Var
from repro.errors import EvaluationError

__all__ = [
    "match_term",
    "match_args",
    "ground_term",
    "substitute_term",
    "compile_match",
    "compile_ground",
    "binds_only",
    "Subst",
]

Subst = Dict[str, Any]

#: A compiled :func:`match_args` against an empty substitution.
Matcher = Callable[[Tuple[Any, ...]], Optional[Subst]]

#: A compiled grounding of an argument list: ``subst -> tuple``.
Grounder = Callable[[Subst], Tuple[Any, ...]]

#: One position's share of a compiled match: extends the substitution
#: being built and says whether the value matched.
_Test = Callable[[Subst, Any], bool]


def match_term(term: Term, value: Any, subst: Subst) -> Optional[Subst]:
    """Match *term* against ground *value*, extending *subst*.

    Returns the (possibly extended) substitution on success, or ``None`` on
    mismatch.  The input substitution is never mutated; a copy is made only
    when a new binding is actually added.

    Variables whose name starts with ``_`` are wildcards: they match
    anything and produce no binding.
    """
    if isinstance(term, Var):
        if term.name.startswith("_"):
            return subst
        bound = subst.get(term.name, _MISSING)
        if bound is _MISSING:
            new = dict(subst)
            new[term.name] = value
            return new
        return subst if bound == value else None
    if isinstance(term, Const):
        return subst if term.value == value else None
    if isinstance(term, Struct):
        if not isinstance(value, tuple):
            return None
        if term.is_tuple:
            parts = value
        else:
            if len(value) != len(term.args) + 1 or value[0] != term.functor:
                return None
            parts = value[1:]
        if len(parts) != len(term.args):
            return None
        current: Optional[Subst] = subst
        for sub_term, sub_value in zip(term.args, parts):
            current = match_term(sub_term, sub_value, current)
            if current is None:
                return None
        return current
    raise TypeError(f"cannot match non-term {term!r}")


def match_args(args: tuple[Term, ...], values: tuple[Any, ...], subst: Subst) -> Optional[Subst]:
    """Match an argument list against a fact tuple (same length assumed)."""
    current: Optional[Subst] = subst
    for term, value in zip(args, values):
        current = match_term(term, value, current)
        if current is None:
            return None
    return current


def ground_term(term: Term, subst: Subst) -> Any:
    """The ground value of *term* under *subst*.

    Raises:
        EvaluationError: if the term contains a variable unbound in *subst*.
    """
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        try:
            return subst[term.name]
        except KeyError:
            raise EvaluationError(f"variable {term.name} is unbound") from None
    if isinstance(term, Struct):
        parts = tuple(ground_term(arg, subst) for arg in term.args)
        if term.is_tuple:
            return parts
        return (term.functor, *parts)
    raise TypeError(f"cannot ground non-term {term!r}")


def is_bound(term: Term, subst: Subst) -> bool:
    """Whether *term* grounds completely under *subst*.

    Wildcard variables (``_``-prefixed) never ground: a term containing one
    must be matched against a fact value, not evaluated.
    """
    return all(
        not v.name.startswith("_") and v.name in subst for v in term.variables()
    )


def binds_only(args: Sequence[Term]) -> bool:
    """Whether every argument is a distinct named variable: then every
    fact matches, binding each name to the value at its position."""
    names = {
        arg.name for arg in args if isinstance(arg, Var) and not arg.name.startswith("_")
    }
    return len(names) == len(args)


def compile_match(args: Sequence[Term]) -> Matcher:
    """A closure equal to ``lambda fact: match_args(args, fact, {})``:
    a fresh substitution on a match, ``None`` otherwise.

    Which occurrence of a variable binds it and which ones compare is
    decided here, once.  When every argument is a distinct named
    variable the closure is ``dict(zip(names, fact))``.
    """
    if binds_only(args):
        names = tuple(arg.name for arg in args)
        return lambda fact: dict(zip(names, fact))
    bound: Set[str] = set()
    tests = tuple(_match_test(arg, bound) for arg in args)

    def match(fact: Tuple[Any, ...]) -> Optional[Subst]:
        subst: Subst = {}
        for test, value in zip(tests, fact):
            if test is not None and not test(subst, value):
                return None
        return subst

    return match


def _match_test(term: Term, bound: Set[str]) -> Optional[_Test]:
    """What matching *term* does, as :func:`match_term` does it: ``None``
    for a wildcard, else a test; marks the variables it binds as bound."""
    if isinstance(term, Var):
        name = term.name
        if name.startswith("_"):
            return None
        if name in bound:
            return lambda subst, value: subst[name] == value
        bound.add(name)

        def bind(subst: Subst, value: Any) -> bool:
            subst[name] = value
            return True

        return bind
    if isinstance(term, Const):
        constant = term.value
        return lambda subst, value: constant == value
    if isinstance(term, Struct):
        first = 0 if term.is_tuple else 1
        size = len(term.args) + first
        functor = term.functor
        tests = [
            (first + i, _match_test(arg, bound)) for i, arg in enumerate(term.args)
        ]
        tests = [(i, test) for i, test in tests if test is not None]

        def match_struct(subst: Subst, value: Any) -> bool:
            if not isinstance(value, tuple) or len(value) != size:
                return False
            if first and value[0] != functor:
                return False
            for i, test in tests:
                if not test(subst, value[i]):
                    return False
            return True

        return match_struct
    raise TypeError(f"cannot match non-term {term!r}")


def compile_ground(args: Sequence[Term]) -> Grounder:
    """A closure equal to ``lambda subst: tuple(ground_term(arg, subst)
    for arg in args)``, unbound-variable error included."""
    if all(isinstance(arg, Var) and not arg.name.startswith("_") for arg in args):
        names = [arg.name for arg in args]
        if not names:
            return lambda subst: ()
        if len(names) == 1:
            (name,) = names

            def ground_one(subst: Subst) -> Tuple[Any, ...]:
                try:
                    return (subst[name],)
                except KeyError:
                    raise EvaluationError(f"variable {name} is unbound") from None

            return ground_one
        get: Grounder = itemgetter(*names)
    else:
        parts = [_grounder(arg) for arg in args]
        get = lambda subst: tuple([part(subst) for part in parts])  # noqa: E731

    def ground(subst: Subst) -> Tuple[Any, ...]:
        try:
            return get(subst)
        except KeyError as exc:
            raise EvaluationError(f"variable {exc.args[0]} is unbound") from None

    return ground


def _grounder(term: Term) -> Callable[[Subst], Any]:
    """*term*'s value under a substitution; a missing variable raises
    ``KeyError`` (:func:`compile_ground` reports it)."""
    if isinstance(term, Const):
        value = term.value
        return lambda subst: value
    if isinstance(term, Var):
        return itemgetter(term.name)
    if isinstance(term, Struct):
        parts = [_grounder(arg) for arg in term.args]
        if term.is_tuple:
            return lambda subst: tuple([part(subst) for part in parts])
        functor = term.functor
        return lambda subst: (functor, *[part(subst) for part in parts])
    raise TypeError(f"cannot ground non-term {term!r}")


def substitute_term(term: Term, subst: Subst) -> Term:
    """Replace bound variables in *term* by constants (partial grounding)."""
    if isinstance(term, Var):
        if term.name in subst:
            return Const(subst[term.name])
        return term
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(substitute_term(a, subst) for a in term.args))
    return term


_MISSING = object()
