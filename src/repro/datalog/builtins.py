"""Evaluable predicates: arithmetic expressions and comparisons.

The paper's programs use arithmetic only in the restricted *next-Datalog*
form (stage increments ``I = I1 + 1``, cost sums ``C = C1 + C2``,
``I = max(J, K)``), but this module implements a complete little
expression language so user programs are not artificially constrained.

Comparisons between values of different kinds (numbers, symbols, tuples)
are given a deterministic total order — numbers < strings < tuples, with
``None``/``nil`` below everything — so that extrema over heterogeneous
columns are well defined.  Within a kind, the native Python order applies.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Optional

from repro.datalog.atoms import Comparison
from repro.datalog.terms import Const, Struct, Term, Var
from repro.datalog.unify import Subst, ground_term, is_bound, match_term
from repro.errors import EvaluationError

__all__ = [
    "eval_expr",
    "eval_comparison",
    "order_key",
    "compare_values",
    "ARITHMETIC_FUNCTORS",
    "COMPARISON_CHECKS",
    "NATIVE_COMPARISONS",
]

#: Functors interpreted arithmetically inside comparison expressions.
ARITHMETIC_FUNCTORS: Dict[str, Callable[..., Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "mod": operator.mod,
    "max": lambda a, b: a if compare_values(a, b) >= 0 else b,
    "min": lambda a, b: a if compare_values(a, b) <= 0 else b,
    "abs": abs,
    "neg": operator.neg,
}


def eval_expr(term: Term, subst: Subst) -> Any:
    """Evaluate an arithmetic expression term to a ground value.

    Structs whose functor is in :data:`ARITHMETIC_FUNCTORS` are computed;
    any other struct grounds to its functor-tagged tuple value.

    Raises:
        EvaluationError: on unbound variables or arithmetic type errors.
    """
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        try:
            return subst[term.name]
        except KeyError:
            raise EvaluationError(f"variable {term.name} is unbound in expression") from None
    if isinstance(term, Struct):
        fn = ARITHMETIC_FUNCTORS.get(term.functor)
        if fn is None:
            return ground_term(term, subst)
        values = [eval_expr(arg, subst) for arg in term.args]
        try:
            return fn(*values)
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"arithmetic failure in {term}: {exc}") from exc
    raise TypeError(f"cannot evaluate non-term {term!r}")


def order_key(value: Any):
    """A key giving a deterministic total order over all ground values.

    Numbers sort before strings, which sort before tuples; ``None`` sorts
    first.  Tuples compare element-wise by the same order.
    """
    # Exact types first: the common values skip the isinstance chain (a
    # bool, or any other subclass, takes the chain below).
    kind = type(value)
    if kind is int or kind is float:
        return (1, value)
    if kind is str:
        return (2, value)
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, tuple):
        return (3, tuple(map(order_key, value)))
    return (4, repr(value))


def compare_values(a: Any, b: Any) -> int:
    """Three-way comparison under the total order: -1, 0 or +1."""
    ka, kb = order_key(a), order_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


#: Per operator, the test on :func:`compare_values`' three-way result.
COMPARISON_CHECKS: Dict[str, Callable[[int], bool]] = {
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
    "=": lambda c: c == 0,
    "==": lambda c: c == 0,
    "!=": lambda c: c != 0,
}

#: Per operator, Python's own comparison.  It agrees with the total order
#: when both operands are ``int`` or both are ``str`` (exact types: a
#: ``bool`` or a ``float`` takes the :data:`COMPARISON_CHECKS` path), which
#: lets a compiled plan skip :func:`order_key` on the common case.
NATIVE_COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
}


def eval_comparison(comp: Comparison, subst: Subst) -> Optional[Subst]:
    """Evaluate a comparison goal under *subst*.

    * ``X = expr`` with ``X`` unbound and ``expr`` bound: binds ``X`` (the
      substitution is extended, not mutated).  Symmetrically for
      ``expr = X``.  A bound structured left side may also be *matched*
      against the value of the right side.
    * All other cases evaluate both sides and apply the operator under the
      total order of :func:`order_key`.

    Returns the (possibly extended) substitution, or ``None`` if the
    comparison fails.

    Raises:
        EvaluationError: if a side that must be evaluated is unbound.
    """
    if comp.op == "=":
        left_bound = is_bound(comp.left, subst)
        right_bound = is_bound(comp.right, subst)
        if right_bound and not left_bound:
            return match_term(comp.left, eval_expr(comp.right, subst), subst)
        if left_bound and not right_bound:
            return match_term(comp.right, eval_expr(comp.left, subst), subst)
        if not left_bound and not right_bound:
            raise EvaluationError(f"both sides of {comp} are unbound")
    left = eval_expr(comp.left, subst)
    right = eval_expr(comp.right, subst)
    if COMPARISON_CHECKS[comp.op](compare_values(left, right)):
        return subst
    return None
