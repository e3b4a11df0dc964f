"""Slot frames: compiled plans lowered to closures.

:func:`repro.datalog.plans.compile_plan` lowers every plan once, through
:func:`lower`, into a :class:`LoweredPlan`.  A *slot frame* is a plain
list with one fixed index per plan variable; constants, the relations a
run reads, the run's result sink and the caller's substitution have
slots too.  Each step becomes a closure over slot indices that calls the
next step:

* an atom step resolves its relation on its first entry in a run,
  builds its lookup key from slots, and runs bind, check or
  ``Struct``-match actions on the free positions of each matching fact;
* a comparison reads slots; an ``=`` goal with one unbound side binds it;
* a negation or negated conjunction is an existence check and binds
  nothing;
* the last step hands the frame to a terminal: a head builder
  (:attr:`LoweredPlan.facts`), a substitution builder
  (:attr:`LoweredPlan.substs`), or, closing the inner plan of a negated
  conjunction, "a witness exists".

A step returns ``True`` to stop the search; only an existence check
does.  Runs are eager: :meth:`LoweredPlan.run` collects every result
before it returns, so a caller may mutate the database while it iterates
them.  Solutions come in the depth-first order of the plan's steps.

Slot reads need exact run-time boundness, so lowering tracks it itself:
the initially bound names, then whatever positive atoms and ``=`` goals
bind.  Negations and negated conjunctions bind nothing.  Reading a
variable that is unbound at that point raises the reference evaluator's
:class:`~repro.errors.EvaluationError` when the read runs.  Matching,
grounding, arithmetic and the comparison order follow
:mod:`repro.datalog.unify` and :mod:`repro.datalog.builtins`, which the
reference :func:`repro.datalog.evaluation.solve` evaluates through,
error texts included.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.datalog.atoms import Atom, Comparison, NegatedConjunction, Negation
from repro.datalog.builtins import (
    ARITHMETIC_FUNCTORS,
    COMPARISON_CHECKS,
    NATIVE_COMPARISONS,
    compare_values,
)
from repro.datalog.terms import Const, Struct, Term, Var
from repro.errors import EvaluationError

__all__ = ["LoweredPlan", "lower"]

Frame = List[Any]

#: A lowered step: runs the rest of the plan on a frame; ``True`` stops
#: the search.
Step = Callable[[Frame], bool]

#: Builds a step from the step that follows it.
StepFactory = Callable[[Step], Step]

#: Where a value comes from: a slot index, or a callable computing it
#: from the frame.
Source = Union[int, Callable[[Frame], Any]]

#: A test ``(frame, value) -> bool`` that may bind slots.
Test = Callable[[Frame, Any], bool]

#: What matching a term against a value does: ``None`` (a wildcard:
#: anything matches), a slot index (bind a fresh variable), or a test.
Action = Union[None, int, Test]

# Fixed slots of every frame.
_EMIT = 0  # the run's result sink: ``list.append`` of its output
_DB = 1  # the database positive atoms read
_NEG = 2  # the database negated goals and negated conjunctions read
_DELTA = 3  # the delta relation of a delta-specialized plan
_BASE = 4  # the caller's substitution
_FIXED = 5

#: A relation slot this run has not resolved yet.
_UNSET = object()


class LoweredPlan:
    """A compiled plan lowered onto a slot frame.

    Attributes:
        template: the frame every run starts from: constants filled in,
            relation slots unresolved.
        inputs: ``(name, slot)`` for each initially bound variable the
            plan reads.
        substs: the step chain whose terminal emits one substitution per
            solution: the caller's substitution plus what the plan bound.
        facts: the step chain whose terminal emits one head fact per
            solution, or ``None`` for a plan compiled without a head.
    """

    __slots__ = ("template", "inputs", "substs", "facts")

    def __init__(
        self,
        template: Frame,
        inputs: Tuple[Tuple[str, int], ...],
        substs: Step,
        facts: Optional[Step],
    ):
        self.template = template
        self.inputs = inputs
        self.substs = substs
        self.facts = facts

    def run(
        self,
        chain: Step,
        db: Any,
        subst: Optional[Dict[str, Any]],
        delta_relation: Any,
        neg_db: Any,
    ) -> List[Any]:
        """Run *chain* (:attr:`substs` or :attr:`facts`) on a fresh frame
        and return everything its terminal emitted."""
        frame = self.template[:]
        out: List[Any] = []
        frame[_EMIT] = out.append
        frame[_DB] = db
        frame[_NEG] = neg_db
        frame[_DELTA] = delta_relation
        if subst is None:
            subst = {}
        frame[_BASE] = subst
        for name, slot in self.inputs:
            try:
                frame[slot] = subst[name]
            except KeyError:
                raise EvaluationError(f"variable {name} is unbound") from None
        chain(frame)
        return out


def lower(
    steps: Sequence[Any],
    initially_bound: frozenset,
    head_args: Optional[Sequence[Term]],
) -> LoweredPlan:
    """Lower compiled *steps* (:class:`~repro.datalog.plans.CompiledStep`)
    onto a slot frame."""
    layout = _Layout()
    bound: Dict[str, None] = dict.fromkeys(sorted(initially_bound))
    factories = _lower_steps(steps, layout, bound, _DB)
    outputs = [name for name in bound if name not in initially_bound]
    substs = _chain(
        factories, _emit_substs(outputs, [layout.var(name) for name in outputs])
    )
    facts = None
    if head_args is not None:
        parts = [_ground(arg, layout, bound) for arg in head_args]
        facts = _chain(factories, _emit_facts(parts))
    inputs = tuple(
        (name, slot) for name, slot in layout.vars.items() if name in initially_bound
    )
    return LoweredPlan(layout.template(), inputs, substs, facts)


class _Layout:
    """Slot allocation for one frame; a plan and its inner plans share it."""

    def __init__(self) -> None:
        self.size = _FIXED
        self.preset: Dict[int, Any] = {}
        self.vars: Dict[str, int] = {}

    def _new(self) -> int:
        slot = self.size
        self.size += 1
        return slot

    def var(self, name: str) -> int:
        slot = self.vars.get(name)
        if slot is None:
            slot = self.vars[name] = self._new()
        return slot

    def const(self, value: Any) -> int:
        slot = self._new()
        self.preset[slot] = value
        return slot

    def relation(self) -> int:
        return self.const(_UNSET)

    def is_const(self, source: Source) -> bool:
        return isinstance(source, int) and source in self.preset

    def template(self) -> Frame:
        frame: Frame = [None] * self.size
        for slot, value in self.preset.items():
            frame[slot] = value
        return frame


def _chain(factories: Sequence[StepFactory], terminal: Step) -> Step:
    step = terminal
    for make in reversed(factories):
        step = make(step)
    return step


def _lower_steps(
    steps: Sequence[Any], layout: _Layout, bound: Dict[str, None], atom_db: int
) -> List[StepFactory]:
    """One factory per step; *bound* (an ordered set) grows with what the
    steps bind, and *atom_db* is the slot of the database positive atoms
    read (the negation database inside a negated conjunction)."""
    factories: List[StepFactory] = []
    for step in steps:
        literal = step.literal
        if isinstance(literal, Atom):
            factories.append(_lower_atom(step, layout, bound, atom_db))
        elif isinstance(literal, Comparison):
            factories.append(_lower_comparison(literal, layout, bound))
        elif isinstance(literal, Negation):
            factories.append(_lower_negation(step, layout, dict(bound)))
        elif isinstance(literal, NegatedConjunction):
            inner = _chain(
                _lower_steps(step.inner.steps, layout, dict(bound), _NEG), _found
            )
            factories.append(
                lambda nxt, inner=inner: _negated_conjunction(inner, nxt)
            )
        else:  # pragma: no cover - compile_plan rejects meta-goals
            raise EvaluationError(f"meta-goal {literal} reached the plan executor")
    return factories


# -- value sources ----------------------------------------------------------------


def _raiser(message: str) -> Callable[[Frame], Any]:
    def read(frame: Frame) -> Any:
        raise EvaluationError(message)

    return read


def _getter(source: Source) -> Callable[[Frame], Any]:
    return itemgetter(source) if isinstance(source, int) else source


def _var(var: Var, layout: _Layout, bound: Dict[str, None], where: str) -> Source:
    if var.name in bound:
        return layout.var(var.name)
    return _raiser(f"variable {var.name} is unbound{where}")


def _ground(term: Term, layout: _Layout, bound: Dict[str, None]) -> Source:
    """The source of *term*'s ground value, as
    :func:`~repro.datalog.unify.ground_term` computes it."""
    if isinstance(term, Const):
        return layout.const(term.value)
    if isinstance(term, Var):
        return _var(term, layout, bound, "")
    if isinstance(term, Struct):
        parts = [_ground(arg, layout, bound) for arg in term.args]
        if not term.is_tuple:
            parts.insert(0, layout.const(term.functor))
        return _tuple(parts)
    raise TypeError(f"cannot ground non-term {term!r}")


def _expr(term: Term, layout: _Layout, bound: Dict[str, None]) -> Source:
    """The source of *term*'s value as an expression, as
    :func:`~repro.datalog.builtins.eval_expr` computes it."""
    if isinstance(term, Const):
        return layout.const(term.value)
    if isinstance(term, Var):
        return _var(term, layout, bound, " in expression")
    if isinstance(term, Struct):
        fn = ARITHMETIC_FUNCTORS.get(term.functor)
        if fn is None:
            return _ground(term, layout, bound)
        return _apply(term, fn, [_expr(arg, layout, bound) for arg in term.args])
    raise TypeError(f"cannot evaluate non-term {term!r}")


def _apply(term: Struct, fn: Callable[..., Any], args: List[Source]) -> Source:
    if len(args) == 2 and all(isinstance(arg, int) for arg in args):
        a, b = args

        def apply2(frame: Frame) -> Any:
            left = frame[a]
            right = frame[b]
            try:
                return fn(left, right)
            except (TypeError, ZeroDivisionError) as exc:
                raise EvaluationError(f"arithmetic failure in {term}: {exc}") from exc

        return apply2
    getters = [_getter(arg) for arg in args]

    def apply(frame: Frame) -> Any:
        values = [get(frame) for get in getters]
        try:
            return fn(*values)
        except (TypeError, ZeroDivisionError) as exc:
            raise EvaluationError(f"arithmetic failure in {term}: {exc}") from exc

    return apply


def _tuple(parts: Sequence[Source]) -> Callable[[Frame], Tuple[Any, ...]]:
    """A builder of the tuple of *parts*' values."""
    if all(isinstance(part, int) for part in parts):
        if len(parts) == 1:
            (a,) = parts
            return lambda frame: (frame[a],)
        if len(parts) == 2:
            a, b = parts
            return lambda frame: (frame[a], frame[b])
        if len(parts) > 2:
            return itemgetter(*parts)
        return lambda frame: ()
    getters = [_getter(part) for part in parts]
    return lambda frame: tuple([get(frame) for get in getters])


def _key(
    terms: Sequence[Term], layout: _Layout, bound: Dict[str, None]
) -> Tuple[int, Tuple[Any, ...], Optional[Callable[[Frame], Tuple[Any, ...]]]]:
    """A lookup-key builder ``(slot, constant, builder)``: a nonzero
    *slot* means the key is ``(frame[slot],)``, a ``None`` *builder* means
    it is *constant*, and otherwise *builder* computes it."""
    parts = [_ground(term, layout, bound) for term in terms]
    if all(layout.is_const(part) for part in parts):
        return 0, tuple(layout.preset[part] for part in parts), None
    if len(parts) == 1 and isinstance(parts[0], int):
        return parts[0], (), None
    return 0, (), _tuple(parts)


# -- matching -----------------------------------------------------------------------


def _matcher(term: Term, layout: _Layout, bound: Dict[str, None]) -> Action:
    """What matching *term* against a value does, as
    :func:`~repro.datalog.unify.match_term` does it; marks the variables
    it binds as bound."""
    if isinstance(term, Var):
        name = term.name
        if name.startswith("_"):
            return None
        slot = layout.var(name)
        if name in bound:
            return lambda frame, value: frame[slot] == value
        bound[name] = None
        return slot
    if isinstance(term, Const):
        constant = term.value
        return lambda frame, value: constant == value
    if isinstance(term, Struct):
        size = len(term.args) if term.is_tuple else len(term.args) + 1
        first = size - len(term.args)
        tests = [
            (first + i, _test(_matcher(arg, layout, bound)))
            for i, arg in enumerate(term.args)
        ]
        tests = [(i, test) for i, test in tests if test is not None]
        functor = term.functor

        def match(frame: Frame, value: Any) -> bool:
            if not isinstance(value, tuple) or len(value) != size:
                return False
            if first and value[0] != functor:
                return False
            for i, test in tests:
                if not test(frame, value[i]):
                    return False
            return True

        return match
    raise TypeError(f"cannot match non-term {term!r}")


def _test(action: Action) -> Optional[Test]:
    if not isinstance(action, int):
        return action
    slot = action

    def bind(frame: Frame, value: Any) -> bool:
        frame[slot] = value
        return True

    return bind


def _scan(
    actions: Sequence[Tuple[int, Action]], nxt: Step
) -> Callable[[Frame, Iterable[Tuple[Any, ...]]], bool]:
    """Runs *nxt* once per fact that passes the per-position *actions*;
    binding-only action lists get the fast loops."""
    if not actions:

        def scan_all(frame: Frame, facts: Iterable[Tuple[Any, ...]]) -> bool:
            for _ in facts:
                if nxt(frame):
                    return True
            return False

        return scan_all
    if all(isinstance(action, int) for _, action in actions):
        if len(actions) == 1:
            ((p, s),) = actions

            def scan_bind1(frame: Frame, facts: Iterable[Tuple[Any, ...]]) -> bool:
                for fact in facts:
                    frame[s] = fact[p]
                    if nxt(frame):
                        return True
                return False

            return scan_bind1
        if len(actions) == 2:
            (p, s), (q, t) = actions

            def scan_bind2(frame: Frame, facts: Iterable[Tuple[Any, ...]]) -> bool:
                for fact in facts:
                    frame[s] = fact[p]
                    frame[t] = fact[q]
                    if nxt(frame):
                        return True
                return False

            return scan_bind2
        binds = tuple(actions)

        def scan_binds(frame: Frame, facts: Iterable[Tuple[Any, ...]]) -> bool:
            for fact in facts:
                for p, s in binds:
                    frame[s] = fact[p]
                if nxt(frame):
                    return True
            return False

        return scan_binds
    tests = tuple((p, _test(action)) for p, action in actions)

    def scan_match(frame: Frame, facts: Iterable[Tuple[Any, ...]]) -> bool:
        for fact in facts:
            for p, test in tests:
                if not test(frame, fact[p]):
                    break
            else:
                if nxt(frame):
                    return True
        return False

    return scan_match


# -- steps ----------------------------------------------------------------------------


def _free_actions(
    step: Any, layout: _Layout, bound: Dict[str, None]
) -> List[Tuple[int, Action]]:
    actions = []
    for position, term in step.free_slots:
        action = _matcher(term, layout, bound)
        if action is not None:
            actions.append((position, action))
    return actions


def _lower_atom(
    step: Any, layout: _Layout, bound: Dict[str, None], atom_db: int
) -> StepFactory:
    atom = step.literal
    positions = step.positions
    kslot, kconst, kfn = _key([term for _, term in step.bound_slots], layout, bound)
    actions = _free_actions(step, layout, bound)
    rslot = layout.relation()
    if step.is_delta:

        def resolve(frame: Frame) -> Any:
            return frame[_DELTA]

    else:
        pred, arity = atom.pred, atom.arity

        def resolve(frame: Frame) -> Any:
            return frame[atom_db].get(pred, arity)

    def make(nxt: Step) -> Step:
        scan = _scan(actions, nxt)

        def atom_step(frame: Frame) -> bool:
            relation = frame[rslot]
            if relation is _UNSET:
                relation = resolve(frame)
                # An empty relation is never looked up, so it builds no
                # index and counts no ``relation/lookups``.
                if relation is not None and not len(relation):
                    relation = None
                frame[rslot] = relation
            if relation is None:
                return False
            if kslot:
                values = (frame[kslot],)
            elif kfn is None:
                values = kconst
            else:
                values = kfn(frame)
            return scan(frame, relation.lookup(positions, values))

        return atom_step

    return make


def _lower_negation(step: Any, layout: _Layout, bound: Dict[str, None]) -> StepFactory:
    atom = step.literal.atom
    positions = step.positions
    kslot, kconst, kfn = _key([term for _, term in step.bound_slots], layout, bound)
    tests = tuple((p, _test(action)) for p, action in _free_actions(step, layout, bound))
    rslot = layout.relation()
    pred, arity = atom.pred, atom.arity

    def make(nxt: Step) -> Step:
        def negation_step(frame: Frame) -> bool:
            relation = frame[rslot]
            if relation is _UNSET:
                relation = frame[rslot] = frame[_NEG].get(pred, arity)
            if relation is not None:
                if kslot:
                    values = (frame[kslot],)
                elif kfn is None:
                    values = kconst
                else:
                    values = kfn(frame)
                facts = relation.lookup(positions, values)
                if not tests:
                    if facts:
                        return False
                else:
                    for fact in facts:
                        for p, test in tests:
                            if not test(frame, fact[p]):
                                break
                        else:
                            return False
            return nxt(frame)

        return negation_step

    return make


def _negated_conjunction(inner: Step, nxt: Step) -> Step:
    def conjunction_step(frame: Frame) -> bool:
        if inner(frame):
            return False
        return nxt(frame)

    return conjunction_step


def _found(frame: Frame) -> bool:
    return True


def _lower_comparison(
    comp: Comparison, layout: _Layout, bound: Dict[str, None]
) -> StepFactory:
    if comp.op == "=":
        left_bound = all(v.name in bound for v in comp.left.variables())
        right_bound = all(v.name in bound for v in comp.right.variables())
        if right_bound and not left_bound:
            return _lower_assignment(comp.left, comp.right, layout, bound)
        if left_bound and not right_bound:
            return _lower_assignment(comp.right, comp.left, layout, bound)
        if not left_bound and not right_bound:
            return lambda nxt: _raiser(f"both sides of {comp} are unbound")
    left = _expr(comp.left, layout, bound)
    right = _expr(comp.right, layout, bound)
    native = NATIVE_COMPARISONS[comp.op]
    check = COMPARISON_CHECKS[comp.op]
    if isinstance(left, int) and isinstance(right, int):
        a, b = left, right

        def make_slots(nxt: Step) -> Step:
            def compare_slots(frame: Frame) -> bool:
                x = frame[a]
                y = frame[b]
                kind = x.__class__
                if kind is y.__class__ and (kind is int or kind is str):
                    if native(x, y):
                        return nxt(frame)
                elif check(compare_values(x, y)):
                    return nxt(frame)
                return False

            return compare_slots

        return make_slots
    get_left, get_right = _getter(left), _getter(right)

    def make(nxt: Step) -> Step:
        def compare(frame: Frame) -> bool:
            x = get_left(frame)
            y = get_right(frame)
            kind = x.__class__
            if kind is y.__class__ and (kind is int or kind is str):
                if native(x, y):
                    return nxt(frame)
            elif check(compare_values(x, y)):
                return nxt(frame)
            return False

        return compare

    return make


def _lower_assignment(
    target: Term, value: Term, layout: _Layout, bound: Dict[str, None]
) -> StepFactory:
    """``target = value`` with *value* computable: evaluate it, then match
    *target* against the result (binding its fresh variables)."""
    source = _expr(value, layout, bound)
    action = _matcher(target, layout, bound)
    get = _getter(source)
    if isinstance(action, int):
        slot = action

        def make_bind(nxt: Step) -> Step:
            def assign(frame: Frame) -> bool:
                frame[slot] = get(frame)
                return nxt(frame)

            return assign

        return make_bind
    test = action

    def make(nxt: Step) -> Step:
        def assign_match(frame: Frame) -> bool:
            value = get(frame)
            if test is None or test(frame, value):
                return nxt(frame)
            return False

        return assign_match

    return make


# -- terminals -------------------------------------------------------------------------


def _emit_facts(parts: Sequence[Source]) -> Step:
    if all(isinstance(part, int) for part in parts) and 1 <= len(parts) <= 3:
        if len(parts) == 1:
            (a,) = parts

            def emit1(frame: Frame) -> bool:
                frame[_EMIT]((frame[a],))
                return False

            return emit1
        if len(parts) == 2:
            a, b = parts

            def emit2(frame: Frame) -> bool:
                frame[_EMIT]((frame[a], frame[b]))
                return False

            return emit2
        a, b, c = parts

        def emit3(frame: Frame) -> bool:
            frame[_EMIT]((frame[a], frame[b], frame[c]))
            return False

        return emit3
    build = _tuple(parts)

    def emit(frame: Frame) -> bool:
        frame[_EMIT](build(frame))
        return False

    return emit


def _emit_substs(names: Sequence[str], slots: Sequence[int]) -> Step:
    """Emits the caller's substitution extended by *names* (bound in
    *slots*); with nothing bound, the caller's substitution itself."""
    if not names:

        def emit_base(frame: Frame) -> bool:
            frame[_EMIT](frame[_BASE])
            return False

        return emit_base
    if len(names) == 1:
        (n,), (a,) = names, slots

        def emit1(frame: Frame) -> bool:
            frame[_EMIT]({**frame[_BASE], n: frame[a]})
            return False

        return emit1
    if len(names) == 2:
        (n, m), (a, b) = names, slots

        def emit2(frame: Frame) -> bool:
            frame[_EMIT]({**frame[_BASE], n: frame[a], m: frame[b]})
            return False

        return emit2
    keys = tuple(names)
    row = itemgetter(*slots)

    def emit(frame: Frame) -> bool:
        subst = {**frame[_BASE]}
        subst.update(zip(keys, row(frame)))
        frame[_EMIT](subst)
        return False

    return emit
