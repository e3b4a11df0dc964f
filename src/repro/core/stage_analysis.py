"""Compile-time recognition of stage-stratified programs (Section 4).

The analysis answers, per recursive clique:

1. *Is it a stage clique?*  Every recursive predicate must be a stage
   predicate with exactly one stage argument, and all recursive rules
   defining one predicate must be of the same kind (all ``next`` rules or
   all flat rules).
2. *Is it stage-stratified?*  Each ``next`` rule must be strictly
   stage-stratified, each positive goal of a flat rule stage-stratified
   (head stage >= body stage) and each negated goal strictly so.

Stage arguments are inferred exactly as the paper defines them: the
``next`` variable's head position seeds the set, and positions propagate
through rules that copy (or arithmetically derive) a body stage variable
into their head.

The stratification test follows the paper's definition operationally: the
rule ``r`` is rewritten into ``r'`` (next expanded, choice dropped,
extrema turned into negated conjunctions) and the analysis must prove,
from the comparisons present in ``r'``, that the head stage value
dominates every stage occurrence in the tail.  The proof system is a
small transitive closure over ``<`` / ``<=`` edges extracted from
comparisons (``J < I``, ``I = J + 1``, ``I = max(J, K)``, ...), which is
conservative but complete for the paper's programs — including the
negative example the paper calls out (replacing ``least(C, I)`` by
``least(C, _)`` in Prim's algorithm loses stage-stratification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.datalog.atoms import (
    Atom,
    ChoiceGoal,
    Comparison,
    Literal,
    NegatedConjunction,
    Negation,
    NextGoal,
)
from repro.datalog.dependency import Clique, DependencyGraph
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Const, Struct, Term, Var
from repro.core.rewriting import expand_next, rewrite_extrema

__all__ = [
    "StageAnalysis",
    "CliqueReport",
    "analyze_stages",
    "clique_label",
    "rule_label",
]

PredicateKey = Tuple[str, int]


def clique_label(clique: Clique) -> str:
    """A uniform human-readable name for a clique: ``clique [p/2, q/3]``.

    Every diagnostic that talks about a clique uses this label so error
    messages can be matched across the analysis and the engines."""
    preds = ", ".join(f"{name}/{arity}" for name, arity in sorted(clique.predicates))
    return f"clique [{preds}]"


def rule_label(program: Program | None, rule: Rule) -> str:
    """A uniform human-readable name for a rule: ``rule #3 (p(X) <- ...)``.

    The number is the 1-based position among the program's proper rules,
    matching the order rules appear in the source text (unnumbered
    without a *program*)."""
    if program is not None:
        for index, candidate in enumerate(program.proper_rules(), start=1):
            if candidate is rule:
                return f"rule #{index} ({rule})"
    return f"rule ({rule})"


# ---------------------------------------------------------------------------
# stage-argument inference
# ---------------------------------------------------------------------------


def infer_stage_positions(
    program: Program, graph: DependencyGraph | None = None
) -> Dict[PredicateKey, Set[int]]:
    """Infer stage predicates and their stage argument positions.

    Seeds: the head position of every ``next`` variable.  Propagation: if a
    body atom *of the same recursive clique* has a stage position holding
    variable ``V`` and a head argument is ``V`` — or is derived from stage
    variables through ``=`` assignments (``I = I1 + 1``, ``I = max(J, K)``)
    or order comparisons (``I1 <= I``) — that head position is a stage
    position too.  Iterated to fixpoint.

    Propagation is restricted to the head's own clique because a stage
    value may legitimately flow *out* of its clique as plain data — e.g.
    Kruskal's component identifiers are the stage values of the ``comp0``
    numbering clique — without making the receiving argument a stage
    argument of the receiving clique.
    """
    if graph is None:
        graph = DependencyGraph(program)
    positions: Dict[PredicateKey, Set[int]] = {}

    def note(key: PredicateKey, pos: int) -> bool:
        existing = positions.setdefault(key, set())
        if pos in existing:
            return False
        existing.add(pos)
        return True

    # Seeds from next rules.
    for rule in program.proper_rules():
        for goal in rule.next_goals:
            for i, arg in enumerate(rule.head.args):
                if isinstance(arg, Var) and arg == goal.var:
                    note(rule.head.key, i)

    changed = True
    while changed:
        changed = False
        for rule in program.proper_rules():
            head_component = graph.component_of(rule.head.key)
            stage_vars: Set[str] = set()
            for literal in rule.body:
                if isinstance(literal, Atom) and literal.key in head_component:
                    for pos in positions.get(literal.key, ()):
                        arg = literal.args[pos]
                        if isinstance(arg, Var) and not arg.name.startswith("_"):
                            stage_vars.add(arg.name)
                elif isinstance(literal, NextGoal):
                    stage_vars.add(literal.var.name)
            if not stage_vars:
                continue
            stage_vars = _close_under_comparisons(stage_vars, rule)
            for i, arg in enumerate(rule.head.args):
                if isinstance(arg, Var) and arg.name in stage_vars:
                    if note(rule.head.key, i):
                        changed = True
    return positions


def _close_under_comparisons(stage_vars: Set[str], rule: Rule) -> Set[str]:
    """Close a set of stage variables under ``=`` assignments whose
    expression mentions at least one stage variable and only stage
    variables or constants, and under order comparisons against a stage
    variable (``I1 <= I`` marks ``I`` as stage-related)."""
    closed = set(stage_vars)
    changed = True
    while changed:
        changed = False
        for comp in rule.comparisons:
            left_vars = {
                v.name for v in comp.left.variables() if not v.name.startswith("_")
            }
            right_vars = {
                v.name for v in comp.right.variables() if not v.name.startswith("_")
            }
            if comp.op == "=":
                if (
                    isinstance(comp.left, Var)
                    and comp.left.name not in closed
                    and right_vars
                    and right_vars <= closed
                ):
                    closed.add(comp.left.name)
                    changed = True
                if (
                    isinstance(comp.right, Var)
                    and comp.right.name not in closed
                    and left_vars
                    and left_vars <= closed
                ):
                    closed.add(comp.right.name)
                    changed = True
            elif comp.op in ("<", "<=", ">", ">="):
                if (
                    isinstance(comp.left, Var)
                    and isinstance(comp.right, Var)
                ):
                    if comp.left.name in closed and comp.right.name not in closed:
                        closed.add(comp.right.name)
                        changed = True
                    elif comp.right.name in closed and comp.left.name not in closed:
                        closed.add(comp.left.name)
                        changed = True
    return closed


# ---------------------------------------------------------------------------
# ordering inference over comparisons
# ---------------------------------------------------------------------------


class _OrderProver:
    """Prove ``a < b`` / ``a <= b`` between variables from the comparison
    goals of a rewritten rule, by transitive closure."""

    def __init__(self) -> None:
        # edges[(a, b)] = True for strict (<), False for non-strict (<=)
        self._edges: Dict[Tuple[str, str], bool] = {}
        self._vars: Set[str] = set()
        self._closed = False

    def add_lt(self, a: str, b: str) -> None:
        self._note(a, b, strict=True)

    def add_le(self, a: str, b: str) -> None:
        self._note(a, b, strict=False)

    def add_eq(self, a: str, b: str) -> None:
        self._note(a, b, strict=False)
        self._note(b, a, strict=False)

    def _note(self, a: str, b: str, strict: bool) -> None:
        self._vars.update((a, b))
        key = (a, b)
        self._edges[key] = self._edges.get(key, False) or strict
        self._closed = False

    def ingest(self, comp: Comparison) -> None:
        """Extract ordering edges from one comparison goal."""
        handlers = {
            "<": lambda l, r: self._pair(l, r, True, False),
            "<=": lambda l, r: self._pair(l, r, False, False),
            ">": lambda l, r: self._pair(r, l, True, False),
            ">=": lambda l, r: self._pair(r, l, False, False),
            "=": lambda l, r: self._equality(l, r),
            "==": lambda l, r: self._equality(l, r),
        }
        handler = handlers.get(comp.op)
        if handler is not None:
            handler(comp.left, comp.right)

    def _pair(self, low: Term, high: Term, strict: bool, _unused: bool) -> None:
        if isinstance(low, Var) and isinstance(high, Var):
            self._note(low.name, high.name, strict)

    def _equality(self, left: Term, right: Term) -> None:
        # Normalise so a variable is on the left.
        if isinstance(right, Var) and not isinstance(left, Var):
            left, right = right, left
        if not isinstance(left, Var):
            return
        if isinstance(right, Var):
            self.add_eq(left.name, right.name)
            return
        if isinstance(right, Struct):
            if right.functor == "+" and len(right.args) == 2:
                base, delta = right.args
                if isinstance(base, Const):
                    base, delta = delta, base
                if isinstance(base, Var) and isinstance(delta, Const):
                    value = delta.value
                    if isinstance(value, (int, float)) and value > 0:
                        self.add_lt(base.name, left.name)
                    elif value == 0:
                        self.add_eq(base.name, left.name)
            elif right.functor == "-" and len(right.args) == 2:
                base, delta = right.args
                if isinstance(base, Var) and isinstance(delta, Const):
                    value = delta.value
                    if isinstance(value, (int, float)) and value > 0:
                        self.add_lt(left.name, base.name)
                    elif value == 0:
                        self.add_eq(left.name, base.name)
            elif right.functor in ("max", "min") and len(right.args) == 2:
                for arg in right.args:
                    if isinstance(arg, Var):
                        if right.functor == "max":
                            self.add_le(arg.name, left.name)
                        else:
                            self.add_le(left.name, arg.name)

    def _close(self) -> None:
        if self._closed:
            return
        # Floyd–Warshall over the small variable set; strictness composes
        # as OR along a path.
        names = sorted(self._vars)
        reach: Dict[Tuple[str, str], bool] = dict(self._edges)
        for k in names:
            for i in names:
                first = reach.get((i, k))
                if first is None:
                    continue
                for j in names:
                    second = reach.get((k, j))
                    if second is None:
                        continue
                    combined = first or second
                    existing = reach.get((i, j))
                    if existing is None or (combined and not existing):
                        reach[(i, j)] = combined
        self._reach = reach
        self._closed = True

    def proves_lt(self, a: str, b: str) -> bool:
        """Whether ``a < b`` is provable."""
        self._close()
        return self._reach.get((a, b), False) is True

    def proves_le(self, a: str, b: str) -> bool:
        """Whether ``a <= b`` is provable (strict also counts)."""
        self._close()
        return (a == b) or ((a, b) in self._reach)


# ---------------------------------------------------------------------------
# per-rule stratification check
# ---------------------------------------------------------------------------


@dataclass
class RuleCheck:
    """Result of checking one rule of a stage clique."""

    rule: Rule
    is_next_rule: bool
    satisfied: bool
    strictly: bool
    detail: str = ""


def _rewrite_for_check(rule: Rule) -> Rule:
    """Produce the paper's ``r'``: next expanded, choice dropped, extrema
    rewritten into negated conjunctions."""
    expanded = expand_next(Program((rule,))).rules[0]
    without_choice = Rule(
        expanded.head,
        tuple(l for l in expanded.body if not isinstance(l, ChoiceGoal)),
    )
    return rewrite_extrema(Program((without_choice,))).rules[0]


def _stage_occurrences(
    literals: Sequence[Literal],
    stage_positions: Dict[PredicateKey, Set[int]],
    negated: bool,
) -> List[Tuple[str, bool]]:
    """Collect ``(stage variable name, must_be_strict)`` occurrences."""
    occurrences: List[Tuple[str, bool]] = []
    for literal in literals:
        if isinstance(literal, Atom):
            for pos in stage_positions.get(literal.key, ()):
                arg = literal.args[pos]
                if isinstance(arg, Var) and not arg.name.startswith("_"):
                    occurrences.append((arg.name, negated))
        elif isinstance(literal, Negation):
            for pos in stage_positions.get(literal.atom.key, ()):
                arg = literal.atom.args[pos]
                if isinstance(arg, Var) and not arg.name.startswith("_"):
                    occurrences.append((arg.name, True))
        elif isinstance(literal, NegatedConjunction):
            occurrences.extend(
                _stage_occurrences(literal.literals, stage_positions, negated=True)
            )
    return occurrences


def check_rule(
    rule: Rule,
    stage_positions: Dict[PredicateKey, Set[int]],
) -> RuleCheck:
    """Check one rule against the Section 4 stage-stratification conditions.

    For a ``next`` rule, every stage occurrence in the rewritten tail must
    be strictly below the head stage.  For a flat rule, positive
    occurrences need ``<=`` and negated occurrences ``<``.
    """
    head_positions = stage_positions.get(rule.head.key, set())
    if len(head_positions) != 1:
        return RuleCheck(
            rule,
            rule.is_next_rule,
            satisfied=False,
            strictly=False,
            detail=f"head predicate has {len(head_positions)} stage arguments",
        )
    (head_pos,) = head_positions
    head_arg = rule.head.args[head_pos]
    if isinstance(head_arg, Const):
        # Exit rules with a constant stage are trivially stratified.
        return RuleCheck(rule, rule.is_next_rule, satisfied=True, strictly=True)
    if not isinstance(head_arg, Var):
        return RuleCheck(
            rule,
            rule.is_next_rule,
            satisfied=False,
            strictly=False,
            detail="head stage argument is a compound term",
        )
    head_var = head_arg.name

    rewritten = _rewrite_for_check(rule)
    prover = _OrderProver()

    def ingest_all(literals: Sequence[Literal]) -> None:
        for literal in literals:
            if isinstance(literal, Comparison):
                prover.ingest(literal)
            elif isinstance(literal, NegatedConjunction):
                ingest_all(literal.literals)

    ingest_all(rewritten.body)
    occurrences = _stage_occurrences(rewritten.body, stage_positions, negated=False)

    all_strict = True
    for name, needs_strict in occurrences:
        if name == head_var and not needs_strict and not rule.is_next_rule:
            continue
        required_strict = needs_strict or rule.is_next_rule
        if required_strict:
            if not prover.proves_lt(name, head_var):
                return RuleCheck(
                    rule,
                    rule.is_next_rule,
                    satisfied=False,
                    strictly=False,
                    detail=f"cannot prove stage {name} < {head_var}",
                )
        else:
            if not prover.proves_le(name, head_var):
                return RuleCheck(
                    rule,
                    rule.is_next_rule,
                    satisfied=False,
                    strictly=False,
                    detail=f"cannot prove stage {name} <= {head_var}",
                )
            if not prover.proves_lt(name, head_var):
                all_strict = False
    return RuleCheck(rule, rule.is_next_rule, satisfied=True, strictly=all_strict)


# ---------------------------------------------------------------------------
# clique classification
# ---------------------------------------------------------------------------


@dataclass
class CliqueReport:
    """Classification of one recursive clique.

    Attributes:
        kind: ``"plain"`` (no meta-goals in the clique), ``"choice"``
            (choice goals, no next), or ``"stage"`` (next rules present).
        is_stage_clique: the syntactic conditions of Section 4 hold.
        is_stage_stratified: all rule checks passed.
        violations: human-readable reasons when a check failed.
    """

    clique: Clique
    kind: str
    stage_positions: Dict[PredicateKey, int] = field(default_factory=dict)
    next_rules: Tuple[Rule, ...] = ()
    flat_rules: Tuple[Rule, ...] = ()
    exit_choice_rules: Tuple[Rule, ...] = ()
    is_stage_clique: bool = False
    is_stage_stratified: bool = False
    rule_checks: List[RuleCheck] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)


@dataclass
class StageAnalysis:
    """Whole-program stage analysis: one report per clique, in dependency
    (callees-first) order."""

    program: Program
    graph: DependencyGraph
    stage_positions: Dict[PredicateKey, Set[int]]
    reports: List[CliqueReport]

    @property
    def is_stage_stratified_program(self) -> bool:
        """The paper's class: Horn clauses plus stage-stratified cliques
        (choice-only cliques are also accepted, as they reduce to the plain
        Choice Fixpoint)."""
        return all(
            report.kind != "stage" or report.is_stage_stratified
            for report in self.reports
        )

    def report_for(self, pred: str, arity: int) -> Optional[CliqueReport]:
        """The report of the clique containing ``pred/arity``."""
        for report in self.reports:
            if (pred, arity) in report.clique.predicates:
                return report
        return None


def analyze_stages(program: Program) -> StageAnalysis:
    """Run the full compile-time analysis of Section 4 on *program*."""
    graph = DependencyGraph(program)
    positions = infer_stage_positions(program, graph)
    reports: List[CliqueReport] = []
    for clique in graph.cliques():
        reports.append(_classify(clique, positions, program))
    return StageAnalysis(program, graph, positions, reports)


def _classify(
    clique: Clique,
    positions: Dict[PredicateKey, Set[int]],
    program: Program,
) -> CliqueReport:
    next_rules = tuple(r for r in clique.rules if r.is_next_rule)
    non_next = tuple(r for r in clique.rules if not r.is_next_rule)
    exit_choice = tuple(r for r in non_next if r.choice_goals)
    flat = tuple(r for r in non_next if not r.choice_goals)

    if next_rules:
        kind = "stage"
    elif any(r.choice_goals for r in clique.rules):
        kind = "choice"
    else:
        kind = "plain"

    report = CliqueReport(
        clique,
        kind,
        next_rules=next_rules,
        flat_rules=flat,
        exit_choice_rules=exit_choice,
    )
    if kind != "stage":
        return report

    # Stage clique conditions.
    ok = True
    for pred in sorted(clique.predicates):
        pred_positions = positions.get(pred, set())
        if len(pred_positions) != 1:
            report.violations.append(
                f"{pred[0]}/{pred[1]} has {len(pred_positions)} stage argument(s), "
                "expected exactly one"
            )
            ok = False
        else:
            report.stage_positions[pred] = next(iter(pred_positions))
        recursive_rules = [
            r
            for r in clique.rules
            if r.head.key == pred and _is_recursive_rule(r, clique.predicates)
        ]
        kinds = {r.is_next_rule for r in recursive_rules}
        if len(kinds) > 1:
            report.violations.append(
                f"{pred[0]}/{pred[1]} mixes next rules and flat rules"
            )
            ok = False
    report.is_stage_clique = ok
    if not ok:
        return report

    # Per-rule stratification checks.
    stratified = True
    for rule in clique.rules:
        check = check_rule(rule, positions)
        report.rule_checks.append(check)
        if not check.satisfied:
            report.violations.append(f"{rule_label(program, rule)}: {check.detail}")
            stratified = False
        elif rule.is_next_rule and not check.strictly:
            report.violations.append(
                f"{rule_label(program, rule)}: next rule not strictly stratified"
            )
            stratified = False
    report.is_stage_stratified = stratified
    return report


def _is_recursive_rule(rule: Rule, predicates: FrozenSet[PredicateKey]) -> bool:
    for literal in rule.body:
        if isinstance(literal, Atom) and literal.key in predicates:
            return True
        if isinstance(literal, Negation) and literal.atom.key in predicates:
            return True
        if isinstance(literal, NegatedConjunction):
            if _is_recursive_rule(Rule(rule.head, literal.literals), predicates):
                return True
    return False
