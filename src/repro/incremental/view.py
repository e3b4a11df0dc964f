"""A materialized choice model maintained in place under EDB updates.

:class:`MaterializedView` solves a program once, then keeps the solved
database *live* across :class:`~repro.incremental.update.UpdateBatch`
transactions without re-running :func:`~repro.core.compiler.solve_program`.
The view walks the stage analysis's cliques in dependency (callees-first)
order — each clique is one maintenance *unit* — and classifies every unit
once at construction:

``counting``
    Non-recursive, extrema-free.  Facts carry derivation counts
    (:meth:`~repro.storage.relation.Relation.add_support`); a batch is
    absorbed by an exact count delta when its shape allows, by a full
    recount otherwise.  See :mod:`repro.incremental.maintain`.
``once``
    Non-recursive with ``least``/``most`` goals: re-evaluated with
    :func:`~repro.core.clique_eval.evaluate_rule_once` when touched
    (the extremum makes deltas non-monotone, and these units are cheap).
``dred``
    Recursive, extrema-free: DRed (delete-closure over delta plans,
    targeted rederivation, seminaive insert rounds).
``extrema``
    Recursive with premappable extrema: per-group
    :class:`~repro.core.extrema_lattice.BestTable` repair with a
    runner-up ledger, so a deleted best is replaced in place.
``rng``
    Choice/stage cliques.  These consume the engine rng, so the view
    threads a *replay cursor* through them: an untouched unit whose
    entry cursor is unchanged is skipped outright (its recorded exit
    cursor is re-used); a touched unit re-runs its clique subprogram
    from its entry cursor — reproducing exactly the draws the
    from-scratch engine would make.  Under the ``rql`` engine, a stage
    unit whose candidate predicate lies outside the clique additionally
    keeps a tape of mid-run snapshots, and a deletion-only batch hitting
    just that predicate resumes from the newest safe one instead of
    replaying the whole greedy loop (see
    :meth:`MaterializedView._fast_path_plan` and
    :meth:`MaterializedView._try_stage_fast_path` for the soundness
    guards).

The invariant, enforced by the differential test battery: after any
sequence of applied batches, ``view.db`` equals
``solve_program(source, facts=current EDB, seed=seed, engine=engine)``.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.compiler import _make_engine, compile_program
from repro.core.rewriting import premappable_extrema
from repro.core.rql import CongruenceSpec
from repro.core.stage_analysis import CliqueReport
from repro.datalog.atoms import Atom, NegatedConjunction, Negation
from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER, PlanCache
from repro.datalog.program import Program
from repro.errors import UpdateError
from repro.incremental import maintain
from repro.incremental.update import UpdateBatch
from repro.obs.tracer import Tracer
from repro.robust import checkpoint
from repro.robust.governor import RunGovernor
from repro.storage.database import Database

__all__ = ["ApplyResult", "MaterializedView", "StageCheckpointTape"]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]
DeltaPair = Tuple[Set[Fact], Set[Fact]]


class StageCheckpointTape:
    """A durability writer that keeps mid-run snapshots *in memory*.

    Plugged into a :class:`~repro.robust.governor.RunGovernor` as its
    ``durability`` sink, so the governor's γ-step/round ticks drive
    snapshotting for free.  Each entry is an unsorted
    :class:`~repro.robust.checkpoint.Snapshot` (plain container copies);
    only the one a fast-path resume starts from is ever frozen into a
    checkpoint.  Cadence starts at :data:`INTERVAL` ticks and doubles
    whenever the tape would exceed :data:`LIMIT` entries (keeping every
    other snapshot), so long runs hold at most ``LIMIT`` evenly thinned
    resume points.
    """

    INTERVAL = 16
    LIMIT = 8

    def __init__(self) -> None:
        self.snapshots: List[Any] = []
        self._engine: Any = None
        self._db: Any = None
        self._interval = self.INTERVAL
        self._ticks = 0

    def start(self, engine: Any, db: Any) -> None:
        self._engine = engine
        self._db = db

    def tick(self) -> None:
        if self._engine is None:
            return
        self._ticks += 1
        if self._ticks % self._interval:
            return
        self.snapshots.append(checkpoint.snapshot(self._engine, self._db))
        if len(self.snapshots) > self.LIMIT:
            self.snapshots = self.snapshots[::2]
            self._interval *= 2


@dataclass
class _Unit:
    """One maintenance unit (= one clique of the stage analysis)."""

    report: CliqueReport
    kind: str  # counting | once | dred | extrema | rng
    rules: Tuple[Any, ...]
    predicates: FrozenSet[PredicateKey]  # the unit's write set
    inputs: FrozenSet[PredicateKey]
    ground: Dict[PredicateKey, Set[Fact]]
    specs: Optional[Dict[PredicateKey, Any]] = None  # extrema units
    #: Runner-up ledger of an extrema unit (survives across batches).
    ledger: Dict[Tuple[PredicateKey, Tuple[Any, ...]], Dict[Fact, int]] = field(
        default_factory=dict
    )
    # rng units: replay-cursor bracket and resume state of the last run.
    subprogram: Optional[Program] = None
    rng_entry: Any = None
    rng_exit: Any = None
    #: ``(head, candidate, congruence spec)`` of a stage unit whose fast
    #: path can ever fire (see :meth:`MaterializedView._fast_path_plan`);
    #: only such units record a tape.
    fast_path: Optional[Tuple[PredicateKey, PredicateKey, CongruenceSpec]] = None
    tape: List[Any] = field(default_factory=list)


@dataclass
class ApplyResult:
    """What one :meth:`MaterializedView.apply` did.

    Attributes:
        batch_id: the batch's identity (empty when none was set).
        edb_added / edb_removed: net EDB facts inserted / deleted.
        units_touched: units whose derived state was maintained.
        units_skipped: units proven unaffected and left untouched.
        units_recomputed: units that fell back to full re-evaluation
            (including every re-run rng unit).
        fast_path_resumes: stage units resumed from a mid-run checkpoint
            instead of replayed.
        invalidated: derived facts retracted during repair.
        rederived: derived facts re-established during repair.
        ledger_promotions: extrema groups whose new best came from the
            runner-up ledger.
        seconds: wall-clock time spent in apply.
    """

    batch_id: str = ""
    edb_added: int = 0
    edb_removed: int = 0
    units_touched: int = 0
    units_skipped: int = 0
    units_recomputed: int = 0
    fast_path_resumes: int = 0
    invalidated: int = 0
    rederived: int = 0
    ledger_promotions: int = 0
    seconds: float = 0.0


class MaterializedView:
    """A live database for one ``(program, engine, seed)`` triple.

    Args:
        source: program text (or a parsed :class:`Program`).
        engine: any of the five engine names; the maintained model is
            always the one this engine would produce from scratch.
        seed: rng seed for the choice draws (the view is deterministic
            for a fixed seed, like a seeded engine run).
        order / extrema: plan policies, as for ``compile_program``.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; repair-phase
            events and ``incremental/`` counters land in its registry.
    """

    def __init__(
        self,
        source: Any,
        engine: str = "rql",
        seed: int = 0,
        order: str = DEFAULT_ORDER,
        extrema: str = DEFAULT_EXTREMA,
        tracer: Optional[Tracer] = None,
    ):
        self.compiled = compile_program(source, engine=engine, order=order, extrema=extrema)
        self.program = self.compiled.program
        self.engine = engine
        self.seed = seed
        self.order = order
        self.extrema = extrema
        self.tracer = tracer if tracer is not None else Tracer()
        self.cache = PlanCache(order=order, extrema=extrema, tracer=self.tracer)
        self.db = Database()
        self._rng_cursor: Any = None
        self._idb: Set[PredicateKey] = set(self.program.idb_predicates())
        self._arities: Dict[str, Set[int]] = {}
        for key in self._referenced_keys() | self._idb:
            self._arities.setdefault(key[0], set()).add(key[1])
        self._ground: Dict[PredicateKey, Set[Fact]] = {}
        for name, rows in self.program.ground_facts().items():
            for row in rows:
                self._ground.setdefault((name, len(row)), set()).add(tuple(row))
        # The analysis emits singleton cliques for extensional predicates
        # too (no rules derive them); those are input, not maintained
        # state — a rule-less "counting" unit would recount them to the
        # empty model.  Only derived cliques become maintenance units.
        self.units: List[_Unit] = [
            self._classify(report)
            for report in self.compiled.analysis.reports
            if set(report.clique.predicates) & self._idb
        ]
        self.load()

    # -- construction ------------------------------------------------------------

    def _referenced_keys(self) -> Set[PredicateKey]:
        keys: Set[PredicateKey] = set()
        for rule in self.program.proper_rules():
            keys |= _body_keys(rule)
        return keys

    def _classify(self, report: CliqueReport) -> _Unit:
        clique = report.clique
        inputs = frozenset(
            key
            for rule in clique.rules
            for key in _body_keys(rule)
            if key not in clique.predicates
        )
        ground = {
            key: set(self._ground.get(key, ()))
            for key in clique.predicates
            if self._ground.get(key)
        }
        base = dict(
            report=report,
            rules=tuple(clique.rules),
            predicates=frozenset(clique.predicates),
            inputs=inputs,
            ground=ground,
        )
        if report.kind in ("choice", "stage"):
            unit = _Unit(kind="rng", subprogram=Program.of(clique.rules), **base)
            unit.fast_path = self._fast_path_plan(unit)
            return unit
        if not clique.is_recursive:
            if any(rule.extrema_goals for rule in clique.rules):
                return _Unit(kind="once", **base)
            return _Unit(kind="counting", **base)
        if any(rule.extrema_goals for rule in clique.rules):
            # Non-premappable extrema through recursion raises in the
            # engines too — fail at construction, identically.
            specs = premappable_extrema(clique.rules, clique.predicates)
            if specs is None:
                from repro.core.stage_analysis import clique_label
                from repro.errors import StratificationError

                raise StratificationError(
                    "extrema through recursion outside a stage clique in "
                    f"{clique_label(clique)}"
                )
            return _Unit(kind="extrema", specs=specs, **base)
        for rule in clique.rules:
            for literal in rule.body:
                if isinstance(literal, Negation) and literal.atom.key in clique.predicates:
                    from repro.core.stage_analysis import clique_label
                    from repro.errors import StratificationError

                    raise StratificationError(
                        "negation through recursion outside a stage clique in "
                        f"{clique_label(clique)}"
                    )
        return _Unit(kind="dred", **base)

    # -- full (re)build ----------------------------------------------------------

    def load(self) -> None:
        """Evaluate every unit from the current EDB (initial build, and
        the recovery fallback when an apply died mid-repair)."""
        with self.tracer.span("incremental-load", phase="incremental"):
            for key in self._ground:
                if key not in self._idb:
                    relation = self.db.relation(key[0], key[1])
                    for fact in self._ground[key]:
                        relation.add(fact)
            self._rng_cursor = random.Random(self.seed).getstate()
            for unit in self.units:
                self._recompute(unit)

    def rebuild(self) -> None:
        """Drop all derived state and re-run :meth:`load` from the
        current EDB (exception recovery: an error escaping mid-apply can
        leave derived relations inconsistent)."""
        edb: Dict[PredicateKey, List[Fact]] = {
            key: list(facts)
            for key, facts in self.db.as_dict().items()
            if key not in self._idb
        }
        self.db = Database()
        for key, facts in edb.items():
            relation = self.db.relation(key[0], key[1])
            for fact in facts:
                relation.add(fact)
        self.load()

    def edb_facts(self) -> Dict[PredicateKey, List[Fact]]:
        """The current extensional facts (program-text facts included) —
        exactly what the from-scratch oracle should be solved against."""
        return {
            key: sorted(facts, key=repr)
            for key, facts in self.db.as_dict().items()
            if key not in self._idb
        }

    # -- update application ------------------------------------------------------

    def validate(self, batch: UpdateBatch) -> Dict[PredicateKey, DeltaPair]:
        """Check *batch* and return its net effect ``{key: (added,
        removed)}`` against the current database, without mutating
        anything.  Raises :class:`UpdateError` on the first bad op."""
        final: Dict[PredicateKey, Dict[Fact, str]] = {}
        for op in batch:
            key = op.key
            if key in self._idb:
                raise UpdateError(
                    f"cannot update {key[0]}/{key[1]}: it is derived (IDB)"
                )
            arities = self._arities.get(op.pred)
            if arities is not None and key[1] not in arities:
                expected = ", ".join(str(a) for a in sorted(arities))
                raise UpdateError(
                    f"arity mismatch for {op.pred}: got {key[1]}, "
                    f"program uses {expected}"
                )
            if op.op == "-" and op.args in self._ground.get(key, ()):
                raise UpdateError(
                    f"cannot delete {op}: asserted by the program text"
                )
            final.setdefault(key, {})[op.args] = op.op
        changed: Dict[PredicateKey, DeltaPair] = {}
        for key, ops in final.items():
            relation = self.db.relation(key[0], key[1])
            added = {fact for fact, op in ops.items() if op == "+" and fact not in relation}
            removed = {fact for fact, op in ops.items() if op == "-" and fact in relation}
            if added or removed:
                changed[key] = (added, removed)
        return changed

    def apply(self, batch: UpdateBatch) -> ApplyResult:
        """Apply *batch* atomically and repair every affected unit.

        Validation happens before any mutation; a rejected batch leaves
        the view untouched.  An exception *during* repair leaves the
        derived state inconsistent — callers that must survive that
        (:class:`~repro.incremental.live.LiveView`) call
        :meth:`rebuild`."""
        started = time.perf_counter()
        changed = self.validate(batch)
        result = ApplyResult(batch_id=batch.batch_id)
        registry = self.tracer.registry
        if not changed:
            result.units_skipped = len(self.units)
            result.seconds = time.perf_counter() - started
            return result
        with self.tracer.span(
            "incremental-apply", phase="incremental", batch_id=batch.batch_id, ops=len(batch)
        ):
            for key, (added, removed) in changed.items():
                relation = self.db.relation(key[0], key[1])
                for fact in removed:
                    relation.discard(fact)
                for fact in added:
                    relation.add(fact)
                result.edb_added += len(added)
                result.edb_removed += len(removed)
            changed = dict(changed)
            # Walk the units exactly like a from-scratch run walks the
            # cliques: the replay cursor rewinds to the seeded rng's
            # initial state, and each rng unit advances it (to its
            # recorded exit state when skipped, to the fresh engine's
            # exit state when recomputed).
            self._rng_cursor = random.Random(self.seed).getstate()
            for unit in self.units:
                self._maintain_unit(unit, changed, result)
        result.seconds = time.perf_counter() - started
        registry.inc("incremental/batches")
        registry.inc("incremental/facts_invalidated", result.invalidated)
        registry.inc("incremental/facts_rederived", result.rederived)
        registry.inc("incremental/ledger_promotions", result.ledger_promotions)
        registry.inc("incremental/units_recomputed", result.units_recomputed)
        registry.inc("incremental/fast_path_resumes", result.fast_path_resumes)
        registry.observe("incremental/apply_seconds", result.seconds)
        return result

    # -- per-unit dispatch -------------------------------------------------------

    def _maintain_unit(
        self,
        unit: _Unit,
        changed: Dict[PredicateKey, DeltaPair],
        result: ApplyResult,
    ) -> None:
        touched = {
            key
            for key in unit.inputs
            if key in changed and (changed[key][0] or changed[key][1])
        }
        if unit.kind == "rng":
            self._maintain_rng(unit, touched, changed, result)
            return
        if not touched:
            result.units_skipped += 1
            return
        result.units_touched += 1
        before = self._snapshot(unit.predicates)
        if unit.kind == "counting":
            plan = maintain.counting_plan(unit.rules, touched)
            if plan is not None:
                sub = {key: changed[key] for key in touched}
                maintain.apply_counting_delta(
                    unit.rules, plan, sub, self.db, self.cache
                )
            else:
                maintain.recount(
                    unit.rules, unit.predicates, unit.ground, self.db, self.cache
                )
                result.units_recomputed += 1
        elif unit.kind == "once":
            maintain.recompute_unit(
                unit.rules,
                unit.predicates,
                unit.ground,
                self.db,
                self.cache,
                tracer=self.tracer,
                recursive=False,
            )
            result.units_recomputed += 1
        elif unit.kind == "dred":
            if maintain.changed_under_negation(unit.rules, touched):
                self._recompute(unit)
                result.units_recomputed += 1
            else:
                counters = maintain.apply_dred(
                    unit.rules,
                    unit.predicates,
                    unit.ground,
                    changed,
                    unit.inputs,
                    self.db,
                    self.cache,
                    tracer=self.tracer,
                )
                result.invalidated += counters["invalidated"]
                result.rederived += counters["rederived"]
        elif unit.kind == "extrema":
            if maintain.changed_under_negation(unit.rules, touched):
                self._recompute(unit)
                result.units_recomputed += 1
            else:
                counters = maintain.apply_extrema(
                    unit.rules,
                    unit.predicates,
                    unit.specs or {},
                    unit.ledger,
                    unit.ground,
                    changed,
                    unit.inputs,
                    self.db,
                    self.cache,
                    tracer=self.tracer,
                )
                result.invalidated += counters["invalidated"]
                result.rederived += counters["rederived"]
                result.ledger_promotions += counters["ledger_promotions"]
        self._merge_head_deltas(unit, before, changed)

    def _maintain_rng(
        self,
        unit: _Unit,
        touched: Set[PredicateKey],
        changed: Dict[PredicateKey, DeltaPair],
        result: ApplyResult,
    ) -> None:
        if not touched and self._rng_cursor == unit.rng_entry:
            # Inputs unchanged and the rng reaches this unit in the same
            # state as last time: the recorded run is still the run the
            # from-scratch engine would perform.
            self._rng_cursor = unit.rng_exit
            result.units_skipped += 1
            return
        result.units_touched += 1
        before = self._snapshot(unit.predicates)
        if self._try_stage_fast_path(unit, touched, changed):
            result.fast_path_resumes += 1
        else:
            self._recompute(unit)
            result.units_recomputed += 1
        self._rng_cursor = unit.rng_exit
        self._merge_head_deltas(unit, before, changed)

    def _snapshot(self, predicates: FrozenSet[PredicateKey]) -> Dict[PredicateKey, Set[Fact]]:
        return {
            key: set(self.db.relation(key[0], key[1])) for key in predicates
        }

    def _merge_head_deltas(
        self,
        unit: _Unit,
        before: Dict[PredicateKey, Set[Fact]],
        changed: Dict[PredicateKey, DeltaPair],
    ) -> None:
        """Diff the unit's write relations against *before* and record the
        net changes so downstream units see them as input deltas."""
        for key, old in before.items():
            now = set(self.db.relation(key[0], key[1]))
            added = now - old
            removed = old - now
            if added or removed:
                changed[key] = (added, removed)
                if self.tracer.enabled:
                    self.tracer.event(
                        "incremental-head-delta",
                        predicate=f"{key[0]}/{key[1]}",
                        added=len(added),
                        removed=len(removed),
                    )

    # -- unit recompute ----------------------------------------------------------

    def _recompute(self, unit: _Unit) -> None:
        if unit.kind == "counting":
            maintain.load_counting(
                unit.rules, unit.predicates, unit.ground, self.db, self.cache
            )
            return
        if unit.kind == "once":
            maintain.recompute_unit(
                unit.rules,
                unit.predicates,
                unit.ground,
                self.db,
                self.cache,
                tracer=self.tracer,
                recursive=False,
            )
            return
        if unit.kind in ("dred", "extrema"):
            maintain.recompute_unit(
                unit.rules,
                unit.predicates,
                unit.ground,
                self.db,
                self.cache,
                tracer=self.tracer,
                specs=unit.specs,
            )
            return
        self._recompute_rng(unit)

    def _recompute_rng(self, unit: _Unit) -> None:
        """Re-run an rng unit's clique subprogram from the current
        replay cursor — exactly what the from-scratch engine does when
        it reaches this clique.

        The run happens in a *scratch* database whose relations are
        rebuilt in canonical (sorted) insertion order.  Greedy engines
        break cost ties by arrival order, and arrival order follows
        relation iteration order — a function of each set's insertion
        history.  The maintained view's history differs from a fresh
        load's, so running in place could legally flip a tie against the
        from-scratch oracle; canonical order pins both runs to the same
        tiebreak."""
        maintain.hooks.fire("incremental.repair")
        scratch = Database()
        for key in unit.inputs:
            relation = scratch.relation(key[0], key[1])
            for fact in sorted(self.db.facts(key[0], key[1]), key=repr):
                relation.add(fact)
        for key, facts in unit.ground.items():
            relation = scratch.relation(key[0], key[1])
            for fact in sorted(facts, key=repr):
                relation.add(fact)
        cursor = self._rng_cursor
        rng = random.Random()
        rng.setstate(cursor)
        tape: Optional[StageCheckpointTape] = None
        governor = None
        if unit.fast_path is not None:
            tape = StageCheckpointTape()
            governor = RunGovernor(durability=tape)
        engine = _make_engine(
            self.engine,
            unit.subprogram,
            rng,
            tracer=self.tracer,
            governor=governor,
            order=self.order,
            extrema=self.extrema,
        )
        engine.run(scratch)
        for key in unit.predicates:
            relation = self.db.relation(key[0], key[1])
            relation.clear()
            for fact in sorted(scratch.facts(key[0], key[1]), key=repr):
                relation.add(fact)
        unit.rng_entry = cursor
        unit.rng_exit = engine.rng.getstate() if hasattr(engine, "rng") else cursor
        unit.tape = tape.snapshots if tape is not None else []
        if self.tracer.enabled:
            self.tracer.event(
                "incremental-rng-recompute",
                predicates=sorted(f"{n}/{a}" for n, a in unit.predicates),
                checkpoints=len(unit.tape),
            )

    # -- stage checkpoint fast path ----------------------------------------------

    def _fast_path_plan(
        self, unit: _Unit
    ) -> Optional[Tuple[PredicateKey, PredicateKey, CongruenceSpec]]:
        """``(head, candidate, spec)`` when :meth:`_try_stage_fast_path`
        can ever resume *unit*, else ``None``.

        Decided once, before the unit first runs, from the guards that no
        batch can change: the ``rql`` engine on a stage clique whose one
        ``next`` rule gets an (R, Q, L) plan, with a candidate predicate
        outside the clique that the clique's rules read exactly once,
        positively.  Only units that pass pay for a checkpoint tape.
        """
        if self.engine != "rql" or unit.report.kind != "stage":
            return None
        engine = _make_engine(
            self.engine, unit.subprogram, None, order=self.order, extrema=self.extrema
        )
        plans = [
            engine._rql_plan(report)
            for report in engine.analysis.reports
            if report.kind == "stage"
        ]
        if len(plans) != 1 or isinstance(plans[0], str):
            return None
        plan = plans[0]
        candidate_key = plan.candidate_atom.key
        if candidate_key in unit.predicates:
            return None
        positive = 0
        for rule in unit.rules:
            for literal in rule.body:
                if isinstance(literal, Atom) and literal.key == candidate_key:
                    positive += 1
                elif isinstance(literal, Negation) and literal.atom.key == candidate_key:
                    return None
                elif isinstance(literal, NegatedConjunction):
                    for inner in literal.literals:
                        atom = (
                            inner if isinstance(inner, Atom)
                            else inner.atom if isinstance(inner, Negation)
                            else None
                        )
                        if atom is not None and atom.key == candidate_key:
                            return None
        if positive != 1:
            return None
        return plan.rule.head.key, candidate_key, plan.spec

    def _try_stage_fast_path(
        self,
        unit: _Unit,
        touched: Set[PredicateKey],
        changed: Dict[PredicateKey, DeltaPair],
    ) -> bool:
        """Resume a stage unit from a mid-run snapshot for a
        deletion-only batch on its candidate predicate.

        Sound when every guard below and in :meth:`_fast_path_plan`
        holds, because then the deleted facts influence the recorded run
        *only* through the (R, Q, L) candidate structure: the candidate
        predicate feeds nothing but the single candidate atom, the
        exit-choice draws are independent of it, and the greedy drain
        consumes no rng.  A snapshot is usable for deleted fact ``f``
        only if ``f``'s congruence class was never used *and* no
        congruent sibling of ``f`` was ever seen at snapshot time — a
        congruent sibling may have been retired or replaced because of
        ``f``, and the from-scratch run without ``f`` would still hold
        it, so resuming past that interaction would diverge.  Restoring
        re-seeds the structure from the purged candidate relation, so the
        deleted facts never re-enter.  Only the chosen snapshot is frozen.
        """
        if unit.fast_path is None or not unit.tape:
            return False
        if self._rng_cursor != unit.rng_entry:
            return False
        head_key, candidate_key, spec = unit.fast_path
        if touched != {candidate_key}:
            return False
        added, removed = changed[candidate_key]
        if added or not removed:
            return False
        signatures = {spec.signature(fact) for fact in removed}
        chosen = None
        for snap in reversed(unit.tape):
            state = snap.rql.get(head_key)
            if state is None or not signatures.isdisjoint(state["used"]):
                continue
            if any(
                fact not in removed and spec.signature(fact) in signatures
                for fact in state["seen"]
            ):
                continue
            chosen = snap
            break
        if chosen is None:
            return False
        maintain.hooks.fire("incremental.repair")
        facts = dict(chosen.facts)
        facts[candidate_key] = chosen.facts.get(candidate_key, set()) - removed
        state = dict(chosen.rql[head_key])
        state["queue"] = [fact for fact in state["queue"] if fact not in removed]
        state["seen"] = state["seen"] - removed
        purged = dataclasses.replace(
            chosen, facts=facts, rql={**chosen.rql, head_key: state}
        )
        tape = StageCheckpointTape()
        engine, db = checkpoint.restore(
            checkpoint.freeze(purged),
            unit.subprogram,
            governor=RunGovernor(durability=tape),
            tracer=self.tracer,
            engine=self.engine,
            order=self.order,
            extrema=self.extrema,
        )
        engine.run(db)
        # Only the unit's own write relations are grafted back: the
        # snapshot carried stale downstream relations (they repair after
        # this unit) which db still holds.
        for key in unit.predicates:
            relation = self.db.relation(key[0], key[1])
            relation.clear()
            for fact in db.relation(key[0], key[1]):
                relation.add(fact)
        unit.rng_exit = engine.rng.getstate()
        unit.tape = [purged] + tape.snapshots
        if self.tracer.enabled:
            self.tracer.event(
                "incremental-fast-path",
                predicate=f"{head_key[0]}/{head_key[1]}",
                deleted=len(removed),
                tape=len(unit.tape),
            )
        return True


def _body_keys(rule: Any) -> Set[PredicateKey]:
    """Every predicate key a rule body reads, including the atoms inside
    negated conjunctions (which ``Program.edb_predicates`` does not
    scan)."""
    keys: Set[PredicateKey] = set()
    for literal in rule.body:
        if isinstance(literal, Atom):
            keys.add(literal.key)
        elif isinstance(literal, Negation):
            keys.add(literal.atom.key)
        elif isinstance(literal, NegatedConjunction):
            for inner in literal.literals:
                if isinstance(inner, Atom):
                    keys.add(inner.key)
                elif isinstance(inner, Negation):
                    keys.add(inner.atom.key)
    return keys
