"""Serialize and restore governed-run fixpoint state.

A :class:`Checkpoint` captures everything a run needs to continue under a
fresh budget: the database facts, the rng state, the index of the
interrupted clique, the memoized choice state (FD maps and chosen sets),
the stage engines' W-memos and stage counter, and the greedy engine's
(R, Q, L) queues.  The capture point is a *consistent boundary*: engines
only raise ``BudgetExceeded``/``Cancelled`` from a governor tick at the
top of a γ step or saturation round, before the step consumes any rng —
so for a deterministic (seeded) engine, resuming reproduces exactly the
model the uninterrupted run would have produced:

* completed cliques are skipped on resume (``resume_clique_index``), so
  no extra ``rng.shuffle`` draws are consumed;
* the interrupted clique re-enters with the restored memo/W/stage/queue
  state — a strict superset of what re-absorbing the database would
  rebuild — and the restored rng continues the original draw sequence;
* an interrupt inside a saturation round is safe because saturation is
  deterministic, rng-free and confluent: re-entry re-derives the
  remaining consequences from the restored database.

The on-disk format is a single JSON object (``version`` field gates
compatibility); tuples are encoded as arrays and revived on load, so a
checkpoint survives a round-trip bit-for-bit.  ``restore`` must be given
the *same program* the checkpoint was captured from — memos are keyed by
proper-rule index, so reordering rules invalidates a checkpoint.  Since
format version 2 that requirement is *enforced*: the checkpoint carries a
fingerprint of the program text and ``restore``/``resume`` raise
:class:`~repro.errors.CheckpointError` on a mismatch instead of silently
corrupting the run.  Version-1 files (no fingerprint) still load; their
restore is unchecked, as before.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.datalog.builtins import order_key
from repro.errors import CheckpointError
from repro.storage.database import Database

__all__ = [
    "Checkpoint",
    "Snapshot",
    "capture",
    "snapshot",
    "freeze",
    "save",
    "load",
    "dumps",
    "loads",
    "restore",
    "resume",
    "program_fingerprint",
    "encode_value",
    "decode_value",
    "CHECKPOINT_VERSION",
]

Fact = Tuple[Any, ...]
PredicateKey = Tuple[str, int]

CHECKPOINT_VERSION = 2
#: Older formats :func:`loads` still understands (1: no fingerprint).
SUPPORTED_VERSIONS = (1, CHECKPOINT_VERSION)


def program_fingerprint(program: Any) -> str:
    """A stable digest of the program's canonical text.

    Memo/W state is keyed by proper-rule *index*, so any change to the
    rule sequence — reordering, editing, adding a rule — invalidates a
    checkpoint.  The canonical rendering (``str(program)``) captures
    exactly that sequence; whitespace and comments in the original source
    do not disturb it.
    """
    text = str(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Checkpoint:
    """A resumable snapshot of one governed run.

    Attributes:
        engine: engine name the run used (``restore`` re-creates it —
            resuming on a different engine is not meaningful).
        clique_index: index of the interrupted clique in the program's
            dependency-ordered report list; cliques before it are done
            and are skipped on resume.
        rng_state: ``random.Random.getstate()`` of the engine rng at the
            stop boundary (``None`` for the rng-free plain engines).
        facts: every database fact, keyed by ``(name, arity)``.
        memos: per proper-rule-index :class:`ChoiceMemo` state (FD maps
            and chosen control tuples) of the interrupted clique.
        w_memos: per proper-rule-index W-memo tuples (the ``next``
            expansion's implicit ``W -> I`` dependency).
        stage: the interrupted stage clique's stage counter, or ``None``.
        rql: per head-predicate (R, Q, L) structure state (live queue in
            insertion order, seen/used sets, operation counters).
        choice_log: the γ decisions so far — ``(predicate, fact, stage)``.
        metrics: registry snapshot at capture time (diagnostics only).
        fingerprint: :func:`program_fingerprint` of the captured program;
            empty for version-1 checkpoints (restore is then unchecked).
        version: format version; :func:`load` rejects unknown versions.
    """

    engine: str
    clique_index: int
    rng_state: Optional[Tuple[Any, ...]]
    facts: Dict[PredicateKey, List[Fact]]
    memos: Dict[int, Any] = field(default_factory=dict)
    w_memos: Dict[int, Any] = field(default_factory=dict)
    stage: Optional[int] = None
    rql: Dict[PredicateKey, Any] = field(default_factory=dict)
    choice_log: List[Tuple[PredicateKey, Fact, int]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    version: int = CHECKPOINT_VERSION


@dataclass
class Snapshot:
    """A mid-run copy of one run's resumable state, not yet canonical.

    :func:`snapshot` fills it with plain container copies, cheap enough
    to take at any governor tick; :func:`freeze` does the ``order_key``
    sorting and fingerprinting that turn it into a :class:`Checkpoint`.
    The fields mirror the checkpoint's, except that ``facts`` and
    ``w_memos`` hold sets, ``memos`` and ``rql`` hold the structures'
    unsorted :meth:`snapshot_state` forms, and ``program`` stands in for
    the fingerprint.
    """

    engine: str
    clique_index: int
    rng_state: Optional[Tuple[Any, ...]]
    facts: Dict[PredicateKey, Set[Fact]]
    memos: Dict[int, Any]
    w_memos: Dict[int, Set[Fact]]
    stage: Optional[int]
    rql: Dict[PredicateKey, Any]
    choice_log: List[Tuple[PredicateKey, Fact, int]]
    metrics: Dict[str, Any]
    program: Any


def snapshot(engine: Any, db: Database) -> Snapshot:
    """Copy *engine*'s resumable state over *db* without sorting it.

    Works for every engine: the core engines contribute rng/memo/queue
    state; the plain engines (naive/seminaive) contribute facts only —
    their resume is a monotone re-run over the snapshot, which converges
    to the identical fixpoint.
    """
    facts = {
        key: set(db.facts(*key))
        for key in sorted(db.predicates())
        if len(db.relation(*key))
    }
    rng = getattr(engine, "rng", None)
    memos: Dict[int, Any] = {}
    w_memos: Dict[int, Set[Fact]] = {}
    stage: Optional[int] = None
    index_of = {
        id(rule): index for index, rule in enumerate(engine.program.proper_rules())
    }
    active_memos = getattr(engine, "_active_choice", None)
    if active_memos is not None:
        for rule_id, memo in active_memos.items():
            memos[index_of[rule_id]] = memo.snapshot_state()
    state = getattr(engine, "_active_stage", None)
    if state is not None:
        stage = state.stage
        for rule_id, memo in state.memos.items():
            memos[index_of[rule_id]] = memo.snapshot_state()
        for rule_id, w_memo in state.w_memos.items():
            w_memos[index_of[rule_id]] = set(w_memo)
    rql = {
        key: structure.snapshot_state()
        for key, structure in getattr(engine, "rql_structures", {}).items()
    }
    tracer = getattr(engine, "tracer", None)
    registry = getattr(tracer, "registry", None)
    return Snapshot(
        engine=getattr(engine, "engine_name", "rql"),
        clique_index=getattr(engine, "_clique_index", 0),
        rng_state=rng.getstate() if rng is not None else None,
        facts=facts,
        memos=memos,
        w_memos=w_memos,
        stage=stage,
        rql=rql,
        choice_log=list(getattr(engine, "choice_log", ())),
        metrics=registry.snapshot() if registry is not None else {},
        program=engine.program,
    )


def freeze(snap: Snapshot) -> Checkpoint:
    """The canonical :class:`Checkpoint` of *snap*: facts, memos and
    (R, Q, L) sets sorted by ``order_key``, the program fingerprinted."""
    from repro.core.engine_base import ChoiceMemo
    from repro.core.rql import RQLStructure

    return Checkpoint(
        engine=snap.engine,
        clique_index=snap.clique_index,
        rng_state=snap.rng_state,
        facts={key: sorted(rows, key=order_key) for key, rows in snap.facts.items()},
        memos={
            index: ChoiceMemo.freeze_state(state)
            for index, state in snap.memos.items()
        },
        w_memos={
            index: sorted(rows, key=order_key) for index, rows in snap.w_memos.items()
        },
        stage=snap.stage,
        rql={key: RQLStructure.freeze_state(state) for key, state in snap.rql.items()},
        choice_log=list(snap.choice_log),
        metrics=snap.metrics,
        fingerprint=program_fingerprint(snap.program),
    )


def capture(engine: Any, db: Database) -> Checkpoint:
    """Snapshot *engine*'s resumable state over *db* as a canonical
    :class:`Checkpoint` (``freeze(snapshot(engine, db))``)."""
    return freeze(snapshot(engine, db))


def restore(
    cp: Checkpoint,
    program: Any,
    governor: Any = None,
    tracer: Any = None,
    engine: str | None = None,
    order: str | None = None,
    extrema: str | None = None,
) -> Tuple[Any, Database]:
    """Rebuild an engine + database pair ready to continue the run.

    *program* must be the same program (same rule order) the checkpoint
    was captured from; when the checkpoint carries a fingerprint (format
    version 2+) this is enforced and a mismatch raises
    :class:`~repro.errors.CheckpointError`.  Returns ``(engine, db)``;
    calling ``engine.run(db)`` continues from the stop boundary under the
    new *governor*.  *order* pins the resumed engine's join-order policy
    and *extrema* its extrema policy (the model is invariant under both,
    so any policy combination resumes any checkpoint).
    """
    from repro.core.compiler import _make_engine
    from repro.datalog.plans import DEFAULT_EXTREMA, DEFAULT_ORDER

    if cp.fingerprint:
        actual = program_fingerprint(program)
        if actual != cp.fingerprint:
            raise CheckpointError(
                "checkpoint does not belong to this program: it was captured "
                f"from a program with fingerprint {cp.fingerprint}, but the "
                f"supplied program has fingerprint {actual} — resuming would "
                "corrupt the run (memo state is keyed by rule position)"
            )

    rng = random.Random()
    if cp.rng_state is not None:
        rng.setstate(cp.rng_state)
    instance = _make_engine(
        engine or cp.engine,
        program,
        rng,
        tracer=tracer,
        governor=governor,
        order=order or DEFAULT_ORDER,
        extrema=extrema or DEFAULT_EXTREMA,
    )
    db = Database()
    for (name, _arity), rows in cp.facts.items():
        db.assert_all(name, map(tuple, rows))
    if hasattr(instance, "resume_clique_index"):
        instance.resume_clique_index = cp.clique_index
        instance._restore_memos = {int(i): s for i, s in cp.memos.items()}
        instance._restore_w = {int(i): w for i, w in cp.w_memos.items()}
        instance._restore_stage = cp.stage
        instance._restore_rql = dict(cp.rql)
        instance.choice_log = [tuple(entry) for entry in cp.choice_log]
    return instance, db


def resume(
    cp: Checkpoint, program: Any, governor: Any = None, tracer: Any = None
) -> Database:
    """Convenience: :func:`restore` then run to completion."""
    instance, db = restore(cp, program, governor=governor, tracer=tracer)
    return instance.run(db)


# -- JSON round-trip ------------------------------------------------------------


def save(cp: Checkpoint, path: str) -> None:
    """Write *cp* to *path* as JSON, atomically: a crash mid-save leaves
    the previous checkpoint file (if any) untouched instead of a torn,
    unloadable one."""
    from repro.storage.io import atomic_write_text

    atomic_write_text(path, dumps(cp) + "\n")


def load(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save`."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(cp: Checkpoint) -> str:
    return json.dumps(_to_payload(cp))


def loads(text: str) -> Checkpoint:
    return _from_payload(json.loads(text))


def _to_payload(cp: Checkpoint) -> Dict[str, Any]:
    return {
        "version": cp.version,
        "fingerprint": cp.fingerprint,
        "engine": cp.engine,
        "clique_index": cp.clique_index,
        "stage": cp.stage,
        "rng_state": _encode(cp.rng_state) if cp.rng_state is not None else None,
        "facts": [
            [name, arity, _encode(list(rows))]
            for (name, arity), rows in sorted(cp.facts.items())
        ],
        "memos": [[index, _encode(state)] for index, state in sorted(cp.memos.items())],
        "w_memos": [
            [index, _encode(list(rows))] for index, rows in sorted(cp.w_memos.items())
        ],
        "rql": [
            [name, arity, _encode(state)]
            for (name, arity), state in sorted(cp.rql.items())
        ],
        "choice_log": _encode(list(cp.choice_log)),
        "metrics": cp.metrics,
    }


def _from_payload(payload: Dict[str, Any]) -> Checkpoint:
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads versions {SUPPORTED_VERSIONS})"
        )
    rng_state = payload.get("rng_state")
    return Checkpoint(
        # Version 1 predates the fingerprint; its restore stays unchecked.
        fingerprint=payload.get("fingerprint", ""),
        engine=payload["engine"],
        clique_index=payload["clique_index"],
        rng_state=_decode(rng_state) if rng_state is not None else None,
        facts={
            (name, arity): list(_decode(rows))
            for name, arity, rows in payload.get("facts", [])
        },
        memos={int(i): _decode(state) for i, state in payload.get("memos", [])},
        w_memos={int(i): list(_decode(rows)) for i, rows in payload.get("w_memos", [])},
        stage=payload.get("stage"),
        rql={
            (name, arity): _decode(state)
            for name, arity, state in payload.get("rql", [])
        },
        choice_log=[tuple(entry) for entry in _decode(payload.get("choice_log", []))],
        metrics=payload.get("metrics", {}),
    )


def encode_value(value: Any) -> Any:
    """Public JSON-encoding of a ground value (tuples → arrays,
    recursively).  The durable store journals request payloads with this
    so nested fact tuples survive the round trip; inverse of
    :func:`decode_value`."""
    return _encode(value)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (arrays → tuples, recursively)."""
    return _decode(value)


def _encode(value: Any) -> Any:
    """Tuples become JSON arrays (recursively); dicts keep string keys."""
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _decode(value: Any) -> Any:
    """The inverse of :func:`_encode`: arrays come back as tuples (ground
    values in this codebase are tuples, never lists)."""
    if isinstance(value, list):
        return tuple(_decode(item) for item in value)
    if isinstance(value, dict):
        return {key: _decode(item) for key, item in value.items()}
    return value
