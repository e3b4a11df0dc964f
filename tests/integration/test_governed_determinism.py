"""The interrupt/resume determinism property, across the program battery.

For the deterministic-choice engines (``rql`` and ``basic`` under a fixed
seed), interrupting a governed run at an arbitrary γ-step boundary and
resuming from the checkpoint must produce **the identical stable model**
as the uninterrupted run — bit for bit, through a JSON serialization
round-trip of the checkpoint.

This is the strongest statement of governor non-interference: ticks fire
at the top of each hot loop, *before* any rng draw, so the captured rng
state is exactly the uninterrupted run's state at the same boundary."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro.core.compiler import compile_program
from repro.errors import BudgetExceeded
from repro.robust import Budget, RunGovernor, restore
from repro.robust.checkpoint import capture, dumps, freeze, loads, snapshot
from tests.integration.test_cross_engine_battery import BATTERY

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

# The battery rows whose γ loops run long enough to interrupt mid-flight.
PROGRAMS = {
    name: (source, builder)
    for name, source, builder, _result, _cost in BATTERY
    if name in ("sorting", "prim", "kruskal", "tsp", "huffman", "activities")
}


def _run_full(source, facts, engine, seed):
    compiled = compile_program(source, engine=engine)
    return compiled.run({k: list(v) for k, v in facts.items()}, seed=seed)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("engine", ["rql", "basic"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_interrupted_plus_resumed_equals_uninterrupted(name, engine, seed):
    source, builder = PROGRAMS[name]
    facts = builder(seed)
    expected = _run_full(source, facts, engine, seed).as_dict()

    # Interrupt at a battery-seeded "random" γ-step; if the program
    # finishes before the cap the run is its own (trivial) witness.
    k = random.Random(f"{name}:{engine}:{seed}").randint(1, 12)
    compiled = compile_program(source, engine=engine)
    governor = RunGovernor(Budget(max_gamma_steps=k), check_interval=1)
    try:
        db = compiled.run(
            {key: list(v) for key, v in facts.items()}, seed=seed, governor=governor
        )
    except BudgetExceeded as exc:
        checkpoint = exc.partial.checkpoint
        assert checkpoint is not None, f"{name}/{engine}: no checkpoint captured"
        # Serialization round-trip: what resumes is what was written out.
        checkpoint = loads(dumps(checkpoint))
        instance, db = restore(checkpoint, compile_program(source, engine=engine).program)
        db = instance.run(db)
    assert db.as_dict() == expected, f"{name}/{engine}/seed={seed} @ γ-step {k}"


@pytest.mark.parametrize("engine", ["rql", "basic"])
def test_chained_interruptions_still_converge(engine):
    """Interrupt every 2 γ-steps, resuming each time: an arbitrarily
    fragmented run still lands on the exact uninterrupted model."""
    source, builder = PROGRAMS["sorting"]
    facts = builder(0)
    expected = _run_full(source, facts, engine, 0).as_dict()

    compiled = compile_program(source, engine=engine)
    governor = RunGovernor(Budget(max_gamma_steps=2), check_interval=1)
    try:
        db = compiled.run(
            {key: list(v) for key, v in facts.items()}, seed=0, governor=governor
        )
    except BudgetExceeded as exc:
        checkpoint = exc.partial.checkpoint
        for _ in range(200):  # far more resumes than the run needs
            instance, db = restore(
                loads(dumps(checkpoint)), compiled.program,
                governor=RunGovernor(Budget(max_gamma_steps=2), check_interval=1),
            )
            try:
                db = instance.run(db)
                break
            except BudgetExceeded as again:
                checkpoint = again.partial.checkpoint
        else:  # pragma: no cover
            raise AssertionError("run never completed across 200 resumes")
    assert db.as_dict() == expected


def test_resume_does_not_depend_on_string_hashing():
    """Kruskal's equal-cost edge orientations tie in the (R, Q, L) queue;
    the candidate queue must be seeded in a canonical order, or a
    resumed run (whose database is re-asserted sorted) can pop the tie
    the other way round.  Hash seed 104 made it do so."""
    script = (
        "from tests.integration.test_governed_determinism import "
        "test_interrupted_plus_resumed_equals_uninterrupted as check\n"
        "check('kruskal', 'rql', 0)\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED="104",
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]


def test_huffman_models_do_not_depend_on_string_hashing():
    """Candidates a clique derives mid-run enter the (R, Q, L) queue in
    ``repr`` order per batch, not in derivation (set) order: equal costs
    pop in insertion order, so HUFFMAN's merges once followed the string
    hash seed (instance 0 gave three models under these three seeds)."""
    script = (
        "import json\n"
        "from repro.core.compiler import compile_program\n"
        "from repro.programs import texts\n"
        "from repro.workloads import random_frequency_table\n"
        "models = []\n"
        "for s in range(3):\n"
        "    db = compile_program(texts.HUFFMAN, engine='rql').run(\n"
        "        {'letter': random_frequency_table(8, seed=s)}, seed=0)\n"
        "    models.append(sorted(map(repr, db.facts('h', 3))))\n"
        "print(json.dumps(models))\n"
    )
    outputs = []
    for hash_seed in ("1", "2", "4"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        outputs.append(json.loads(child.stdout))
    for instance in range(3):
        models = [output[instance] for output in outputs]
        assert models[0] == models[1] == models[2], f"instance {instance}"


class _SnapshotAndCapture:
    """A governor durability sink taking a snapshot and a capture at
    every tick."""

    def __init__(self):
        self.pairs = []
        self._engine = self._db = None

    def start(self, engine, db):
        self._engine, self._db = engine, db

    def tick(self):
        self.pairs.append(
            (snapshot(self._engine, self._db), capture(self._engine, self._db))
        )


@pytest.mark.parametrize("engine", ["rql", "basic"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_freeze_of_snapshot_is_capture_at_every_tick(name, engine):
    """Each snapshot is frozen only after the run has gone on mutating
    the engine and database, so this also proves a snapshot shares no
    live container with them."""
    source, builder = PROGRAMS[name]
    facts = builder(0)
    sink = _SnapshotAndCapture()
    compile_program(source, engine=engine).run(
        {key: list(v) for key, v in facts.items()},
        seed=0,
        governor=RunGovernor(durability=sink),
    )
    assert sink.pairs
    for tick, (snap, captured) in enumerate(sink.pairs):
        frozen = freeze(snap)
        assert frozen == captured, f"{name}/{engine} tick {tick}"
        assert dumps(frozen) == dumps(captured), f"{name}/{engine} tick {tick}"
