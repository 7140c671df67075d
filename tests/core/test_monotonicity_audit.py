"""``check_monotonic`` is a function of the engine's flag alone.

The audit lives in each worker's parameter store and its tallies ride
the op reply, so every kind of run — cold, incremental, resumed from a
checkpoint, healed in-run after a fatal crash — is checked, on both
backends, whatever the state object went through in between (live,
pickled, pulled across a process boundary).
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.core.delta import GraphDelta
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.errors import MonotonicityError
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec, road_network
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend
from repro.runtime.faults import CrashFault, FaultPlan
from repro.service.service import canonical_answer_bytes
from repro.storage.dfs import SimulatedDFS
from tests.core.test_engine import (
    NonMonotoneProgram,
    ReachProgram,
    _chain_fragments,
)

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3
CASES = [
    ("sssp", {"source": 0}),
    ("bfs", {"source": 0}),
    ("cc", {}),
    ("kcore", {}),
]


def _delta(graph) -> GraphDelta:
    """One mixed ΔG batch: a delete, a reweight and a fresh insert."""
    edges = sorted((e.src, e.dst) for e in graph.edges())
    return GraphDelta.from_dict(
        {
            "delete": [list(edges[0])],
            "reweight": [[*edges[5], 0.25]],
            "insert": [[0, max(graph.vertices()), 0.5]],
        }
    )


def _engine(backend_name, graph, workers=NUM_WORKERS, **kw):
    fragmented = build_fragments(
        graph, get_partitioner("hash")(graph, workers), workers, "hash"
    )
    backend = make_backend(backend_name, fragmented)
    return GrapeEngine(fragmented, backend=backend, **kw)


def _seen(kind, result):
    checker = result.checker
    assert checker is not None, f"{kind} run returned no checker"
    return kind, canonical_answer_bytes(result.answer), checker.writes_seen


def _trail(backend_name, name, params, tmp_path, pickled=False):
    """(kind, answer bytes, writes_seen) of a cold run, a resume from its
    newest checkpoint and a mixed-ΔG repair, all on one checked engine."""
    graph = graph_from_spec(GRAPH_SPEC)
    engine = _engine(backend_name, graph, check_monotonic=True)
    program, query = get_program(name), build_query(name, **params)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag=name)
    try:
        cold = engine.run(program, query, keep_state=True, checkpoint=policy)
        trail = [_seen("cold", cold)]
        state = pickle.loads(pickle.dumps(cold.state)) if pickled \
            else cold.state
        trail.append(
            _seen("resume", engine.resume_from_checkpoint(
                program, query, policy
            ))
        )
        inc = engine.run_incremental(program, query, state, _delta(graph))
        trail.append(_seen("inc", inc))
        # A returned result's checker belongs to its run: later runs on
        # the same (live) state never move it.
        assert _seen("cold", cold) == trail[0]
    finally:
        engine.backend.close()
    return trail


@pytest.mark.parametrize("name,params", CASES)
def test_every_run_kind_is_checked_alike_on_both_backends(
    name, params, tmp_path
):
    oracle = _trail("simulated", name, params, tmp_path / "a")
    assert [kind for kind, _, _ in oracle] == ["cold", "resume", "inc"]
    assert oracle[0][2] > 0  # the cold run did audit writes
    assert oracle == _trail(
        "simulated", name, params, tmp_path / "b", pickled=True
    )
    assert oracle == _trail("process", name, params, tmp_path / "c")


@pytest.mark.parametrize("name,params", CASES)
def test_in_run_recovery_stays_checked(name, params, tmp_path):
    graph = graph_from_spec(GRAPH_SPEC)
    program, query = get_program(name), build_query(name, **params)
    clean = _engine("simulated", graph, check_monotonic=True).run(
        program, query
    )
    healed = _engine("simulated", graph, check_monotonic=True).run(
        program,
        query,
        checkpoint=CheckpointPolicy(SimulatedDFS(tmp_path), every=1),
        faults=FaultPlan(
            faults=(CrashFault(at_superstep=2, fatal=True),), seed=5
        ),
    )
    assert healed.metrics.faults.recoveries == 1
    _, answer, writes = _seen("healed", healed)
    assert answer == canonical_answer_bytes(clean.answer)
    # The reloaded stores were re-armed: the re-executed rounds' writes
    # are audited on top of everything before the crash.
    assert writes >= clean.checker.writes_seen


@pytest.mark.parametrize("backend_name", ["simulated", "process"])
def test_cold_sssp_write_count_is_pinned(backend_name):
    from repro.algorithms.sssp import SSSPProgram, SSSPQuery

    engine = _engine(
        backend_name, road_network(12, 12, seed=3), workers=4,
        check_monotonic=True,
    )
    try:
        result = engine.run(SSSPProgram(), SSSPQuery(source=0))
    finally:
        engine.backend.close()
    assert result.checker.writes_seen == 564


def test_unchecked_engine_disarms_a_checked_runs_live_state():
    graph = graph_from_spec(GRAPH_SPEC)
    checked = _engine("simulated", graph, check_monotonic=True)
    program, query = get_program("sssp"), build_query("sssp", source=0)
    cold = checked.run(program, query, keep_state=True)
    assert all(store.audit is not None for store in cold.state.params)
    plain = GrapeEngine(checked.fragmented, backend=checked.backend)
    inc = plain.run_incremental(program, query, cold.state, _delta(graph))
    assert inc.checker is None
    assert all(store.audit is None for store in inc.state.params)


def test_strict_violation_raises_worker_side_on_the_process_backend():
    _, fragmented = _chain_fragments()
    backend = make_backend("process", fragmented)
    engine = GrapeEngine(fragmented, backend=backend, check_monotonic=True)
    try:
        with pytest.raises(MonotonicityError) as excinfo:
            engine.run(NonMonotoneProgram(), 0)
        # Names fragment / vertex / old / new, as on the simulator.
        assert re.search(
            r"fragment \d+: x\[\d+\] moved 1[01] -> (9|10) against",
            str(excinfo.value),
        )
        # The pool survives the failed run and serves a clean one.
        got = _clean_run(engine)
    finally:
        backend.close()
    want = _clean_run(GrapeEngine(fragmented, check_monotonic=True))
    assert got == want and want[1] > 0


def _clean_run(engine):
    result = engine.run(ReachProgram(), 0)
    return result.answer, result.checker.writes_seen
